"""The full confluence search, kept as an oracle for the engine's reduced one.

It expands every reaction of every state reachable from the start, with the
public from-scratch functions (``applicable_reactions``, ``apply_reaction``),
so it shares no search code with the engine.  The engine's search expands a
stubborn subset of each state's reactions and must find the same final
states.
"""
from __future__ import annotations

from simdna.engine import StateBudgetExceededError, _order_key, applicable_reactions, apply_reaction


def full_search(state, instr, max_states: int = 100_000) -> dict:
    """Every final state reachable from ``state``, each with one reaction
    order that reaches it.  Raises ``StateBudgetExceededError`` past
    ``max_states`` distinct states, the start included."""
    seen = {state}
    finals = {}
    stack = [(state, ())]
    while stack:
        cur, order = stack.pop()
        reactions = sorted(applicable_reactions(cur, instr), key=lambda r: _order_key(r, cur.layout))
        if not reactions:
            finals[cur] = order
        for r in reactions:
            nxt = apply_reaction(cur, r)
            if nxt not in seen:
                if len(seen) >= max_states:
                    raise StateBudgetExceededError(max_states, instr.label)
                seen.add(nxt)
                stack.append((nxt, order + (r,)))
    return finals
