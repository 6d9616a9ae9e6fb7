"""The engine's reaction search must agree with the naive enumerator, and
each reaction it finds must carry the order key and footprint of their
definitions."""
from __future__ import annotations

import random

from brute_oracle import brute_force_reactions
from generators import random_instruction, random_state

from simdna import engine
from simdna.engine import applicable_reactions


def _check_found(r, layout) -> tuple[bool, bool]:
    """``r``'s key against ``_order_key`` and its footprint against the
    bound sets of the strands it adds and removes.  Returns whether a strand
    it adds hangs off a register end, and whether one binds positions that
    an unmatched token splits."""
    assert r.key == engine._order_key(r, layout), r
    strands = (*r.added, *r.removed)
    assert r.footprint == frozenset().union(*(bs.bound_positions(layout) for bs in strands)), r
    overhang = split = False
    for bs in r.added:
        bound = bs.bound_positions(layout)
        overhang |= bs.offset < 0 or bs.offset + len(bs.spec.tokens) > layout.total_positions
        split |= max(bound) - min(bound) >= len(bound)
    return overhang, split


def _compare(seed: int, n: int) -> int:
    rng = random.Random(seed)
    checked = overhangs = splits = 0
    for _ in range(n):
        state = random_state(rng)
        instr = random_instruction(rng, state)
        fast = applicable_reactions(state, instr)
        slow = brute_force_reactions(state, instr)
        assert fast == slow, (
            f"disagreement on seed={seed} state={state} instr={instr}:\n"
            f"engine only: {fast - slow}\noracle only: {slow - fast}"
        )
        for r in fast:
            overhang, split = _check_found(r, state.layout)
            overhangs += overhang
            splits += split
        checked += 1
    assert overhangs > 250 and splits > 25
    return checked


def test_engine_matches_brute_force_small():
    assert _compare(seed=20240817, n=2000) == 2000


def test_engine_matches_brute_force_other_seed():
    assert _compare(seed=7, n=1000) == 1000
