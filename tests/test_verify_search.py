"""The confluence search, which steps the run's occupancy index with apply
and undo, against the canonical run and the from-scratch reaction functions.

``VerifyConfluent`` takes its witness order from the search itself: the
least reaction of every expanded state, walked from the start.  These tests
pin that this walk is the canonical run, and pin the search's loop, budget
and error behaviour.
"""
from __future__ import annotations

import itertools
import random

import pytest

from generators import random_instruction, random_state

from simdna import engine
from simdna.compiler import encode_config, reachable_configs
from simdna.engine import (
    Canonical,
    EngineError,
    InapplicableReactionError,
    NonConfluentError,
    StateBudgetExceededError,
    VerifyConfluent,
    run_instruction,
)
from simdna.model import BoundStrand, Instruction, Match, RegisterLayout, RegisterState, fwd

L6 = RegisterLayout(1, 6)
INCUMBENT = BoundStrand(fwd(Match(3), Match(4)), 2)
# two challengers each fully displace the incumbent: two final states
RACE = Instruction(
    (fwd(Match(1), Match(2), Match(3), Match(4)), fwd(Match(3), Match(4), Match(5), Match(6))),
    "race",
)


def _same_outcome(st, instr):
    canon = run_instruction(st, instr, Canonical())
    verified = run_instruction(st, instr, VerifyConfluent())
    assert verified.final_state == canon.final_state
    assert verified.applied == canon.applied
    assert verified.washed_species == canon.washed_species
    return canon


def _reachable(st, instr) -> int:
    """Number of states reachable from ``st``, by the public from-scratch
    functions."""
    seen = {st}
    todo = [st]
    while todo:
        cur = todo.pop()
        for r in engine.applicable_reactions(cur, instr):
            nxt = engine.apply_reaction(cur, r)
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return len(seen)


def _incrementor_registers(spec, cp):
    configs = {}
    for n in (1, 2):  # an input needs a blank cell to its right
        for bits in itertools.product("01", repeat=n):
            for c in reachable_configs(spec, "".join(bits), 3)[0]:
                if not c.is_terminal and spec.defined(c.state, c.tape[c.head]):
                    configs[c] = None
    return [encode_config(spec, cp.scheme, c, 3)[0] for c in configs]


def test_verified_outcome_is_canonical_on_incrementor(increment_spec, increment_compiled_s3):
    cp = increment_compiled_s3
    registers = _incrementor_registers(increment_spec, cp)
    assert len(registers) >= 10
    reactions = 0
    for st in registers:
        for instr in cp.program.instructions:
            out = _same_outcome(st, instr)
            reactions += len(out.applied)
            st = out.final_state
    assert reactions > 100


def test_verified_outcome_is_canonical_on_random_states():
    rng = random.Random(4104)
    compared = 0
    for _ in range(600):
        st = random_state(rng)
        instr = random_instruction(rng, st)
        try:
            verified = run_instruction(st, instr, VerifyConfluent(2_000))
        except (NonConfluentError, StateBudgetExceededError):
            continue
        except EngineError as e:
            # only the walk along the least reactions loops, and so does
            # the canonical run
            assert "reaction loop" in str(e)
            with pytest.raises(EngineError, match="reaction loop"):
                run_instruction(st, instr, Canonical())
            continue
        canon = run_instruction(st, instr, Canonical())
        assert verified == canon
        compared += bool(canon.applied)
    assert compared > 100


def test_verify_reports_livelock():
    # the livelock of test_engine.test_livelock_is_reported: the search
    # finds no final state, and the walk revisits a state
    st = RegisterState(L6, (INCUMBENT,))
    instr = Instruction((fwd(Match(2), Match(3), Match(4)), fwd(Match(3), Match(4), Match(5))))
    with pytest.raises(EngineError, match="reaction loop") as err:
        run_instruction(st, instr, VerifyConfluent())
    assert type(err.value) is EngineError


def test_verified_run_leaves_the_program_index_at_the_final_state(increment_spec, increment_compiled_s3):
    cp = increment_compiled_s3
    for st in _incrementor_registers(increment_spec, cp)[:4]:
        index = engine._Index.validated(st)
        cur = st
        for instr in cp.program.instructions:
            cur = run_instruction(cur, instr, VerifyConfluent(), index).final_state
            assert index.state() == cur
        canon = engine.run_program(st, cp.program, Canonical())
        verified = engine.run_program(st, cp.program, VerifyConfluent())
        assert verified == canon


INDEX_FIELDS = ("owner", "unbound", "bound_of", "by_spec", "strands", "offsets")


def _assert_index_is_fresh(index, state):
    """Every field of the run's index equals that of an index built anew."""
    fresh = engine._Index(state)
    for field in INDEX_FIELDS:
        assert getattr(index, field) == getattr(fresh, field), field


def test_search_leaves_the_run_index_equal_to_a_fresh_one(increment_spec, increment_compiled_s3):
    cp = increment_compiled_s3
    reactions = 0
    for st in _incrementor_registers(increment_spec, cp):
        index = engine._Index.validated(st)
        for instr in cp.program.instructions:
            out = run_instruction(st, instr, VerifyConfluent(), index)
            st = out.final_state
            _assert_index_is_fresh(index, st)
            reactions += len(out.applied)
    assert reactions > 100
    rng = random.Random(5150)
    fired = 0
    for _ in range(600):
        st = random_state(rng)
        instr = random_instruction(rng, st)
        index = engine._Index.validated(st)
        try:
            out = run_instruction(st, instr, VerifyConfluent(2_000), index)
        except EngineError:
            continue  # the search stopped: its index is dropped
        _assert_index_is_fresh(index, out.final_state)
        fired += bool(out.applied)
    assert fired > 150


def _budget_boundary(st, instr):
    n = _reachable(st, instr)
    try:
        run_instruction(st, instr, VerifyConfluent(max_states=n))
    except NonConfluentError:
        pass
    with pytest.raises(StateBudgetExceededError) as err:
        run_instruction(st, instr, VerifyConfluent(max_states=n - 1))
    assert err.value.budget == n - 1
    return n


def test_budget_boundary_confluent(increment_spec, increment_compiled_s3):
    cp = increment_compiled_s3
    st = _incrementor_registers(increment_spec, cp)[0]
    sizes = []
    for instr in cp.program.instructions:
        sizes.append((_reachable(st, instr), st, instr))
        st = run_instruction(st, instr).final_state
    n, st, instr = max(sizes, key=lambda x: x[0])
    assert n >= 16
    assert _budget_boundary(st, instr) == n


def test_budget_boundary_refuted():
    st = RegisterState(L6, (INCUMBENT,))
    with pytest.raises(NonConfluentError):
        run_instruction(st, RACE, VerifyConfluent(max_states=_reachable(st, RACE)))
    assert _budget_boundary(st, RACE) >= 3


def test_search_errors_name_the_instruction():
    st = RegisterState(L6, (INCUMBENT,))
    with pytest.raises(NonConfluentError) as err:
        run_instruction(st, RACE, VerifyConfluent())
    assert err.value.label == "race" and "'race'" in str(err.value)
    with pytest.raises(StateBudgetExceededError) as err:
        run_instruction(st, RACE, VerifyConfluent(max_states=1))
    assert err.value.label == "race" and "'race'" in str(err.value)


def test_apply_reaction_rejects_what_cannot_apply():
    st = RegisterState(L6, (INCUMBENT,))
    missing = engine.Displace(BoundStrand(fwd(Match(1), Match(2)), 0), fwd(Match(1), Match(2), Match(3)), 0)
    with pytest.raises(InapplicableReactionError, match="not present"):
        engine.apply_reaction(st, missing)
    overlapping = engine.Attach(fwd(Match(2), Match(3)), 1)
    with pytest.raises(InapplicableReactionError, match="two strands"):
        engine.apply_reaction(st, overlapping)
    assert engine.apply_reaction(st, engine.Attach(fwd(Match(5), Match(6)), 4)).strands == (
        INCUMBENT,
        BoundStrand(fwd(Match(5), Match(6)), 4),
    )
