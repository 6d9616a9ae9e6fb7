"""The incremental canonical engine against the from-scratch reaction search.

After every reaction, a canonical run re-searches only around the positions
the reaction changed.  At every step of such runs the reaction set it keeps
must equal ``applicable_reactions`` on the current state, which itself must
equal the brute-force enumerator on random states; each kept reaction's key
and footprint must equal their definitions, and the index's exposed domains
their recomputation.
"""
from __future__ import annotations

import hashlib
import itertools
import random
from operator import attrgetter
from pathlib import Path

import pytest

from brute_oracle import brute_force_reactions
from generators import random_instruction, random_state

from simdna import engine, model
from simdna.compiler import encode_config, reachable_configs
from simdna.model import BoundStrand, Match, Program, RegisterLayout, RegisterState, fwd

# sha256 of tests/brute_oracle.py: the oracle is a gate and must not move
BRUTE_ORACLE_SHA256 = "e0a4782c9d50543fe34f37b6a8e53728cd1584be5432cb913d856630726c2b15"


def _check_kept(firing, cur, instr):
    """The key and footprint each kept reaction was found with against
    ``_order_key`` and the bound sets of its strands, the index's exposed
    domains against the unbound positions of ``cur``, and an inert verdict
    against the brute-force enumerator."""
    layout = cur.layout
    for r in firing.live:
        assert r.key == engine._order_key(r, layout), r
        strands = (*r.added, *r.removed)
        assert r.footprint == frozenset().union(*(bs.bound_positions(layout) for bs in strands)), r
    bound = set().union(*(bs.bound_positions(layout) for bs in cur.strands))
    d = layout.domains_per_cell
    unbound = set(range(layout.total_positions)) - bound
    assert firing.index.exposed() == {p % d + 1 for p in unbound}
    if engine._inert(firing.index, firing.species):
        assert brute_force_reactions(cur, instr) == set(), (cur, instr)


def _new_cooperatives(before, firing) -> int:
    """The cooperative reactions that a step's search added to the kept
    set: those kept now that were not kept in ``before``."""
    return sum(isinstance(r, engine.Cooperative) and r not in before for r in firing.live)


def _fire(state, instr, max_steps=200, brute=False, rng=None, found=None):
    """Run one instruction, checking the kept reaction set at every step;
    returns the number of steps checked.  Fires in canonical order, or in a
    random order drawn from ``rng``.  Stops after ``max_steps`` (a
    livelocking instruction never stops by itself).  Appends to ``found``
    the number of cooperative reactions each step newly kept."""
    index = engine._Index(state)
    firing = engine._Firing(instr, index)
    steps = 0
    while True:
        cur = index.state()
        assert cur == RegisterState(cur.layout, cur.strands), "strands out of canonical order"
        assert model.validate_state(cur) == []
        scratch = engine.applicable_reactions(cur, instr)
        assert set(firing.live) == scratch, (
            f"step {steps} of {instr} on {cur}:\n"
            f"kept only: {set(firing.live) - scratch}\nsearch only: {scratch - set(firing.live)}"
        )
        if brute:
            assert scratch == brute_force_reactions(cur, instr)
        _check_kept(firing, cur, instr)
        if not firing.live or steps == max_steps:
            return steps
        order = sorted(firing.live, key=attrgetter("key"))
        before = set(firing.live)
        firing.fire(rng.choice(order) if rng else order[0])
        if found is not None:
            found.append(_new_cooperatives(before, firing))
        steps += 1


@pytest.mark.parametrize("order", ["canonical", "random"])
def test_kept_reactions_match_scratch_on_random_states(order):
    rng = random.Random(20261018)
    steps = 0
    found = []
    for _ in range(2000):
        state = random_state(rng)
        instr = random_instruction(rng, state)
        steps += _fire(state, instr, max_steps=12, brute=True, rng=rng if order == "random" else None, found=found)
    assert steps > 500
    # the walks keep finding cooperative pairs after a step (85 canonical
    # and 20 random), where only the incumbents with both neighbours
    # unbound are searched around
    assert sum(found) >= {"canonical": 40, "random": 10}[order]


def test_kept_reactions_match_scratch_after_undo():
    # the confluence search takes reactions back as it backtracks: walk
    # forward and back at random, checking the kept set after every step
    rng = random.Random(20261019)
    steps = found = 0
    for _ in range(800):
        state = random_state(rng)
        instr = random_instruction(rng, state)
        index = engine._Index(state)
        firing = engine._Firing(instr, index)
        path = []
        for _ in range(12):
            before = set(firing.live)
            if path and (not firing.live or rng.random() < 0.4):
                firing.undo(path.pop())
            elif firing.live:
                r = rng.choice(sorted(firing.live, key=attrgetter("key")))
                firing.fire(r)
                path.append(r)
            else:
                break
            found += _new_cooperatives(before, firing)
            cur = index.state()
            assert set(firing.live) == brute_force_reactions(cur, instr), (cur, instr)
            _check_kept(firing, cur, instr)
            steps += 1
        while path:
            firing.undo(path.pop())
        assert index.state() == state
    assert steps > 2000
    assert found >= 20  # cooperative pairs a fire or an undo newly kept: 43


def test_cooperative_flank_found_beyond_the_changed_window():
    # Y blocks the right flank's toehold; once Y is carried off, the pair
    # with the left flank, whose toehold is at the far end of the
    # incumbent, must be found too
    layout = RegisterLayout(1, 12)
    incumbent = BoundStrand(fwd(*map(Match, (4, 5, 6, 7, 8))), 3)
    blocker = BoundStrand(fwd(Match(9), Match(10), model.Ortho("y")), 8)
    left = fwd(Match(3), Match(4), Match(5))
    right = fwd(*map(Match, (6, 7, 8, 9, 10)))
    instr = model.Instruction((left, right, model.rev(Match(9), Match(10), model.Ortho("y"))))
    state = RegisterState(layout, (incumbent, blocker))
    assert _fire(state, instr, brute=True) == 2
    final = engine.run_instruction(state, instr)
    assert [r.rule for r in final.applied] == ["detach", "cooperative"]


def _incrementor_states(spec, cp) -> list[RegisterState]:
    """The registers of the incrementor's steppable configurations at s = 3."""
    configs = {}
    for n in (1, 2):  # an input needs a blank cell to its right
        for bits in itertools.product("01", repeat=n):
            for c in reachable_configs(spec, "".join(bits), 3)[0]:
                if not c.is_terminal and spec.defined(c.state, c.tape[c.head]):
                    configs[c] = None
    return [encode_config(spec, cp.scheme, c, 3)[0] for c in configs]


def test_kept_reactions_match_scratch_on_incrementor(increment_spec, increment_compiled_s3):
    cp = increment_compiled_s3
    states = _incrementor_states(increment_spec, cp)
    assert len(states) >= 10
    steps = 0
    for state in states:
        for instr in cp.program.instructions:
            steps += _fire(state, instr)
            state = engine.run_instruction(state, instr).final_state
    assert steps > 100


# --- an inert instruction skips the search ---------------------------------------


def test_inert_instruction_has_no_reaction_and_returns_its_entry_state():
    rng = random.Random(14)
    inert = 0
    for _ in range(2000):
        state = random_state(rng)
        instr = random_instruction(rng, state)
        if not engine._inert(engine._Index(state), engine._species(instr)):
            continue
        inert += 1
        assert brute_force_reactions(state, instr) == set(), (state, instr)
        for mode in (engine.Canonical(), engine.VerifyConfluent(max_states=1)):
            out = engine.run_instruction(state, instr, mode)
            assert out.final_state is state
            assert out.applied == ()
    assert inert > 300


@pytest.mark.parametrize("mode", [engine.Canonical(), engine.VerifyConfluent()], ids=["canonical", "verified"])
def test_inert_instructions_build_no_firing(monkeypatch, increment_spec, increment_compiled_s3, mode):
    prog = increment_compiled_s3.program
    built = []

    class Counted(engine._Firing):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(engine, "_Firing", Counted)
    states = _incrementor_states(increment_spec, increment_compiled_s3)
    shortcut = []
    for state in states:
        built.clear()
        shortcut.append(engine.run_program(state, prog, mode))
        assert len(built) < len(prog.instructions)
    monkeypatch.setattr(engine, "_inert", lambda ix, sp: False)
    for state, result in zip(states, shortcut):
        built.clear()
        assert engine.run_program(state, prog, mode) == result
        assert len(built) == len(prog.instructions)


def test_run_program_rejects_invalid_register():
    layout = RegisterLayout(1, 6)
    # two strands on positions 1 and 2: the register was never valid
    clash = RegisterState(
        layout,
        (BoundStrand(fwd(Match(1), Match(2), Match(3)), 0), BoundStrand(fwd(Match(2), Match(3)), 1)),
    )
    assert model.validate_state(clash)
    with pytest.raises(engine.EngineError, match="bound by two strands"):
        engine.run_program(clash, Program(layout, ()))
    with pytest.raises(engine.EngineError):
        engine.run_many([clash], Program(layout, ()))


def test_run_many_repeats_equal_separate_runs(increment_spec, increment_compiled_s3):
    cp = increment_compiled_s3
    regs = []
    for config in reachable_configs(increment_spec, "01", 3)[0][:3]:
        regs.append(encode_config(increment_spec, cp.scheme, config, 3)[0])
    batch = [regs[0], regs[1], regs[0], regs[2], regs[1], regs[0]]
    results = engine.run_many(batch, cp.program)
    assert results == [engine.run_program(st, cp.program) for st in batch]
    assert results[0] is results[2] is results[5]


def test_model_records_have_no_instance_dict():
    spec = fwd(Match(1), model.Ortho("a"))
    bs = BoundStrand(spec, 0)
    state = RegisterState(RegisterLayout(1, 4), (bs,))
    instr = model.Instruction((spec,), "x")
    for obj in (Match(1), model.Ortho("a"), spec, bs, state, instr):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
        assert hash(obj) == hash(obj)
    # a strand built with its hash kept equals and hashes as one built plainly
    assert BoundStrand.hashed(spec, 0) == bs and hash(BoundStrand.hashed(spec, 0)) == hash(BoundStrand(spec, 0))


def test_brute_oracle_untouched():
    text = (Path(__file__).parent / "brute_oracle.py").read_bytes()
    assert hashlib.sha256(text).hexdigest() == BRUTE_ORACLE_SHA256
