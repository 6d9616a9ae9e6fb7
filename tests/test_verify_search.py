"""The confluence search, which steps the run's occupancy index with fire
and undo, against the canonical run, the from-scratch reaction functions
and the full-search oracle.

``VerifyConfluent`` searches a stubborn subset of each state's reactions,
least reaction first, so that its first branch is the canonical run and
gives the outcome.  These tests pin that the reduced search finds the final
states of the full one, that the outcome and a counterexample's ``b`` side
are the canonical run's, the index each call hands off to the next, and
the search's loop, budget and error behaviour with their precedence.
"""
from __future__ import annotations

import collections
import importlib.util
import itertools
import random
import sys
import threading
from operator import attrgetter
from pathlib import Path

import pytest

from full_search import full_search
from generators import random_instruction, random_state

from simdna import engine, model
from simdna.compiler import (
    compile_tm,
    configs_equivalent,
    decode_register,
    encode_config,
    reachable_configs,
    verify_compilation,
)
from simdna.engine import (
    Canonical,
    EngineError,
    InapplicableReactionError,
    NonConfluentError,
    StateBudgetExceededError,
    VerifyConfluent,
    run_instruction,
)
from simdna.model import (
    BoundStrand,
    Instruction,
    Match,
    Ortho,
    Program,
    RegisterLayout,
    RegisterState,
    fwd,
    rev,
    strand_violations,
)
from simdna.tm import parse_tm_spec, tm_step

L6 = RegisterLayout(1, 6)
INCUMBENT = BoundStrand(fwd(Match(3), Match(4)), 2)
# two challengers each fully displace the incumbent: two final states
RACE = Instruction(
    (fwd(Match(1), Match(2), Match(3), Match(4)), fwd(Match(3), Match(4), Match(5), Match(6))),
    "race",
)


def _own_strands(out) -> int:
    """Checks that every final strand that an applied reaction added is that
    reaction's own object (the last one to add it), and counts them."""
    added = {}
    for r in out.applied:
        added.update((bs, bs) for bs in r.added)
    own = [bs for bs in out.final_state.strands if bs in added]
    assert all(bs is added[bs] for bs in own)
    return len(own)


def _same_outcome(st, instr):
    canon = run_instruction(st, instr, Canonical())
    verified = run_instruction(st, instr, VerifyConfluent())
    assert verified.final_state == canon.final_state
    assert verified.applied == canon.applied
    assert _own_strands(verified) == _own_strands(canon)
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
    s = cp.program.layout.cells
    configs = {}
    for n in range(1, s):  # an input needs a blank cell to its right
        for bits in itertools.product("01", repeat=n):
            for c in reachable_configs(spec, "".join(bits), s)[0]:
                if not c.is_terminal and spec.defined(c.state, c.tape[c.head]):
                    configs[c] = None
    return [encode_config(spec, cp.scheme, c, s)[0] for c in configs]


def test_verified_outcome_is_canonical_on_incrementor(increment_spec, increment_compiled_s3):
    cp = increment_compiled_s3
    registers = _incrementor_registers(increment_spec, cp)
    assert len(registers) >= 10
    reactions = own = 0
    for st in registers:
        for instr in cp.program.instructions:
            out = _same_outcome(st, instr)
            reactions += len(out.applied)
            own += _own_strands(out)
            st = out.final_state
    assert reactions > 100 and own > 100


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
        cur = st
        for instr in cp.program.instructions:
            cur = run_instruction(cur, instr, VerifyConfluent()).final_state
            index = engine._handoff["last"]
            assert index.at is cur
            _assert_index_is_fresh(index, cur)
        canon = engine.run_program(st, cp.program, Canonical())
        verified = engine.run_program(st, cp.program, VerifyConfluent())
        assert verified == canon


INDEX_FIELDS = ("owner", "unbound", "bound_of", "by_spec", "strands")


def _assert_index_is_fresh(index, state):
    """Every field of the run's index equals that of an index built anew."""
    fresh = engine._Index(state)
    for field in INDEX_FIELDS:
        assert getattr(index, field) == getattr(fresh, field), field


def _chain_keeps_a_fresh_index(registers, instructions, mode) -> int:
    """Step each register through the instructions, one ``run_instruction``
    call each on the state the last call returned: after every call the
    index handed off with that state equals a fresh one.  Returns the
    number of reactions."""
    reactions = 0
    for st in registers:
        for instr in instructions:
            out = run_instruction(st, instr, mode)
            st = out.final_state
            index = engine._handoff["last"]
            assert index.at is st
            _assert_index_is_fresh(index, st)
            reactions += len(out.applied)
    return reactions


def test_search_leaves_the_run_index_equal_to_a_fresh_one(monkeypatch, increment_spec, increment_compiled_s3):
    cp = increment_compiled_s3
    registers = _incrementor_registers(increment_spec, cp)
    assert _chain_keeps_a_fresh_index(registers, cp.program.instructions, VerifyConfluent()) > 100
    # count the searches that end away from their outcome, so that the
    # index is moved back to it
    away = []
    search = engine._deadlocks

    def counted(*args):
        finals, loops, path = search(*args)
        away.append(len(finals) == 1 and tuple(path) != finals[0].applied)
        return finals, loops, path

    monkeypatch.setattr(engine, "_deadlocks", counted)
    rng = random.Random(5150)
    fired = 0
    for _ in range(600):
        st = random_state(rng)
        instr = random_instruction(rng, st)
        try:
            out = run_instruction(st, instr, VerifyConfluent(2_000))
        except EngineError:
            assert not engine._handoff  # the search stopped: its index is dropped
            continue
        _assert_index_is_fresh(engine._handoff["last"], out.final_state)
        fired += bool(out.applied)
    assert fired > 150
    assert sum(away) > 20


def test_delta_key_is_equal_exactly_when_the_state_is():
    # random walks of fires and undos on one index, as the search makes
    # them: two states of one walk have equal keys exactly when they are
    # equal, also when different orders reach them
    rng = random.Random(2718)
    revisits = reordered = 0
    for _ in range(800):
        st = random_state(rng)
        instr = random_instruction(rng, st)
        index = engine._Index(st)
        firing = engine._Firing(instr, index)
        delta, path = set(), []
        by_key, by_state = {frozenset(): (st, ())}, {st: frozenset()}
        for _ in range(16):
            if path and (not firing.live or rng.random() < 0.4):
                r = path.pop()
                firing.undo(r)
            elif firing.live:
                r = rng.choice(sorted(firing.live, key=attrgetter("key")))
                firing.fire(r)
                path.append(r)
            else:
                break
            engine._toggle(delta, r)
            key, cur = frozenset(delta), index.state()
            assert by_state.setdefault(cur, key) == key, (st, instr, path)
            if key in by_key:
                first_state, first_path = by_key[key]
                assert first_state == cur, (st, instr, path)
                revisits += 1
                reordered += first_path != tuple(path)
            else:
                by_key[key] = (cur, tuple(path))
    assert revisits > 3000 and reordered > 200


def test_canonical_run_hands_off_a_fresh_index(increment_spec, increment_compiled_s3):
    cp = increment_compiled_s3
    registers = _incrementor_registers(increment_spec, cp)
    assert _chain_keeps_a_fresh_index(registers, cp.program.instructions, Canonical()) > 100
    rng = random.Random(5151)
    for _ in range(300):
        st = random_state(rng)
        instrs = [random_instruction(rng, st) for _ in range(3)]
        try:
            _chain_keeps_a_fresh_index([st], instrs, Canonical())
        except EngineError:
            assert not engine._handoff


def test_handed_off_state_is_not_validated_again(monkeypatch, increment_spec, increment_compiled_s3):
    calls = []
    check = engine.validate_state

    def counted(st, *args):
        calls.append(st)
        return check(st, *args)

    monkeypatch.setattr(engine, "validate_state", counted)
    st = _incrementor_registers(increment_spec, increment_compiled_s3)[0]
    for mode in (Canonical(), VerifyConfluent()):
        cur = RegisterState(st.layout, st.strands)  # equal, but not the object handed off
        for instr in increment_compiled_s3.program.instructions:
            cur = run_instruction(cur, instr, mode).final_state
        engine.run_program(cur, increment_compiled_s3.program, mode)
    assert len(calls) == 2


def test_a_fresh_register_is_read_once(monkeypatch, increment_spec, increment_compiled_s3):
    # the entry check builds the placement that the run's index keeps: one
    # bound-set lookup per strand and one validate_state call, then nothing
    # more for an inert instruction
    st = _incrementor_registers(increment_spec, increment_compiled_s3)[0]
    instr = next(
        i for i in increment_compiled_s3.program.instructions
        if engine._inert(engine._Index(st), engine._species(i))
    )
    fresh = RegisterState(st.layout, st.strands)  # equal, but not the object handed off
    lookups, calls = [], []
    bound_set, check = model.bound_set, engine.validate_state

    def counted_bound_set(*args):
        lookups.append(args)
        return bound_set(*args)

    def counted_check(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(model, "bound_set", counted_bound_set)
    monkeypatch.setattr(engine, "bound_set", counted_bound_set)
    monkeypatch.setattr(engine, "validate_state", counted_check)
    assert run_instruction(fresh, instr).final_state is fresh
    assert len(lookups) == len(fresh.strands) > 0
    assert len(calls) == 1


def test_second_call_on_a_state_gives_an_equal_outcome(increment_spec, increment_compiled_s3):
    cp = increment_compiled_s3
    for st in _incrementor_registers(increment_spec, cp)[:3]:
        for instr in cp.program.instructions:
            for mode in (Canonical(), VerifyConfluent()):
                first = run_instruction(st, instr, mode)
                assert run_instruction(st, instr, mode) == first
            st = first.final_state


def test_threads_never_share_an_index():
    # threads step one shared state object, with the interpreter switching
    # threads as often as it can: an index handed off with that object and
    # taken by two calls at once would run one of them from a wrong state
    st = RegisterState(L6, (INCUMBENT,))
    displace = Instruction((fwd(Match(1), Match(2), Match(3), Match(4)),), "displace")
    expected = run_instruction(RegisterState(L6, st.strands), displace)
    wrong = []

    def worker() -> None:
        for _ in range(1500):
            run_instruction(st, Instruction(()))  # hands off an index at st
            try:
                out = run_instruction(st, displace)
            except EngineError as e:
                out = e
            if out != expected:
                wrong.append(out)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


K = 6
# K cells, each with a strand that carries an overhang and one reverse
# species that grabs every one of them: K independent detaches
DETACHABLE = fwd(Match(1), Match(2), Ortho("x"))
K_STRANDS = RegisterState(RegisterLayout(K, 4), tuple(BoundStrand(DETACHABLE, 4 * i) for i in range(K)))
K_DETACHES = Instruction((rev(Match(1), Match(2), Ortho("x")),), "detach-all")
# and K independent attaches on the emptied register
K_ATTACHES = Instruction((fwd(Match(2), Match(3)),), "attach-all")


def test_reduced_budget_boundary():
    # the search takes independent reactions in one order: a chain of K + 1
    # states, where the full search needs every subset, 2^K
    empty = RegisterState(K_STRANDS.layout, ())
    for st, instr in ((K_STRANDS, K_DETACHES), (empty, K_ATTACHES)):
        assert _reachable(st, instr) == 2**K
        out = run_instruction(st, instr, VerifyConfluent(max_states=K + 1))
        assert len(out.applied) == K
        with pytest.raises(StateBudgetExceededError) as err:
            run_instruction(st, instr, VerifyConfluent(max_states=K))
        assert err.value.budget == K
        assert len(full_search(st, instr, 2**K)) == 1
        with pytest.raises(StateBudgetExceededError):
            full_search(st, instr, 2**K - 1)


def _count_search_calls(monkeypatch) -> collections.Counter:
    """Counts the calls of ``_Firing.fire`` and ``_Firing.undo``, and the
    states built (``RegisterState.presorted``; ``_Index.state`` builds only
    where the index has moved), from here on."""
    calls = collections.Counter()

    def counted(name, method):
        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)

        return wrapper

    monkeypatch.setattr(engine._Firing, "fire", counted("fire", engine._Firing.fire))
    monkeypatch.setattr(engine._Firing, "undo", counted("undo", engine._Firing.undo))
    monkeypatch.setattr(RegisterState, "presorted", classmethod(counted("build", RegisterState.presorted.__func__)))
    return calls


def test_verified_run_fires_and_builds_each_state_once(monkeypatch):
    # the first branch of the search is the canonical run and gives the
    # outcome: no successor is probed, no reaction is fired again or undone,
    # and only the final state is built
    calls = _count_search_calls(monkeypatch)
    empty = RegisterState(K_STRANDS.layout, ())
    for st, instr in ((K_STRANDS, K_DETACHES), (empty, K_ATTACHES)):
        calls.clear()
        out = run_instruction(st, instr, VerifyConfluent())
        assert len(out.applied) == K
        assert calls == {"fire": K, "build": 1}


def test_failed_search_leaves_no_stale_index():
    # the search stops with the index K - 1 detaches away from its state;
    # a rerun on that state object must not start from there
    st = run_instruction(K_STRANDS, Instruction(())).final_state
    assert engine._handoff["last"].at is st
    with pytest.raises(StateBudgetExceededError):
        run_instruction(st, K_DETACHES, VerifyConfluent(max_states=K))
    rerun = run_instruction(st, K_DETACHES)
    assert rerun == run_instruction(RegisterState(st.layout, st.strands), K_DETACHES)
    assert rerun.final_state.strands == ()


def _papermachine():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "papermachine.py"
    spec = importlib.util.spec_from_file_location("papermachine", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _paper_pass():
    """t = 32, d = 72, s = 4: the machine, its program, and the register of
    the left-moving transition whose sublist detaches 32 strands in one
    instruction and attaches 33 in the next, with its configuration."""
    pm = _papermachine()
    spec = parse_tm_spec(pm.machine_document(pm.MACHINE_SEED))
    cp = compile_tm(spec, 4)
    assert (cp.scheme.t, cp.scheme.d) == (32, 72)
    config = pm.left_move_config(spec, list(cp.scheme.transition_order), 4, random.Random(0))
    return spec, cp, config, encode_config(spec, cp.scheme, config, 4)[0]


def test_paper_scale_pass_verifies_under_the_default_budget():
    spec, cp, config, st = _paper_pass()
    widest = 0
    for instr in cp.program.instructions:
        out = run_instruction(st, instr, VerifyConfluent())
        widest = max(widest, len(out.applied))
        st = out.final_state
    assert widest >= 32
    assert configs_equivalent(spec, tm_step(spec, config), decode_register(spec, cp.scheme, st))


def test_paper_pass_search_never_branches(monkeypatch):
    # every reacting instruction of the pass has one reaction order to
    # search: the search fires what the canonical run fires, undoes
    # nothing and builds one state, the outcome
    _, cp, _, st = _paper_pass()
    calls = _count_search_calls(monkeypatch)
    applied = reacting = 0
    for instr in cp.program.instructions:
        out = run_instruction(st, instr, VerifyConfluent(500))
        applied += len(out.applied)
        reacting += bool(out.applied)
        st = out.final_state
    assert reacting >= 10 and applied > 100
    assert calls == {"fire": applied, "build": reacting}


@pytest.mark.parametrize("mode", [Canonical(), VerifyConfluent(500)], ids=["canonical", "verified"])
def test_paper_pass_searches_no_flank_without_a_cooperative_pair(monkeypatch, mode):
    # the pass fires no cooperative reaction, and no incumbent it flanks
    # has both neighbours unbound: each reacting instruction's first search
    # and each step search once, and no flank is completed over its
    # incumbent's span (which took 102 more searches)
    _, cp, _, st = _paper_pass()
    searches = []
    candidates = engine._candidates
    monkeypatch.setattr(engine, "_candidates", lambda *args: searches.append(args) or candidates(*args))
    applied = reacting = 0
    for instr in cp.program.instructions:
        out = run_instruction(st, instr, mode)
        applied += len(out.applied)
        reacting += bool(out.applied)
        st = out.final_state
    assert (reacting, applied) == (13, 179)
    assert len(searches) == reacting + applied == 192


def test_paper_machine_verifies_every_transition():
    # the one-step claim at paper scale: every transition of the t = 32
    # machine, three seeded configurations each, verified under a budget of
    # 500 states
    pm = _papermachine()
    spec = parse_tm_spec(pm.machine_document(pm.MACHINE_SEED))
    cp = compile_tm(spec, 4)
    rng = random.Random(0)
    configs = [pm.steppable_config(spec, key, 4, rng) for key in cp.scheme.transition_order for _ in range(3)]
    assert len(configs) == 3 * len(spec.transitions) == 96
    assert verify_compilation(spec, cp, configs, VerifyConfluent(500)) == []


@pytest.mark.parametrize("mode", [Canonical(), VerifyConfluent(500)], ids=["canonical", "verified"])
def test_inert_instructions_share_one_outcome_per_state(monkeypatch, mode):
    # an inert instruction returns the outcome its index keeps for its entry
    # state: a pass builds one outcome per reacting instruction and one per
    # state that inert instructions meet, not one per instruction
    _, cp, _, st = _paper_pass()
    built = []
    outcome = engine.InstructionOutcome
    monkeypatch.setattr(engine, "InstructionOutcome", lambda *args: built.append(args) or outcome(*args))
    met = []  # the entry states of inert instructions, kept alive for their ids
    reacting = 0
    for instr in cp.program.instructions:
        inert = engine._inert(engine._Index(st), engine._species(instr))
        out = run_instruction(st, instr, mode)
        if inert:
            assert out.applied == () and out.final_state is st
            met.append(st)
        reacting += bool(out.applied)
        st = out.final_state
    assert len(met) > 500 and reacting >= 10
    assert len(built) == reacting + len({id(x) for x in met})


def _budget_boundary(st, instr):
    """The full-search oracle stores ``n`` states: it passes at budget n and
    raises at n - 1."""
    n = _reachable(st, instr)
    full_search(st, instr, max_states=n)
    with pytest.raises(StateBudgetExceededError) as err:
        full_search(st, instr, max_states=n - 1)
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
    n = _reachable(st, RACE)
    with pytest.raises(NonConfluentError):
        run_instruction(st, RACE, VerifyConfluent(max_states=n))
    assert len(full_search(st, RACE, n)) == 2
    assert _budget_boundary(st, RACE) >= 3


def test_reduced_search_finds_the_final_states_of_the_full_one(increment_spec, increment_compiled_s3):
    cp = increment_compiled_s3
    compared = 0
    for st in _incrementor_registers(increment_spec, cp):
        for instr in cp.program.instructions:
            assert set(_reduced_finals(st, instr)) == set(full_search(st, instr))
            st = run_instruction(st, instr).final_state
            compared += 1
    assert compared > 1000
    rng = random.Random(6160)
    refuted = 0
    for _ in range(1500):
        st = random_state(rng)
        instr = random_instruction(rng, st)
        try:
            full = full_search(st, instr, 2_000)
        except StateBudgetExceededError:
            continue
        assert set(_reduced_finals(st, instr)) == set(full), (st, instr)
        refuted += len(full) > 1
    assert refuted > 20


def _parts_hold_every_reaction(st, instr, max_states: int = 2_000) -> int | None:
    """Draws ``_parts`` at ``st`` and requires of every reaction of every
    state reachable from it, stepped from scratch as ``full_search`` does,
    that its least position is labelled and that the bound sets of the
    strands it adds and removes lie in one part.  Returns the number of
    reactions checked, or None past ``max_states`` states."""
    parts = engine._parts(engine._Index(st), engine._species(instr))
    layout = st.layout
    seen = {st}
    todo = [st]
    checked = 0
    while todo:
        cur = todo.pop()
        for r in engine.applicable_reactions(cur, instr):
            least = engine._order_key(r, layout)[0]
            footprint = set().union(*(bs.bound_positions(layout) for bs in (*r.added, *r.removed)))
            assert least in parts, (st, instr, r)
            assert {parts.get(p) for p in footprint} == {parts[least]}, (st, instr, r)
            checked += 1
            nxt = engine.apply_reaction(cur, r)
            if nxt not in seen:
                if len(seen) >= max_states:
                    return None
                seen.add(nxt)
                todo.append(nxt)
    return checked


def test_no_reaction_spans_two_parts(increment_spec, increment_compiled_s3, increment_compiled_s4):
    checked = 0
    for cp in (increment_compiled_s3, increment_compiled_s4):
        for st in _incrementor_registers(increment_spec, cp):
            for instr in cp.program.instructions:
                checked += _parts_hold_every_reaction(st, instr)
                st = run_instruction(st, instr).final_state
    assert checked > 10_000
    rng = random.Random(2026)
    drawn = 0
    for _ in range(1500):
        st = random_state(rng)
        found = _parts_hold_every_reaction(st, random_instruction(rng, st))
        drawn += bool(found)
    assert drawn > 500


def _reduced_finals(st, instr):
    firing = engine._Firing(instr, engine._Index(st))
    finals, _loops, _path = engine._deadlocks(firing, 100_000, instr.label)
    return {out.final_state: out.applied for out in finals}


@pytest.fixture(scope="module")
def seeded_refutations():
    """The nonconfluent cases of 6,000 seeded random ones under a budget of
    2,000 states: (state, instruction, error, canonical outcome), the
    outcome None where the canonical run loops."""
    rng = random.Random(777)
    found = []
    for _ in range(6000):
        st = random_state(rng)
        instr = random_instruction(rng, st)
        try:
            run_instruction(st, instr, VerifyConfluent(2_000))
        except NonConfluentError as e:
            try:
                canon = run_instruction(st, instr, Canonical())
            except EngineError as loop:
                assert "reaction loop" in str(loop)
                canon = None
            found.append((st, instr, e, canon))
        except EngineError:
            pass
    return found


def test_counterexample_b_is_the_canonical_run(seeded_refutations):
    st = RegisterState(L6, (INCUMBENT,))
    with pytest.raises(NonConfluentError) as race:
        run_instruction(st, RACE, VerifyConfluent())
    cases = [(st, RACE, race.value, run_instruction(st, RACE, Canonical()))] + seeded_refutations
    ends = 0
    for st, instr, err, canon in cases:
        if canon is None:
            continue
        assert (err.state_b, err.order_b) == (canon.final_state, canon.applied), (st, instr)
        ends += 1
    assert ends == 675


def test_nonconfluence_wins_over_a_loop_and_a_budget_over_both(seeded_refutations):
    looping = [(st, instr) for st, instr, _, canon in seeded_refutations if canon is None]
    assert len(looping) == 27
    # the first of them: the reduced search stores 12 states
    st, instr = looping[0]
    with pytest.raises(NonConfluentError):
        run_instruction(st, instr, VerifyConfluent(max_states=12))
    with pytest.raises(StateBudgetExceededError):
        run_instruction(st, instr, VerifyConfluent(max_states=11))


def test_search_errors_name_the_instruction():
    st = RegisterState(L6, (INCUMBENT,))
    with pytest.raises(NonConfluentError) as err:
        run_instruction(st, RACE, VerifyConfluent())
    assert err.value.label == "race" and "'race'" in str(err.value)
    assert not hasattr(err.value, "where")
    bare = str(err.value)
    with pytest.raises(StateBudgetExceededError) as err:
        run_instruction(st, RACE, VerifyConfluent(max_states=1))
    assert err.value.label == "race" and "'race'" in str(err.value)
    # run_program names the instruction's number in the program, from 1, in
    # ``where``; the message stays the instruction's own
    prog = Program(L6, (Instruction((), "noop"), RACE))
    with pytest.raises(NonConfluentError) as err:
        engine.run_program(st, prog, VerifyConfluent())
    assert err.value.where == ("instruction 2",) and str(err.value) == bare
    with pytest.raises(StateBudgetExceededError) as err:
        engine.run_program(st, prog, VerifyConfluent(max_states=1))
    assert err.value.where == ("instruction 2",) and "instruction 2" not in str(err.value)
    loop = Instruction((fwd(Match(2), Match(3), Match(4)), fwd(Match(3), Match(4), Match(5))), "loop")
    for mode in (Canonical(), VerifyConfluent()):
        with pytest.raises(EngineError, match="^reaction loop") as err:
            engine.run_program(st, Program(L6, (Instruction(()), loop)), mode)
        assert err.value.where == ("instruction 2",)
        assert type(err.value) is EngineError


def test_run_many_raises_the_registers_own_error():
    """``run_many`` raises the failing run's own error, with the register's
    index in ``states`` before the instruction's number."""
    covered = RegisterState(L6, (BoundStrand(fwd(*map(Match, range(1, 7))), 0),))  # RACE is inert on it
    st = RegisterState(L6, (INCUMBENT,))
    prog = Program(L6, (Instruction((), "noop"), RACE))
    with pytest.raises(NonConfluentError) as err:
        engine.run_many([covered, st], prog, VerifyConfluent())
    assert err.value.where == ("register 1", "instruction 2")
    assert err.value.label == "race"


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


def test_strand_violations_of_a_strand_that_keeps_the_invariants_is_empty():
    index = engine._Index(RegisterState(L6, (INCUMBENT,)))
    strand = BoundStrand(fwd(Match(5), Match(6), Ortho("a")), 4)
    assert strand_violations(strand, strand.bound_positions(L6), dict(index.owner)) == []


@pytest.mark.parametrize(
    "strand, wording",
    [
        (BoundStrand(rev(Match(5), Match(6)), 4), ["reverse strand bound at offset 4"]),
        (
            BoundStrand(fwd(Match(6), Ortho("a")), 5),
            ["strand at offset 5 bound by 1 domain(s) (positions [5]); needs at least two"],
        ),
        (BoundStrand(fwd(Match(4), Match(5)), 3), ["position 3 bound by two strands (offsets 2 and 3)"]),
    ],
    ids=["reverse", "one-position", "overlap"],
)
def test_index_apply_words_what_it_rejects_as_strand_violations(strand, wording):
    index = engine._Index(RegisterState(L6, (INCUMBENT,)))
    bound = strand.bound_positions(L6)
    assert strand_violations(strand, bound, dict(index.owner)) == wording
    with pytest.raises(InapplicableReactionError) as err:
        index.apply((), (strand,))
    assert str(err.value) == f"binding {strand} makes an invalid state: {'; '.join(wording)}"
