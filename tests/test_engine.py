"""Rule-level micro-tests on hand-built states."""
from __future__ import annotations

import pytest

from simdna import engine
from simdna.engine import (
    Attach,
    Canonical,
    Cooperative,
    Detach,
    Displace,
    EngineError,
    NonConfluentError,
    StateBudgetExceededError,
    ToeholdExchange,
    VerifyConfluent,
    applicable_reactions,
    apply_reaction,
    run_instruction,
    run_many,
    run_program,
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
    validate_state,
)

L6 = RegisterLayout(1, 6)


def state(layout, *strands):
    return RegisterState(layout, tuple(strands))


def kinds(reactions):
    return {type(r) for r in reactions}


def test_attach_needs_two_consecutive():
    st = state(L6)
    ins = Instruction((fwd(Match(3), Match(4)),))
    rs = applicable_reactions(st, ins)
    assert rs == {Attach(fwd(Match(3), Match(4)), 2)}

    lone = Instruction((fwd(Match(3)),))
    assert applicable_reactions(st, lone) == set()


def test_attach_blocked_by_partial_occupancy():
    # positions 1,2 free but the alignment also matches an occupied position
    # while the incumbent would keep two bound domains: nothing fires
    st = state(L6, BoundStrand(fwd(Match(4), Match(5), Match(6)), 3))
    ins = Instruction((fwd(Match(2), Match(3), Match(4)),))
    assert applicable_reactions(st, ins) == set()


def test_two_domain_incumbent_exchanged_via_one_domain_cover():
    # covering one domain of a two-domain strand leaves a single bound
    # domain, which is below stability: that is a toehold exchange
    inc = BoundStrand(fwd(Match(5), Match(6)), 4)
    st = state(L6, inc)
    challenger = fwd(Match(3), Match(4), Match(5))
    rs = applicable_reactions(st, Instruction((challenger,)))
    assert rs == {ToeholdExchange(inc, challenger, 2)}


def test_empty_instruction_no_reactions():
    st = state(L6, BoundStrand(fwd(Match(1), Match(2)), 0))
    assert applicable_reactions(st, Instruction(())) == set()


def test_full_displacement():
    inc = BoundStrand(fwd(Match(2), Match(3)), 1)
    st = state(L6, inc)
    challenger = fwd(Match(1), Match(2), Match(3))
    rs = applicable_reactions(st, Instruction((challenger,)))
    assert rs == {Displace(inc, challenger, 0)}
    nxt = apply_reaction(st, rs.pop())
    assert nxt.strands == (BoundStrand(challenger, 0),)


def test_toehold_exchange_spec_example():
    # incumbent on domains 2..5, challenger carries domains 1..4 and the
    # position of domain 1 is unbound
    inc = BoundStrand(fwd(Match(2), Match(3), Match(4), Match(5)), 1)
    st = state(L6, inc)
    challenger = fwd(Match(1), Match(2), Match(3), Match(4))
    rs = applicable_reactions(st, Instruction((challenger,)))
    assert rs == {ToeholdExchange(inc, challenger, 0)}
    nxt = apply_reaction(st, rs.pop())
    assert nxt.strands == (BoundStrand(challenger, 0),)
    # the vacated outermost position (domain 5) is unbound again
    assert 4 not in nxt.strands[0].bound_positions(L6)


def test_partial_displacement_is_not_a_reaction():
    # challenger would leave the incumbent with two bound domains: nothing fires
    inc = BoundStrand(fwd(Match(2), Match(3), Match(4), Match(5)), 1)
    st = state(L6, inc)
    rs = applicable_reactions(st, Instruction((fwd(Match(1), Match(2)),)))
    assert rs == set()


def test_exchange_requires_missing_outermost_only():
    # challenger missing an inner domain cannot walk through the incumbent
    inc = BoundStrand(fwd(Match(2), Match(3), Match(4)), 1)
    st = state(L6, inc)
    challenger = fwd(Match(1), Match(2), Ortho("gap"), Match(4))
    assert applicable_reactions(st, Instruction((challenger,))) == set()


def test_detach_requires_full_cover_and_overhang():
    plug = BoundStrand(fwd(Match(3), Match(4), Ortho("pre")), 2)
    plain = BoundStrand(fwd(Match(1), Match(2)), 0)
    st = state(L6, plug, plain)
    remover = rev(Match(3), Match(4), Ortho("pre"))
    rs = applicable_reactions(st, Instruction((remover,)))
    assert rs == {Detach(plug, remover)}
    # bare [M,M] covers a subsequence of the remover but has no overhang
    assert plain not in {r.target for r in rs}
    # wrong tag: no cross-reaction
    other = rev(Match(3), Match(4), Ortho("post"))
    assert applicable_reactions(st, Instruction((other,))) == set()
    nxt = apply_reaction(st, rs.pop())
    assert nxt.strands == (plain,)


def test_cooperative_displacement():
    # four-domain incumbent; each flank covers half (leaving two, so neither
    # displaces alone) and they jointly cover everything
    inc = BoundStrand(fwd(Match(2), Match(3), Match(4), Match(5)), 1)
    st = state(L6, inc)
    left = fwd(Match(1), Match(2), Match(3))
    right = fwd(Match(4), Match(5), Match(6))
    rs = applicable_reactions(st, Instruction((left, right)))
    assert rs == {Cooperative(inc, left, 0, right, 3)}
    nxt = apply_reaction(st, rs.pop())
    assert len(nxt.strands) == 2
    # alone, neither flank can do anything
    assert applicable_reactions(st, Instruction((left,))) == set()
    assert applicable_reactions(st, Instruction((right,))) == set()


def test_cooperative_needs_joint_full_cover():
    inc = BoundStrand(fwd(Match(2), Match(3), Match(4), Match(5)), 1)
    st = state(L6, inc)
    left = fwd(Match(1), Match(2))  # covers one domain
    right = fwd(Match(5), Match(6))  # covers one domain; middle two uncovered
    assert applicable_reactions(st, Instruction((left, right))) == set()


def test_noop_self_displacement_excluded():
    spec = fwd(Match(3), Match(4))
    st = state(RegisterLayout(1, 6), BoundStrand(spec, 2), BoundStrand(fwd(Match(5), Match(6)), 4))
    # same species over its own footprint with a free toehold elsewhere: the
    # only candidate "displacement" recreates the identical state
    rs = applicable_reactions(st, Instruction((spec,)))
    assert all(not isinstance(r, Displace) for r in rs)


@pytest.mark.parametrize(
    "r",
    [
        Attach(fwd(Match(1), Match(2)), 0),
        Displace(BoundStrand(fwd(Match(3), Match(4)), 2), fwd(Match(2), Match(3), Match(4)), 1),
        ToeholdExchange(BoundStrand(fwd(Match(2), Match(3)), 1), fwd(Match(1), Match(2)), 0),
        Cooperative(BoundStrand(fwd(Match(3), Match(4)), 2), fwd(Match(2), Match(3)), 1, fwd(Match(4), Match(5)), 3),
        Detach(BoundStrand(fwd(Match(3), Ortho("x")), 2), rev(Match(3), Ortho("x"))),
    ],
    ids=lambda r: r.rule,
)
def test_a_reaction_gives_the_same_strands_on_every_read(r):
    assert r.added is r.added and r.removed is r.removed


def test_run_instruction_fixed_point_and_wash():
    inc = BoundStrand(fwd(Match(2), Match(3), Match(4), Match(5)), 1)
    st = state(L6, inc)
    challenger = fwd(Match(1), Match(2), Match(3), Match(4))
    out = run_instruction(st, Instruction((challenger,)))
    assert applicable_reactions(out.final_state, Instruction((challenger,))) == set()
    assert [bs for r in out.applied for bs in r.removed] == [inc]  # washed away
    assert [type(r) for r in out.applied] == [ToeholdExchange]


def test_cascade_two_reactions():
    # exchange opens a toehold that lets a second strand displace
    a = BoundStrand(fwd(Match(2), Match(3)), 1)
    b = BoundStrand(fwd(Match(4), Match(5)), 3)
    st = state(L6, a, b)
    first = fwd(Match(1), Match(2))  # exchange a, vacates position of 3
    second = fwd(Match(3), Match(4), Match(5))  # then displaces b
    out = run_instruction(st, Instruction((first, second)))
    assert len(out.applied) == 2
    assert {type(r) for r in out.applied} == {ToeholdExchange, Displace}


def test_verify_confluent_agrees_with_canonical():
    a = BoundStrand(fwd(Match(2), Match(3)), 1)
    st = state(L6, a)
    ins = Instruction((fwd(Match(1), Match(2)), fwd(Match(4), Match(5))))
    canon = run_instruction(st, ins, Canonical())
    verified = run_instruction(st, ins, VerifyConfluent())
    assert canon.final_state == verified.final_state


def test_nonconfluent_detected():
    # two challengers can each fully displace the same incumbent, leaving
    # different final coverage; each product resists the other species
    inc = BoundStrand(fwd(Match(3), Match(4)), 2)
    st = state(L6, inc)
    left = fwd(Match(1), Match(2), Match(3), Match(4))
    right = fwd(Match(3), Match(4), Match(5), Match(6))
    ins = Instruction((left, right))
    with pytest.raises(NonConfluentError) as err:
        run_instruction(st, ins, VerifyConfluent())
    assert err.value.state_a != err.value.state_b
    assert err.value.order_a and err.value.order_b


def test_livelock_is_reported():
    # three-domain challengers fighting over a two-domain incumbent never
    # reach a fixed point; the engine reports it instead of spinning
    inc = BoundStrand(fwd(Match(3), Match(4)), 2)
    st = state(L6, inc)
    ins = Instruction((fwd(Match(2), Match(3), Match(4)), fwd(Match(3), Match(4), Match(5))))
    with pytest.raises(EngineError):
        run_instruction(st, ins, Canonical())


@pytest.mark.parametrize("cells", [1, 2, 5, 12])
def test_loop_after_a_prefix_is_reported(monkeypatch, cells):
    # every cell but the last is blocked over domains 2-5; junction strands
    # bind domain 6 and the next cell's domain 1 from left to right, then the
    # last cell's challengers attach and take it in turns for ever
    layout = RegisterLayout(cells, 6)
    blocker = fwd(Match(2), Match(3), Match(4), Match(5))
    st = state(layout, *(BoundStrand(blocker, 6 * c + 1) for c in range(cells - 1)))
    junction = fwd(Match(6), Match(1))
    ins = Instruction((junction, fwd(Match(2), Match(3), Match(4)), fwd(Match(3), Match(4), Match(5))))
    prefix, period = cells, 2  # the junctions and the first attach, then the cycle
    limit = 2 * max(prefix, period) + period  # Brent's bound on the steps to see it
    fired = []
    fire = engine._Firing.fire

    def counted(self, r):
        fired.append(r)
        assert len(fired) <= limit, "the reaction loop went unreported"
        fire(self, r)

    monkeypatch.setattr(engine._Firing, "fire", counted)
    with pytest.raises(EngineError, match="reaction loop") as err:
        run_instruction(st, ins, Canonical())
    assert type(err.value) is EngineError
    assert [r.spec for r in fired[: cells - 1]] == [junction] * (cells - 1)
    assert isinstance(fired[cells - 1], Attach)
    assert all(isinstance(r, ToeholdExchange) for r in fired[prefix:])
    assert len(fired) >= prefix + period  # the first revisit


def test_canonical_run_builds_its_final_state_once(monkeypatch):
    calls = []
    build = engine._Index.state

    def counted(self):
        calls.append(self)
        return build(self)

    monkeypatch.setattr(engine._Index, "state", counted)
    st = state(L6)
    ins = Instruction((fwd(Match(1), Match(2)), fwd(Match(4), Match(5))))
    out = run_instruction(st, ins, Canonical())
    assert len(out.applied) == 2 and len(calls) == 1
    calls.clear()
    again = run_instruction(out.final_state, ins, Canonical())
    assert again.applied == () and again.final_state is out.final_state
    assert calls == []


def test_state_budget():
    inc = BoundStrand(fwd(Match(3), Match(4)), 2)
    st = state(L6, inc)
    ins = Instruction((fwd(Match(1), Match(2), Match(3), Match(4)), fwd(Match(3), Match(4), Match(5), Match(6))))
    with pytest.raises(StateBudgetExceededError):
        run_instruction(st, ins, VerifyConfluent(max_states=1))


def test_run_program_identity_for_empty():
    st = state(L6, BoundStrand(fwd(Match(1), Match(2)), 0))
    prog = Program(L6, ())
    final, outcomes = run_program(st, prog)
    assert final == st and outcomes == ()


def test_run_program_refuses_a_bound_reverse_strand():
    st = state(L6, BoundStrand(rev(Match(1), Match(2)), 0))
    assert validate_state(st) == ["reverse strand bound at offset 0"]
    with pytest.raises(EngineError) as err:
        run_program(st, Program(L6, ()))
    assert str(err.value) == "invalid register: reverse strand bound at offset 0"


def test_run_program_layout_mismatch():
    st = state(L6)
    prog = Program(RegisterLayout(2, 6), ())
    with pytest.raises(EngineError):
        run_program(st, prog)


def test_run_many_empty_and_determinism():
    assert run_many([], Program(L6, ())) == []
    st = state(L6, BoundStrand(fwd(Match(2), Match(3)), 1))
    ins = Instruction((fwd(Match(1), Match(2)),))
    prog = Program(L6, (ins,))
    results = run_many([st, st, st], prog)
    finals = {r[0] for r in results}
    assert len(finals) == 1


def test_monotone_species_property():
    """Final strands are initial strands plus instruction species."""
    import random

    from generators import random_instruction, random_state

    rng = random.Random(1331)
    for _ in range(300):
        st = random_state(rng)
        ins = random_instruction(rng, st)
        try:
            out = run_instruction(st, ins)
        except EngineError:
            continue  # livelocking hand-rolled instruction: no fixed point
        allowed = set(st.strands) | {
            BoundStrand(sp, off)
            for sp in ins.species
            for off in range(-len(sp.tokens), st.layout.total_positions + 1)
        }
        assert set(out.final_state.strands) <= allowed


def test_bound_sum_never_exceeds_register():
    import random

    from generators import random_state

    rng = random.Random(2024)
    for _ in range(300):
        st = random_state(rng)
        total = sum(len(b.bound_positions(st.layout)) for b in st.strands)
        assert total <= st.layout.total_positions


def test_intermediate_states_stay_valid():
    from simdna.model import validate_state

    a = BoundStrand(fwd(Match(2), Match(3)), 1)
    b = BoundStrand(fwd(Match(4), Match(5)), 3)
    st = state(L6, a, b)
    ins = Instruction((fwd(Match(1), Match(2)), fwd(Match(3), Match(4), Match(5))))
    cur = st
    while True:
        rs = applicable_reactions(cur, ins)
        if not rs:
            break
        cur = apply_reaction(cur, min(rs, key=lambda r: engine._order_key(r, cur.layout)))
        assert validate_state(cur) == []
