from __future__ import annotations

import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from generators import random_state, random_tokens

from simdna.engine import InapplicableReactionError, _Index
from simdna.model import (
    BoundStrand,
    Instruction,
    Match,
    Occupancy,
    Orientation,
    Ortho,
    Program,
    RegisterLayout,
    RegisterState,
    SchemaError,
    StrandSpec,
    bound_set,
    fwd,
    parse_program,
    parse_register,
    register_doc,
    register_from_doc,
    rev,
    serialize_program,
    serialize_register,
    strand_spec,
    strand_violations,
    token_key,
    validate_state,
)


def test_layout_domain_mapping():
    layout = RegisterLayout(3, 6)
    assert layout.total_positions == 18
    for p in range(18):
        assert layout.domain_at(p) == p % 6 + 1
        if p + 6 < 18:
            assert layout.domain_at(p) == layout.domain_at(p + 6)


def test_layout_validation():
    with pytest.raises(ValueError):
        RegisterLayout(0, 6)
    with pytest.raises(ValueError):
        RegisterLayout(2, 1)


def test_bound_positions_skip_mismatch_and_overhang():
    layout = RegisterLayout(1, 6)
    spec = fwd(Match(3), Ortho("x"), Match(5), Match(1))
    bs = BoundStrand(spec, 2)  # tokens over positions 2,3,4,5
    # position 2 carries domain 3 (bind), 3 is Ortho, 4 carries domain 5
    # (bind), 5 carries domain 6 but the token wants 1 (mismatch)
    assert bs.bound_positions(layout) == {2, 4}


def test_bound_set_is_the_token_by_token_definition():
    rng = random.Random(72)
    for _ in range(500):
        layout = RegisterLayout(rng.randint(1, 3), rng.randint(2, 6))
        n = layout.total_positions
        tokens = random_tokens(rng, layout.domains_per_cell, rng.randint(1, 8), runny=rng.random() < 0.5)
        spec = StrandSpec(tokens)
        # offsets that put tokens off either register end
        for offset in range(-len(tokens), n + 1):
            expected = set()
            for j, tok in enumerate(tokens):
                p = offset + j
                if type(tok) is Match and 0 <= p < n and p % layout.domains_per_cell + 1 == tok.domain:
                    expected.add(p)
            assert bound_set(layout, spec, offset) == expected
            assert BoundStrand(spec, offset).bound_positions(layout) == expected
    assert bound_set(RegisterLayout(1, 6), fwd(Ortho("x"), Match(1), Match(2)), -1) == {0, 1}
    assert bound_set(RegisterLayout(1, 6), fwd(Match(6), Ortho("x"), Match(2)), 5) == {5}


def test_validate_state_empty_is_clean():
    state = RegisterState(RegisterLayout(1, 2), ())
    assert validate_state(state) == []


def test_validate_state_flags_instability():
    layout = RegisterLayout(1, 4)
    weak = BoundStrand(fwd(Match(2)), 1)
    state = RegisterState(layout, (weak,))
    problems = validate_state(state)
    assert len(problems) == 1 and "at least two" in problems[0]


def test_validate_state_flags_overlap():
    layout = RegisterLayout(1, 4)
    a = BoundStrand(fwd(Match(1), Match(2)), 0)
    b = BoundStrand(fwd(Match(2), Match(3)), 1)
    state = RegisterState(layout, (a, b))
    assert any("two strands" in v for v in validate_state(state))


def _reference_violations(state: RegisterState) -> list[str]:
    """``validate_state`` as one test per strand, in state order, each
    beside the first owners of the positions before it."""
    violations = []
    seen: dict[int, BoundStrand] = {}
    for bs in state.strands:
        bound = bs.bound_positions(state.layout)
        violations += strand_violations(bs, bound, seen)
        for p in bound:
            seen.setdefault(p, bs)
    return violations


def _broken(rng: random.Random, st: RegisterState) -> RegisterState:
    """``st`` with up to two of: a strand turned reverse, a strand that
    binds fewer than two positions, a strand over an owned position (a copy
    of its owner, or a new one), and a strand hanging off an end."""
    layout, strands = st.layout, list(st.strands)
    n, d = layout.total_positions, layout.domains_per_cell
    for _ in range(rng.randint(0, 2)):
        kind = rng.choice(("reverse", "short", "overlap", "hang"))
        if kind == "reverse" and strands:
            i = rng.randrange(len(strands))
            strands[i] = BoundStrand(StrandSpec(strands[i].spec.tokens, Orientation.REVERSE), strands[i].offset)
        elif kind == "short":
            tokens = random_tokens(rng, d, rng.randint(1, 3), runny=False)
            for _attempt in range(20):  # fewer than two positions
                bs = BoundStrand(StrandSpec(tokens), rng.randint(-3, n))
                if len(bs.bound_positions(layout)) < 2:
                    strands.append(bs)
                    break
        elif kind == "overlap" and strands:
            bs = rng.choice(strands)
            owned = sorted(bs.bound_positions(layout))
            if not owned or rng.random() < 0.5:
                strands.append(bs)
            else:  # two positions from an owned one on, or up to it
                q = rng.choice(owned) - rng.randint(0, 1)
                tokens = tuple(Match(layout.domain_at(p)) for p in (q, q + 1) if layout.contains(p))
                strands.append(BoundStrand(StrandSpec(tokens), q))
        else:  # hanging off the left or the right end, bound or not
            tokens = random_tokens(rng, d, rng.randint(2, 5))
            off = rng.choice((rng.randint(-len(tokens) + 1, -1), rng.randint(n - len(tokens) + 1, n - 1)))
            strands.append(BoundStrand(StrandSpec(tokens), off))
    return RegisterState(layout, tuple(strands))


def test_batch_verdict_words_what_the_per_strand_check_words():
    rng = random.Random(2105)
    only = {"reverse": 0, "needs at least two": 0, "bound by two strands": 0}
    valid = 0
    for _ in range(3000):
        st = _broken(rng, random_state(rng))
        expected = _reference_violations(st)
        placement = Occupancy(st.layout)
        assert validate_state(st, placement) == expected, st
        kinds = {k for k in only if any(k in v for v in expected)}
        if len(kinds) == 1:
            only[kinds.pop()] += 1
        if not expected:
            valid += 1
            layout = st.layout
            assert placement.bound_of == {bs: bs.bound_positions(layout) for bs in st.strands}
            assert placement.owner == {p: bs for bs in st.strands for p in bs.bound_positions(layout)}
    # each clause of the verdict is the only one that fails in many registers
    assert min(only.values()) > 150 and valid > 500, (only, valid)


def test_state_canonical_order_and_hash():
    layout = RegisterLayout(1, 4)
    a = BoundStrand(fwd(Match(1), Match(2)), 0)
    b = BoundStrand(fwd(Match(3), Match(4)), 2)
    assert RegisterState(layout, (a, b)) == RegisterState(layout, (b, a))
    assert hash(RegisterState(layout, (a, b))) == hash(RegisterState(layout, (b, a)))


def test_instruction_dedupes_species():
    s = fwd(Match(1), Match(2))
    ins = Instruction((s, s, fwd(Match(3), Match(4))))
    assert len(ins.species) == 2
    # the same species in another order, specs built apart: the same tuple
    again = Instruction((fwd(Match(3), Match(4)), s, fwd(Match(1), Match(2))))
    assert again.species == ins.species


def test_equal_instructions_built_apart_are_equal_and_hash_equally():
    def build():
        return Instruction((fwd(Match(3), Match(4)), rev(Ortho("a"), Match(1)), fwd(Match(1), Match(2))), "x")

    a, b = build(), build()
    assert a is not b and a == b
    assert hash(a) == hash(b) == hash((a.species, a.label))  # the frozen dataclass's hash
    assert hash(a) == hash(b)  # read back from the kept slot
    assert a != Instruction(a.species, "y")
    assert len({a, b}) == 1


def test_kept_has_ortho_is_the_token_scan():
    rng = random.Random(77)
    for _ in range(500):
        tokens = random_tokens(rng, rng.randint(2, 8), rng.randint(1, 8))
        orientation = rng.choice(list(Orientation))
        spec = StrandSpec(tokens, orientation)
        scan = any(isinstance(t, Ortho) for t in tokens)
        assert spec.has_ortho is scan
        assert spec.is_forward is (orientation is Orientation.FORWARD)
        assert spec.sort_key() == (orientation.value, *[k for t in tokens for k in token_key(t)])
        assert spec.sort_key() is spec.sort_key()  # the kept tuple


@pytest.mark.parametrize("domain", [True, False, 1.0, "1", None])
def test_match_rejects_a_domain_the_file_format_cannot_write(domain):
    # Match(True) == Match(1), so one would stand for the other in a spec
    with pytest.raises(TypeError):
        Match(domain)


@pytest.mark.parametrize("token", ["x", 5, None, (1,)])
@pytest.mark.parametrize("make", [fwd, rev])
def test_spec_rejects_a_token_that_is_neither_match_nor_ortho(make, token):
    with pytest.raises(TypeError, match=re.escape(f"got {token!r}")):
        make(Match(1), token)


@pytest.mark.parametrize("tag", ["", 5, None, b"x"])
def test_ortho_rejects_a_tag_the_file_format_cannot_write(tag):
    with pytest.raises(TypeError):
        Ortho(tag)


def test_equal_specs_are_one_object():
    spec = fwd(Match(1), Match(2), Ortho("x"))
    assert fwd(Match(1), Match(2), Ortho("x")) is spec
    assert strand_spec((Match(1), Match(2), Ortho("x")), Orientation.FORWARD) is spec
    assert rev(Match(1), Match(2), Ortho("x")) is not spec
    doc = b'{"layout":{"cells":1,"domains_per_cell":2},"instructions":[{"strands":[{"tokens":[{"m":1},{"m":2},{"o":"x"}]}]}]}'
    assert parse_program(doc).instructions[0].species[0] is spec


def test_parse_minimal_program():
    doc = b'{"layout":{"cells":1,"domains_per_cell":2},"instructions":[]}'
    p = parse_program(doc)
    assert p.layout == RegisterLayout(1, 2)
    assert p.instructions == ()


def test_parse_domain_out_of_range():
    doc = (
        b'{"layout":{"cells":1,"domains_per_cell":2},'
        b'"instructions":[{"label":"x","strands":[{"orientation":"fwd",'
        b'"tokens":[{"m":3},{"m":1}]}]}]}'
    )
    with pytest.raises(SchemaError) as err:
        parse_program(doc)
    assert "out of range" in str(err.value)
    assert "instructions[0].strands[0].tokens[0]" in str(err.value)


def test_parse_rejects_empty_tokens():
    doc = (
        b'{"layout":{"cells":1,"domains_per_cell":2},'
        b'"instructions":[{"strands":[{"tokens":[]}]}]}'
    )
    with pytest.raises(SchemaError):
        parse_program(doc)


def test_a_strand_has_a_token():
    with pytest.raises(ValueError, match=r"^strand must have at least one token$"):
        fwd()


def test_register_roundtrip():
    layout = RegisterLayout(2, 4)
    state = RegisterState(
        layout,
        (
            BoundStrand(fwd(Match(1), Match(2)), 0),
            BoundStrand(fwd(Match(3), Match(4), Ortho("tag")), 2),
        ),
    )
    assert parse_register(serialize_register(state)) == state


def test_register_file_rejects_unstable():
    doc = (
        b'{"layout":{"cells":1,"domains_per_cell":4},'
        b'"strands":[{"offset":0,"tokens":[{"m":1}]}]}'
    )
    with pytest.raises(SchemaError):
        parse_register(doc)


# --- round-trip property over generated programs ---------------------------

tokens_st = st.lists(
    st.one_of(
        st.integers(min_value=1, max_value=6).map(Match),
        st.sampled_from(["x", "y", "z"]).map(Ortho),
    ),
    min_size=1,
    max_size=6,
).map(tuple)

strand_st = st.builds(
    StrandSpec,
    tokens=tokens_st,
    orientation=st.sampled_from([Orientation.FORWARD, Orientation.REVERSE]),
)

instruction_st = st.builds(
    Instruction,
    species=st.lists(strand_st, max_size=4).map(tuple),
    label=st.text(alphabet="ab #_(),", max_size=8),
)

program_st = st.builds(
    Program,
    layout=st.just(RegisterLayout(2, 6)),
    instructions=st.lists(instruction_st, max_size=5).map(tuple),
)


@given(program_st)
@settings(max_examples=200, deadline=None)
def test_program_roundtrip(prog):
    assert parse_program(serialize_program(prog)) == prog


@given(program_st)
@settings(max_examples=100, deadline=None)
def test_serialization_canonical(prog):
    data = serialize_program(prog)
    assert serialize_program(parse_program(data)) == data
    assert b"\n" not in data and b": " not in data


def test_a_placement_moved_by_a_delta_is_checked_where_it_lands():
    # from a valid state to a state made from some of its strands and up to
    # two broken ones: the engine's index refuses the delta exactly when
    # that state is invalid
    rng = random.Random(2610)
    moved = refused = 0
    for _ in range(2000):
        a = random_state(rng)
        b = _broken(rng, RegisterState(a.layout, tuple(bs for bs in a.strands if rng.random() < 0.7)))
        if len(set(b.strands)) < len(b.strands):
            continue  # a duplicate is not a landing
        layout = a.layout
        index = _Index(a)
        came = [bs for bs in b.strands if bs not in a.strands]
        try:
            index.apply([bs for bs in a.strands if bs not in b.strands], came)
        except InapplicableReactionError as e:
            refused += 1
            assert _reference_violations(b)
            # the first strand that did not land is worded beside the rest
            bs = next(bs for bs in came if bs not in index.bound_of)
            bad = strand_violations(bs, bs.bound_positions(layout), index.owner)
            assert str(e) == f"binding {bs} makes an invalid state: " + "; ".join(bad)
        else:
            moved += 1
            assert _reference_violations(b) == []
            assert index.state().strands == b.strands
            assert index.bound_of == {bs: bs.bound_positions(layout) for bs in b.strands}
            assert index.owner == {p: bs for bs in b.strands for p in bs.bound_positions(layout)}
    assert moved > 500 and refused > 500, (moved, refused)
    with pytest.raises(InapplicableReactionError):
        _Index(RegisterState(layout, ())).apply([BoundStrand(fwd(Match(1), Match(2)), 0)], [])


def test_register_file_shares_one_spec_per_token_list():
    doc = (
        b'{"layout":{"cells":2,"domains_per_cell":4},"strands":['
        b'{"offset":0,"tokens":[{"m":1},{"m":2}]},'
        b'{"offset":2,"tokens":[{"m":3},{"m":4},{"o":"x"}]},'
        b'{"offset":4,"tokens":[{"m":1},{"m":2}]}]}'
    )
    a, mid, b = parse_register(doc).strands
    assert a.spec == b.spec and a.offset != b.offset
    assert a.spec is b.spec
    assert mid.spec is not a.spec


def _canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def test_serialize_register_is_the_canonical_register_doc():
    rng = random.Random(3)
    states = [random_state(rng) for _ in range(300)]
    tags = fwd(Ortho('q"\\'), Ortho("\u00e9\n"), Ortho("x"), Match(1), Match(2))
    states.append(RegisterState(RegisterLayout(1, 4), (BoundStrand(tags, -3),)))
    for state in states:
        data = serialize_register(state)
        assert data == _canonical(register_doc(state))
        assert parse_register(data) == state


def test_a_strands_kept_bytes_change_nothing_else():
    # a serialized strand keeps its document bytes; it still equals, hashes
    # like and prints as its twin that has kept none, and a warm
    # serialization gives the cold one's bytes
    rng = random.Random(5)
    for _ in range(200):
        state = random_state(rng)
        twin = RegisterState(state.layout, tuple(BoundStrand(bs.spec, bs.offset) for bs in state.strands))
        cold = serialize_register(state)
        assert serialize_register(state) == cold == _canonical(register_doc(twin))
        for kept, fresh in zip(state.strands, twin.strands):
            assert hasattr(kept, "_bytes") and not hasattr(fresh, "_bytes")
            assert (kept, hash(kept), repr(kept)) == (fresh, hash(fresh), repr(fresh))
        assert (state, hash(state), repr(state)) == (twin, hash(twin), repr(twin))
        assert serialize_register(twin) == cold


@pytest.mark.parametrize(
    "token, message",
    [
        ({"m": True}, "domain index must be an integer"),
        ({"m": "1"}, "domain index must be an integer"),
        ({"m": None}, "domain index must be an integer"),
        ({"m": 0}, "domain index 0 out of range 1..4"),
        ({"m": 5}, "domain index 5 out of range 1..4"),
        ({"o": ""}, "overhang tag must be a nonempty string"),
        ({"o": 5}, "overhang tag must be a nonempty string"),
        ({"x": 1}, 'must be {"m": int} or {"o": str}'),
        ({"m": 1, "o": "a"}, 'must be {"m": int} or {"o": str}'),
        ({}, 'must be {"m": int} or {"o": str}'),
        ("m", 'must be {"m": int} or {"o": str}'),
        ({"o": "\ud800"}, "overhang tag must be Unicode text, without lone surrogates"),
    ],
)
def test_token_errors_name_the_token(token, message):
    doc = {
        "layout": {"cells": 1, "domains_per_cell": 4},
        "strands": [{"offset": 0, "tokens": [{"m": 1}, {"m": 2}]}, {"offset": 2, "tokens": [{"m": 3}, token]}],
    }
    with pytest.raises(SchemaError) as err:
        register_from_doc(doc)
    assert str(err.value) == f"$.strands[1].tokens[1]: {message}"
