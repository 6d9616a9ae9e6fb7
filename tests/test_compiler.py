from __future__ import annotations

import itertools

import pytest

from compile_corpus import digest, incrementor, one_state_machines, paper_machine
from test_simulation import J1_LEFT_ALL_DEFINED, J1_LEFT_MIXED, LAST_REGION_RIGHT, T1_LEFT

from simdna.compiler import (
    CompileError,
    MultipleHeadsError,
    SchemeError,
    TapeOnly,
    UnrecognizedPatternError,
    build_scheme,
    compile_tm,
    compile_transition,
    decode_register,
    encode_config,
    load_program_file,
    serialize_compiled,
)
from simdna.model import BoundStrand, Match, Orientation, Ortho, RegisterState, fwd
from simdna.tm import TMConfig, TMSpec, TMStatus, parse_tm_spec


def _tm_with_transitions(n: int) -> TMSpec:
    """Deterministic machine with exactly n transitions."""
    states = [f"q{i}" for i in range((n + 2) // 3 + 1)]
    transitions = {}
    count = 0
    for q in states:
        for sym in ("0", "1", "_"):
            if count == n:
                break
            transitions[(q, sym)] = (states[(count + 1) % len(states)], "0", "R")
            count += 1
    return TMSpec(frozenset(states + ["halt"]), states[0], "halt", transitions)


def test_scheme_dimensions(increment_spec):
    scheme = build_scheme(increment_spec)
    assert scheme.t == 5
    assert scheme.d == 18
    assert scheme.transition_order == (
        ("a", "0"), ("a", "1"), ("a", "_"), ("b", "0"), ("b", "1"),
    )


def test_scheme_d72_for_32_transitions():
    spec = _tm_with_transitions(32)
    scheme = build_scheme(spec)
    assert scheme.t == 32
    assert scheme.d == 72


def test_scheme_rejects_zero_transitions():
    spec = TMSpec(frozenset({"a", "h"}), "a", "h", {})
    with pytest.raises(SchemeError):
        build_scheme(spec)


def test_scheme_regions_tile_cell(increment_spec):
    scheme = build_scheme(increment_spec)
    covered = []
    for i in range(1, scheme.t + 1):
        covered += [2 * i - 1, 2 * i]
    covered += [scheme.y(k) for k in range(1, 9)]
    assert covered == list(range(1, scheme.d + 1))


def test_indistinguishable_patterns_rejected(increment_spec, monkeypatch):
    # if two symbols shared a nick pattern no cascade could separate them;
    # the scheme builder must refuse
    import simdna.compiler as compiler_mod

    broken = dict(compiler_mod.SYMBOL_PATTERNS)
    broken["1"] = broken["0"]
    monkeypatch.setattr(compiler_mod, "SYMBOL_PATTERNS", broken)
    with pytest.raises(SchemeError, match="not distinguishable"):
        build_scheme(increment_spec)


def test_plug_tags_distinct(increment_spec):
    scheme = build_scheme(increment_spec)
    key = ("a", "0")
    pre = scheme.pre_plug(key)
    post = scheme.post_plug(key)
    pre_tags = {t.tag for t in pre.tokens if isinstance(t, Ortho)}
    post_tags = {t.tag for t in post.tokens if isinstance(t, Ortho)}
    assert pre_tags and post_tags and pre_tags.isdisjoint(post_tags)


def test_pattern_spans_stable(increment_spec):
    scheme = build_scheme(increment_spec)
    for sym in ("0", "1", "_"):
        strands = scheme.pattern_strands(sym)
        assert sum(len(s.tokens) for _off, s in strands) == 8
        assert all(len(s.tokens) >= 2 for _off, s in strands)


def _all_configs(spec, s):
    symbols = ("0", "1", "_")
    for tape in itertools.product(symbols, repeat=s):
        for head in range(s):
            for q in sorted({k[0] for k in spec.transitions}):
                yield TMConfig(tuple(tape), head, q)


@pytest.mark.parametrize("s", [2, 3, 4])
def test_encode_decode_roundtrip_exhaustive(increment_spec, s):
    scheme = build_scheme(increment_spec)
    n_checked = 0
    for config in _all_configs(increment_spec, s):
        reg, lossy = encode_config(increment_spec, scheme, config, s)
        decoded = decode_register(increment_spec, scheme, reg)
        if lossy:
            assert isinstance(decoded, TapeOnly)
            assert decoded.tape == config.tape
        else:
            assert decoded == config
        n_checked += 1
    assert n_checked == 3**s * s * 2


def test_encode_halted_is_all_covered(increment_spec):
    scheme = build_scheme(increment_spec)
    config = TMConfig(("1", "0", "_"), None, "h", TMStatus.HALTED)
    reg, lossy = encode_config(increment_spec, scheme, config, 3)
    assert not lossy
    decoded = decode_register(increment_spec, scheme, reg)
    assert decoded == TapeOnly(("1", "0", "_"))


def test_encode_stuck_is_lossy(increment_spec):
    scheme = build_scheme(increment_spec)
    config = TMConfig(("_", "0", "_"), 0, "b")  # (b,_) undefined
    reg, lossy = encode_config(increment_spec, scheme, config, 3)
    assert lossy
    assert isinstance(decode_register(increment_spec, scheme, reg), TapeOnly)


def test_decode_multiple_heads(increment_spec):
    scheme = build_scheme(increment_spec)
    c1 = TMConfig(("0", "0"), 0, "a")
    reg, _ = encode_config(increment_spec, scheme, c1, 2)
    # expose a second region in cell 1 by deleting its cover there
    target_off = scheme.d + 0  # cell 1, region 1 cover at local offset 0
    strands = tuple(b for b in reg.strands if b.offset != target_off)
    strands = strands + (
        BoundStrand(scheme.head_cover, scheme.d + 2 * scheme.t),
    )
    # drop cell 1's pattern strands so the head form matches
    strands = tuple(
        b
        for b in strands
        if not (b.offset >= scheme.d + 2 * scheme.t and b.spec != scheme.head_cover)
    )
    with pytest.raises(MultipleHeadsError):
        decode_register(increment_spec, scheme, RegisterState(reg.layout, strands))


def test_decode_unrecognized(increment_spec):
    scheme = build_scheme(increment_spec)
    c = TMConfig(("0", "0"), 0, "a")
    reg, _ = encode_config(increment_spec, scheme, c, 2)
    strands = tuple(reg.strands[:-1])  # drop one strand
    with pytest.raises(UnrecognizedPatternError):
        decode_register(increment_spec, scheme, RegisterState(reg.layout, strands))


def test_decode_names_the_cell_a_strand_leaves(increment_spec):
    scheme = build_scheme(increment_spec)
    reg, _ = encode_config(increment_spec, scheme, TMConfig(("0", "1", "_"), 0, "a"), 3)
    # binds the last domain of cell 1 and the first of cell 2
    across = BoundStrand(fwd(Match(scheme.d), Match(1)), 2 * scheme.d - 1)
    with pytest.raises(UnrecognizedPatternError) as err:
        decode_register(increment_spec, scheme, RegisterState(reg.layout, (across,)))
    assert err.value.cell == 1
    assert str(err.value) == "cell 1: unrecognized strand arrangement: strand crosses a cell boundary"


def test_decode_rejects_a_duplicated_strand(increment_spec):
    scheme = build_scheme(increment_spec)
    reg, _ = encode_config(increment_spec, scheme, TMConfig(("0", "1"), 0, "a"), 2)
    for bs in reg.strands:
        with pytest.raises(UnrecognizedPatternError) as err:
            decode_register(increment_spec, scheme, RegisterState(reg.layout, reg.strands + (bs,)))
        assert err.value.cell == bs.offset // scheme.d


def test_sublist_skeleton(increment_spec):
    scheme = build_scheme(increment_spec)
    for key in scheme.transition_order:
        sub = compile_transition(increment_spec, scheme, key)
        first = sub[0]
        assert len(first.species) == 1
        (remover,) = first.species
        assert remover.orientation is Orientation.REVERSE
        assert remover == scheme.pre_plug_remover(key)
        labels = [ins.label for ins in sub]
        q, b = key
        assert labels[0] == f"L({q},{b})#1"
        assert all(l.startswith(f"L({q},{b})#") for l in labels)


def test_post_plugs_only_for_defined_targets(increment_spec):
    scheme = build_scheme(increment_spec)
    # (b,0) -> halt: no branch may place a post-plug
    sub = compile_transition(increment_spec, scheme, ("b", "0"))
    all_tags = {
        t.tag
        for ins in sub
        for sp in ins.species
        for t in sp.tokens
        if isinstance(t, Ortho)
    }
    assert not any(tag.startswith("post:") for tag in all_tags)
    # (a,0) -> (a,.): all three next symbols defined, three post-plugs appear
    sub = compile_transition(increment_spec, scheme, ("a", "0"))
    post = {
        t.tag
        for ins in sub
        for sp in ins.species
        if sp.is_forward
        for t in sp.tokens
        if isinstance(t, Ortho) and t.tag.startswith("post:")
    }
    assert post == {"post:a,0", "post:a,1", "post:a,_"}


def test_compile_structure(increment_spec):
    cp = compile_tm(increment_spec, 3)
    prog = cp.program
    scheme = cp.scheme
    first, last = prog.instructions[0], prog.instructions[-1]
    assert first.label == "pre-plug"
    assert set(first.species) == {
        scheme.pre_plug(k) for k in scheme.transition_order
    }
    assert len(first.species) == scheme.t
    assert last.label == "final-deprotect"
    assert set(last.species) == {
        scheme.post_plug_remover(k) for k in scheme.transition_order
    }
    # sublists tile the middle contiguously
    spans = [cp.sublist_index[k] for k in scheme.transition_order]
    assert spans[0][0] == 2
    for (a, b), (c, d) in zip(spans, spans[1:]):
        assert c == b + 1
    assert spans[-1][1] == cp.stats.instruction_count - 1
    total = sum(b - a + 1 for a, b in spans)
    assert cp.stats.instruction_count == total + 2


def test_stats_formulas(increment_spec):
    cp = compile_tm(increment_spec, 3)
    assert cp.stats.d == 18
    assert cp.stats.nucleotides(7) == 7 * 3 * 18 == 378
    for k in (5, 6, 7):
        assert cp.stats.nucleotides(k) == k * 3 * (2 * 5 + 8)


def test_compile_rejects_tiny_register(increment_spec):
    with pytest.raises(CompileError):
        compile_tm(increment_spec, 1)


def test_compiled_serialization_roundtrip(increment_spec):
    cp = compile_tm(increment_spec, 3)
    payload = serialize_compiled(cp)
    prog = load_program_file(payload)
    assert prog == cp.program
    # byte-determinism
    assert serialize_compiled(compile_tm(increment_spec, 3)) == payload


def test_program_match_tokens_in_range(increment_spec):
    cp = compile_tm(increment_spec, 3)
    d = cp.scheme.d
    for ins in cp.program.instructions:
        for sp in ins.species:
            for tok in sp.tokens:
                if isinstance(tok, Match):
                    assert 1 <= tok.domain <= d


# sha256 of a fast slice of the compile corpus (tests/compile_corpus.py):
# any change to the bytes of one of its compiled programs moves it
COMPILE_SLICE_SHA256 = "226517d9bb1da9ecaebedba8d1cb7291a4178da133d27801dde4419d685bf2a7"


def test_compiled_programs_pinned():
    inc = incrementor()
    hand = (J1_LEFT_MIXED, J1_LEFT_ALL_DEFINED, T1_LEFT, LAST_REGION_RIGHT)
    entries = [(inc, s) for s in range(2, 6)]
    entries.append((paper_machine(0), 4))
    entries += [(parse_tm_spec(doc), 3) for doc in hand]
    entries += [(spec, 3) for spec in one_state_machines()[::16]]
    assert digest(entries) == COMPILE_SLICE_SHA256
