"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report; any failure is a hard test failure at the stated tolerance.
"""
from __future__ import annotations

import itertools
import random
import time
from pathlib import Path

from brute_oracle import brute_force_reactions
from generators import random_instruction, random_state

from simdna import engine
from simdna.cli import main
from simdna.compiler import (
    build_scheme,
    configs_equivalent,
    decode_register,
    encode_config,
    reachable_configs,
    verify_compilation,
)
from simdna.model import serialize_register
from simdna.render import render_svg, render_text
from simdna.tm import TMConfig, TMSpec, TMStatus, tm_step

INPUTS_14 = ["".join(b) for n in (1, 2, 3) for b in itertools.product("01", repeat=n)]


def _report(n: int, text: str):
    print(f"ACCEPTANCE {n} PASS: {text}")


def _corpus_configs(spec):
    seen = {}
    for x in INPUTS_14:
        configs, _ = reachable_configs(spec, x, 4)
        for c in configs:
            seen[c] = None
    return list(seen)


def test_criterion_1_oracle_equivalence(increment_spec, increment_compiled_s4, increment_path):
    t0 = time.monotonic()
    assert len(INPUTS_14) == 14
    configs = _corpus_configs(increment_spec)
    violations = verify_compilation(increment_spec, increment_compiled_s4, configs, engine.Canonical())
    assert not violations, violations[:3]

    for x in INPUTS_14:
        code = main([
            "run-tm", str(increment_path), "--input", x, "--cells", "4", "--oracle",
        ])
        assert code == 0, f"cmd_run_tm --oracle failed for input {x!r}"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s"
    _report(1, f"{len(configs)} reachable configs + 14 end-to-end runs in {elapsed:.1f}s")


def test_criterion_2_trace_reproduction(increment_spec, increment_compiled_s3):
    cp = increment_compiled_s3
    reg, _ = encode_config(increment_spec, cp.scheme, TMConfig(("0", "1", "_"), 1, "a"), 3)
    reg, _o = engine.run_program(reg, cp.program)
    it1 = decode_register(increment_spec, cp.scheme, reg)
    assert it1 == TMConfig(("0", "1", "_"), 2, "a"), it1
    reg, _o = engine.run_program(reg, cp.program)
    it2 = decode_register(increment_spec, cp.scheme, reg)
    assert it2 == TMConfig(("0", "1", "_"), 1, "b"), it2
    _report(2, "iteration 1 -> head cell 3 state a; iteration 2 -> head cell 2 state b")


def test_criterion_3_confluence(increment_spec, increment_compiled_s4):
    cp = increment_compiled_s4
    mode = engine.VerifyConfluent(max_states=100_000)
    cache: dict[tuple, object] = {}
    instructions = cp.program.instructions
    verified = 0
    for x in INPUTS_14:
        config = None
        configs, _ = reachable_configs(increment_spec, x, 4)
        state, _lossy = encode_config(increment_spec, cp.scheme, configs[0], 4)
        for c in configs:
            if c.is_terminal or not increment_spec.defined(c.state, c.tape[c.head]):
                break
            for i, instr in enumerate(instructions):
                key = (state, i)
                if key not in cache:
                    cache[key] = engine.run_instruction(state, instr, mode).final_state
                    verified += 1
                state = cache[key]
    _report(3, f"{verified} distinct (state, instruction) pairs confluence-verified")


def test_criterion_4_complexity_formulas(increment_spec, increment_compiled_s3):
    assert build_scheme(increment_spec).d == 18

    states = [f"q{i}" for i in range(11)]
    transitions = {}
    count = 0
    for q in states:
        for sym in ("0", "1", "_"):
            if count == 32:
                break
            transitions[(q, sym)] = (states[(count + 1) % 11], "0", "R")
            count += 1
    big = TMSpec(frozenset(states + ["halt"]), "q0", "halt", transitions)
    assert build_scheme(big).d == 72

    cp = increment_compiled_s3
    for k in (5, 6, 7):
        assert cp.stats.nucleotides(k) == k * 3 * (2 * 5 + 8)
    n = cp.stats.instruction_count
    assert 60 <= n <= 112, n
    per = [(b - a + 1) for a, b in cp.sublist_index.values()]
    avg = sum(per) / len(per)
    assert 12 <= avg <= 20, (per, avg)
    _report(4, f"d=18/72 exact; nucleotides exact for k=5..7; {n} instructions, {avg:.1f}/transition")


def test_criterion_5_simd_parallelism(increment_spec, increment_compiled_s4):
    cp = increment_compiled_s4
    spec = increment_spec
    running = [
        TMConfig(("0", "1", "0", "_"), 0, "a"),
        TMConfig(("1", "0", "1", "_"), 0, "a"),
        TMConfig(("0", "1", "_", "_"), 2, "a"),
        TMConfig(("0", "0", "1", "_"), 1, "b"),
        TMConfig(("0", "1", "1", "_"), 2, "b"),
        TMConfig(("1", "0", "_", "_"), 1, "a"),
    ]
    used = {(c.state, c.tape[c.head]) for c in running}
    assert used == set(cp.scheme.transition_order), "corpus must cover every transition"
    halted = TMConfig(("1", "0", "_", "_"), None, "h", TMStatus.HALTED)
    stuck = TMConfig(("_", "0", "0", "_"), 0, "b", TMStatus.STUCK)
    regs = [encode_config(spec, cp.scheme, c, 4)[0] for c in running + [halted, stuck]]
    assert len(regs) >= 8

    results = engine.run_many(regs, cp.program)
    for c, (final, _trace) in zip(running, results):
        got = decode_register(spec, cp.scheme, final)
        assert configs_equivalent(spec, tm_step(spec, c), got), c
    assert serialize_register(results[6][0]) == serialize_register(regs[6])
    assert serialize_register(results[7][0]) == serialize_register(regs[7])
    # and no instruction applied anything to them
    assert all(len(o.applied) == 0 for o in results[6][1])
    assert all(len(o.applied) == 0 for o in results[7][1])
    _report(5, "8 registers advanced independently; halted/stuck byte-identical")


def test_criterion_6_protection(increment_spec, increment_compiled_s3):
    cp = increment_compiled_s3
    reg, _ = encode_config(increment_spec, cp.scheme, TMConfig(("0", "1", "_"), 1, "a"), 3)
    _final, outcomes = engine.run_program(reg, cp.program)
    counts = [len(o.applied) for o in outcomes]
    # the register reacts during the shared pre-plug step, its own sublist
    # and the final deprotect
    assert counts[0] == 1
    assert counts[cp.stats.instruction_count - 1] == 1
    own_first, own_last = cp.sublist_index[("a", "1")]
    assert sum(counts[own_first - 1 : own_last]) > 0
    foreign = 0
    for key in (("a", "0"), ("a", "_"), ("b", "0"), ("b", "1")):
        first, last = cp.sublist_index[key]
        foreign += sum(counts[first - 1 : last])
    assert foreign == 0, f"foreign sublists fired {foreign} reactions"

    # replay the (a,_) sublist on the processed register: fully inert
    first, last = cp.sublist_index[("a", "_")]
    state = reg
    for instr in cp.program.instructions[: last]:
        state = engine.run_instruction(state, instr).final_state
    for instr in cp.program.instructions[first - 1 : last]:
        out = engine.run_instruction(state, instr)
        assert out.applied == ()
        state = out.final_state
    _report(6, "foreign sublists fired 0 reactions; re-entry fully inert")


def test_criterion_7_reaction_rule_oracle():
    rng = random.Random(0xD5D)
    n = 10_000
    for i in range(n):
        state = random_state(rng)
        instr = random_instruction(rng, state)
        fast = engine.applicable_reactions(state, instr)
        slow = brute_force_reactions(state, instr)
        assert fast == slow, f"disagreement at case {i}: {state} {instr}"
    _report(7, f"{n} random states, zero discrepancies")


def test_criterion_8_determinism(tmp_path, increment_path, increment_spec, increment_compiled_s3):
    cp = increment_compiled_s3
    # subcommand reruns are byte-identical
    prog = tmp_path / "prog.json"
    argv = ["compile", str(increment_path), "--cells", "3", "-o", str(prog)]
    assert main(argv) == 0
    first = prog.read_bytes()
    assert main(argv) == 0
    assert prog.read_bytes() == first

    reg, _ = encode_config(increment_spec, cp.scheme, TMConfig(("0", "1", "_"), 1, "a"), 3)
    reg_path = tmp_path / "reg.json"
    reg_path.write_bytes(serialize_register(reg))
    out_dir = tmp_path / "sim"
    argv = ["simulate", str(prog), str(reg_path), "--out-dir", str(out_dir)]
    assert main(argv) == 0
    snap = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert main(argv) == 0
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == snap

    # golden scenes: three text, three SVG
    golden = Path(__file__).resolve().parent / "golden"
    names = {p.name for p in golden.iterdir()}
    assert sum(1 for n in names if n.endswith(".svg")) >= 3
    assert sum(1 for n in names if n.endswith(".txt")) >= 3
    from test_render import empty_scene, encoded_scene, micro_scene

    for name, scene in (
        ("empty", empty_scene()),
        ("micro", micro_scene()),
        ("encoded", encoded_scene(increment_spec)),
    ):
        assert (golden / f"{name}.txt").read_text() == render_text(scene)
        assert (golden / f"{name}.svg").read_text() == render_svg(scene)
    _report(8, "reruns byte-identical; 3 text + 3 SVG goldens match")
