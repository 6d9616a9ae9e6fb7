"""End-to-end checks: one compiled pass == one machine step, for every
register in the solution at once, with full protection between sublists."""
from __future__ import annotations

import itertools
import random

import pytest

from generators import random_tm

from simdna import engine
from simdna.compiler import (
    compile_tm,
    configs_equivalent,
    decode_register,
    encode_config,
    reachable_configs,
    verify_compilation,
)
from simdna.tm import (
    SpaceBoundViolationError,
    TMConfig,
    TMStatus,
    parse_tm_spec,
    tm_step,
)


def _steppable_configs(spec, s):
    """All configs with a defined transition whose step stays on the tape."""
    out = []
    states = sorted({k[0] for k in spec.transitions})
    for tape in itertools.product(("0", "1", "_"), repeat=s):
        for head in range(s):
            for q in states:
                c = TMConfig(tuple(tape), head, q)
                if not spec.defined(q, tape[head]):
                    continue
                try:
                    tm_step(spec, c)
                except SpaceBoundViolationError:
                    continue
                out.append(c)
    return out


def test_one_step_simulation_reachable(increment_spec, increment_compiled_s4):
    cp = increment_compiled_s4
    seen = {}
    for n in (1, 2, 3):
        for bits in itertools.product("01", repeat=n):
            configs, _ = reachable_configs(increment_spec, "".join(bits), 4)
            for c in configs:
                seen[c] = None
    report = verify_compilation(increment_spec, 4, cp, list(seen), engine.Canonical())
    assert report.ok, report.violations[:3]


def test_one_step_simulation_every_config_s3(increment_spec, increment_compiled_s3):
    cp = increment_compiled_s3
    configs = _steppable_configs(increment_spec, 3)
    report = verify_compilation(increment_spec, 3, cp, configs, engine.Canonical())
    assert report.ok, report.violations[:3]


def test_trace_sequence_two_iterations(increment_spec, increment_compiled_s3):
    cp = increment_compiled_s3
    config = TMConfig(("0", "1", "_"), 1, "a")
    reg, _ = encode_config(increment_spec, cp.scheme, config, 3)
    reg, _outs = engine.run_program(reg, cp.program)
    first = decode_register(increment_spec, cp.scheme, reg)
    assert first == TMConfig(("0", "1", "_"), 2, "a")
    reg, _outs = engine.run_program(reg, cp.program)
    second = decode_register(increment_spec, cp.scheme, reg)
    assert second == TMConfig(("0", "1", "_"), 1, "b")


def test_simd_parallel_registers(increment_spec, increment_compiled_s4):
    cp = increment_compiled_s4
    spec = increment_spec
    running = [
        TMConfig(("0", "1", "0", "_"), 0, "a"),  # (a,0)
        TMConfig(("1", "0", "1", "_"), 0, "a"),  # (a,1)
        TMConfig(("0", "1", "_", "_"), 2, "a"),  # (a,_)
        TMConfig(("0", "0", "1", "_"), 1, "b"),  # (b,0) -> halt
        TMConfig(("0", "1", "1", "_"), 2, "b"),  # (b,1)
        TMConfig(("1", "0", "_", "_"), 1, "a"),  # (a,0) elsewhere
    ]
    halted = TMConfig(("1", "0", "_", "_"), None, "h", TMStatus.HALTED)
    stuck = TMConfig(("_", "0", "0", "_"), 0, "b", TMStatus.STUCK)  # (b,_) undefined

    regs = [encode_config(spec, cp.scheme, c, 4)[0] for c in running]
    regs.append(encode_config(spec, cp.scheme, halted, 4)[0])
    regs.append(encode_config(spec, cp.scheme, stuck, 4)[0])
    assert len(regs) >= 8

    results = engine.run_many(regs, cp.program)
    for c, (final, _trace) in zip(running, results):
        expected = tm_step(spec, c)
        got = decode_register(spec, cp.scheme, final)
        assert configs_equivalent(spec, expected, got), (c, expected, got)
    # terminal registers come back byte-identical
    assert results[6][0] == regs[6]
    assert results[7][0] == regs[7]
    assert all(len(o.applied) == 0 for o in results[6][1])
    assert all(len(o.applied) == 0 for o in results[7][1])


def test_protection_protocol(increment_spec, increment_compiled_s3):
    """A register whose applicable transition is (a,1) reacts only during the
    shared pre-plug step, its own sublist, and the final deprotect."""
    cp = increment_compiled_s3
    spec = increment_spec
    config = TMConfig(("0", "1", "_"), 1, "a")
    reg, _ = encode_config(spec, cp.scheme, config, 3)
    _final, outcomes = engine.run_program(reg, cp.program)
    counts = [len(o.applied) for o in outcomes]

    n = cp.stats.instruction_count
    assert counts[0] == 1  # pre-plug
    assert counts[n - 1] == 1  # final deprotect
    own_first, own_last = cp.sublist_index[("a", "1")]
    for key in (("a", "0"), ("a", "_"), ("b", "0"), ("b", "1")):
        first, last = cp.sublist_index[key]
        fired = sum(counts[first - 1 : last])
        assert fired == 0, f"sublist {key} fired {fired} reactions"
    assert sum(counts[own_first - 1 : own_last]) > 0


def test_reentry_after_processing_is_inert(increment_spec, increment_compiled_s3):
    """After (a,1) is processed the register encodes the (a,_) input, but the
    post-plug keeps the later (a,_) sublist fully inert (and the protection
    survives a rerun of that sublist)."""
    cp = increment_compiled_s3
    spec = increment_spec
    config = TMConfig(("0", "1", "_"), 1, "a")
    reg, _ = encode_config(spec, cp.scheme, config, 3)

    first, last = cp.sublist_index[("a", "_")]
    state = reg
    for instr in cp.program.instructions[: last]:
        out = engine.run_instruction(state, instr)
        state = out.final_state
    # now replay the (a,_) sublist: still nothing may fire
    for instr in cp.program.instructions[first - 1 : last]:
        out = engine.run_instruction(state, instr)
        assert out.applied == ()
        state = out.final_state


def test_idempotent_on_halted(increment_spec, increment_compiled_s3):
    cp = increment_compiled_s3
    halted = TMConfig(("1", "0", "_"), None, "h", TMStatus.HALTED)
    reg, _ = encode_config(increment_spec, cp.scheme, halted, 3)
    final, outcomes = engine.run_program(reg, cp.program)
    assert final == reg
    assert all(not o.applied for o in outcomes)


J1_LEFT_MIXED = b"""
start state: a
halt state: h
table:
  a:
    0: {write: 1, move: L, next: b}
  b:
    1: {write: 0, move: R, next: a}
"""

J1_LEFT_ALL_DEFINED = b"""
start state: a
halt state: h
table:
  a:
    0: {write: 1, move: L, next: a}
    1: {write: 0, move: R, next: a}
    _: {write: _, move: L, next: h}
"""

T1_LEFT = b"""
start state: a
halt state: h
table:
  a:
    0: {write: 1, move: L, next: a}
"""


@pytest.mark.parametrize("doc", [J1_LEFT_MIXED, J1_LEFT_ALL_DEFINED, T1_LEFT])
def test_first_region_left_moves(doc):
    """Left moves whose transition owns the first region need the widened
    crossing strand (with t = 1, the whole cell opens with one exchange);
    check the full one-step claim on such machines."""
    spec = parse_tm_spec(doc)
    scheme_order = compile_tm(spec, 3).scheme.transition_order
    assert scheme_order[0][1] == "0" and spec.transitions[scheme_order[0]][2] == "L"
    cp = compile_tm(spec, 3)
    configs = _steppable_configs(spec, 3)
    assert configs
    report = verify_compilation(spec, 3, cp, configs, engine.Canonical())
    assert report.ok, report.violations[:3]


def test_random_machines_one_step():
    rng = random.Random(20240301)
    machines = 0
    while machines < 4:
        spec = random_tm(rng)
        if not 1 <= spec.transition_count <= 6:
            continue
        machines += 1
        cp = compile_tm(spec, 3)
        configs = _steppable_configs(spec, 3)
        report = verify_compilation(spec, 3, cp, configs, engine.Canonical())
        assert report.ok, (spec.transitions, report.violations[:3])


LAST_REGION_RIGHT = b"""
start state: a
halt state: h
table:
  a:
    0: {write: 0, move: L, next: b}
  b:
    0: {write: 1, move: R, next: a}
"""


def test_last_region_right_move():
    """A right mover owning the last transition region opens its cell's whole
    right flank in one exchange; exercise that variant end to end."""
    spec = parse_tm_spec(LAST_REGION_RIGHT)
    cp = compile_tm(spec, 3)
    key = cp.scheme.transition_order[-1]
    assert spec.transitions[key][2] == "R"
    configs = _steppable_configs(spec, 3)
    report = verify_compilation(spec, 3, cp, configs, engine.Canonical())
    assert report.ok, report.violations[:3]
    assert len(report.entries) == len(configs)


def test_run_many_reports_register_index(increment_spec, increment_compiled_s3):
    cp = increment_compiled_s3
    good, _ = encode_config(
        increment_spec, cp.scheme, TMConfig(("0", "1", "_"), 1, "a"), 3
    )
    from simdna.model import RegisterLayout, RegisterState

    wrong_layout = RegisterState(RegisterLayout(2, 18), ())
    with pytest.raises(engine.RegisterRunError) as err:
        engine.run_many([good, wrong_layout], cp.program)
    assert err.value.index == 1


def test_random_machines_terminal_inertness():
    rng = random.Random(99)
    spec = random_tm(rng)
    cp = compile_tm(spec, 3)
    # encode a full-tape stuck/halted form and require byte-identity
    for tape in (("0", "1", "_"), ("_", "_", "_")):
        halted = TMConfig(tape, None, spec.halt, TMStatus.HALTED)
        reg, _ = encode_config(spec, cp.scheme, halted, 3)
        final, outs = engine.run_program(reg, cp.program)
        assert final == reg
        assert all(not o.applied for o in outs)
