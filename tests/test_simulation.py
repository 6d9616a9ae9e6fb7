"""End-to-end checks: one compiled pass == one machine step, on every
steppable configuration at s = 3 of the incrementor and of machines whose
first or last region takes a widened crossing strand; terminal registers
are left as they are.  The criteria of ``test_acceptance`` hold the
reachable-configuration corpus, the documented trace, parallel registers
and the protection protocol."""
from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from generators import random_tm

from simdna import engine
from simdna.compiler import compile_tm, encode_config, verify_compilation
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


def test_one_step_simulation_every_config_s3(increment_spec, increment_compiled_s3):
    cp = increment_compiled_s3
    configs = _steppable_configs(increment_spec, 3)
    violations = verify_compilation(increment_spec, cp, configs, engine.Canonical())
    assert not violations, violations[:3]


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
    violations = verify_compilation(spec, cp, configs, engine.Canonical())
    assert not violations, violations[:3]


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
        violations = verify_compilation(spec, cp, configs, engine.Canonical())
        assert not violations, (spec.transitions, violations[:3])


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
    violations = verify_compilation(spec, cp, configs, engine.Canonical())
    assert not violations, violations[:3]


def test_run_many_reports_register_index(increment_spec, increment_compiled_s3):
    cp = increment_compiled_s3
    good, _ = encode_config(
        increment_spec, cp.scheme, TMConfig(("0", "1", "_"), 1, "a"), 3
    )
    from simdna.model import RegisterLayout, RegisterState

    wrong_layout = RegisterState(RegisterLayout(2, 18), ())
    with pytest.raises(engine.EngineError) as err:
        engine.run_many([good, wrong_layout], cp.program)
    assert err.value.where == ("register 1",)
    assert str(err.value).startswith("register layout ")


def test_violations_name_their_configurations(increment_spec, increment_compiled_s3):
    """Without its final deprotect, the program leaves a post-plug on every
    register whose next configuration shows a head, so exactly those no
    longer decode."""
    cp = increment_compiled_s3
    configs = _steppable_configs(increment_spec, 3)
    program = dataclasses.replace(cp.program, instructions=cp.program.instructions[:-1])
    violations = verify_compilation(increment_spec, dataclasses.replace(cp, program=program), configs)
    nexts = [tm_step(increment_spec, c) for c in configs]
    plugged = [
        c for c, n in zip(configs, nexts) if not n.is_terminal and increment_spec.defined(n.state, n.tape[n.head])
    ]
    assert 0 < len(violations) == len(plugged) < len(configs)
    for config, violation in zip(plugged, violations):
        assert violation.startswith(f"{config}: decode failed: cell ")


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
