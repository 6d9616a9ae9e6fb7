"""Order-independence of compiled instructions."""
from __future__ import annotations

import dataclasses
import itertools
import random

import pytest
from generators import random_tm

from simdna import engine
from simdna.compiler import compile_tm, encode_config, reachable_configs, verify_compilation
from simdna.model import Program
from simdna.tm import TMConfig


def test_compiled_program_confluent_on_reachable(increment_spec, increment_compiled_s4):
    cp = increment_compiled_s4
    seen = {}
    for n in (1, 2, 3):
        for bits in itertools.product("01", repeat=n):
            configs, _ = reachable_configs(increment_spec, "".join(bits), 4)
            for c in configs:
                seen[c] = None
    violations = verify_compilation(increment_spec, cp, list(seen), engine.VerifyConfluent(100_000))
    assert not violations, violations[:3]


def test_verify_matches_canonical_per_instruction(increment_spec, increment_compiled_s3):
    cp = increment_compiled_s3
    config = TMConfig(("0", "1", "_"), 1, "a")
    state, _ = encode_config(increment_spec, cp.scheme, config, 3)
    for instr in cp.program.instructions:
        canon = engine.run_instruction(state, instr, engine.Canonical())
        verified = engine.run_instruction(state, instr, engine.VerifyConfluent())
        assert canon.final_state == verified.final_state
        state = canon.final_state


def test_random_machine_confluent():
    rng = random.Random(4242)
    spec = random_tm(rng)
    cp = compile_tm(spec, 3)
    # confluence over the trajectory of a couple of inputs
    seen = {}
    for x in ("", "0", "10"):
        configs, _ = reachable_configs(spec, x, 3, max_steps=20)
        for c in configs[:6]:
            seen[c] = None
    violations = verify_compilation(spec, cp, list(seen), engine.VerifyConfluent())
    assert not violations, violations[:3]


def test_verify_compilation_names_the_failing_configuration(increment_spec, increment_compiled_s3):
    configs, _ = reachable_configs(increment_spec, "01", 3)
    with pytest.raises(engine.StateBudgetExceededError) as err:
        verify_compilation(increment_spec, increment_compiled_s3, configs, engine.VerifyConfluent(1))
    assert err.value.where == (str(configs[0]), "instruction 1")


def test_verify_compilation_reports_a_wrong_step(increment_spec, increment_compiled_s3):
    # without its seventh instruction the program leaves the head of the
    # first configuration unmoved, and the register decodes to a tape only
    cp = increment_compiled_s3
    program = Program(cp.program.layout, cp.program.instructions[:6] + cp.program.instructions[7:])
    configs, _ = reachable_configs(increment_spec, "01", 3)
    violations = verify_compilation(increment_spec, dataclasses.replace(cp, program=program), configs)
    assert violations == [f"{configs[0]}: expected {configs[1]}, decoded TapeOnly(tape=('0', '1', '_'))"]
