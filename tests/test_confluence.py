"""Order-independence of compiled instructions."""
from __future__ import annotations

import itertools
import random

from generators import random_tm

from simdna import engine
from simdna.compiler import compile_tm, encode_config, reachable_configs, verify_compilation
from simdna.tm import TMConfig


def test_compiled_program_confluent_on_reachable(increment_spec, increment_compiled_s4):
    cp = increment_compiled_s4
    seen = {}
    for n in (1, 2, 3):
        for bits in itertools.product("01", repeat=n):
            configs, _ = reachable_configs(increment_spec, "".join(bits), 4)
            for c in configs:
                seen[c] = None
    violations = verify_compilation(
        increment_spec, 4, cp, list(seen), engine.VerifyConfluent(100_000)
    )
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
    violations = verify_compilation(spec, 3, cp, list(seen), engine.VerifyConfluent())
    assert not violations, violations[:3]
