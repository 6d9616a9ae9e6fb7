"""Verify the one-step claim on every machine of the compile corpus.

    PYTHONPATH=src python tests/verify_corpus.py

For each machine of ``tests/compile_corpus.py`` that compiles, every
transition at every head position whose step stays on the tape, on one
seeded tape each, runs through ``verify_compilation`` under
``VerifyConfluent(500)``.  Prints the counts of machines, machines that do
not compile, configurations, violations and engine errors; then the sha256
of the reactions every pass fired, in order (per pass, one line of the
canonical JSON of each instruction's ``applied`` documents), which pins the
canonical reaction order of every trace; then each violation and error.
Exits 1 when there is any violation or engine error.
"""
from __future__ import annotations

import hashlib
import json
import random
import sys

from compile_corpus import corpus

from simdna import engine
from simdna.compiler import CompileError, compile_tm, verify_compilation
from simdna.engine import EngineError, VerifyConfluent
from simdna.tm import SpaceBoundViolationError, TMConfig, TMSpec, tm_step

SYMBOLS = ("0", "1", "_")


def step_configs(spec: TMSpec, s: int, rng: random.Random) -> list[TMConfig]:
    """Each transition at each head position whose step stays on the tape,
    the rest of the tape drawn from ``rng``."""
    out = []
    for state, symbol in sorted(spec.transitions):
        for head in range(s):
            tape = [rng.choice(SYMBOLS) for _ in range(s)]
            tape[head] = symbol
            config = TMConfig(tuple(tape), head, state)
            try:
                tm_step(spec, config)
            except SpaceBoundViolationError:
                continue
            out.append(config)
    return out


def record_passes(digest) -> None:
    """Make ``engine.run_program``, which ``verify_compilation`` calls, also
    feed each pass's reactions to ``digest``."""
    run_program = engine.run_program

    def recorded(state, prog, mode):
        final, outcomes = run_program(state, prog, mode)
        doc = [[r.doc() for r in out.applied] for out in outcomes]
        digest.update(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        return final, outcomes

    engine.run_program = recorded


def main() -> int:
    rng = random.Random(0)
    mode = VerifyConfluent(500)
    order = hashlib.sha256()
    record_passes(order)
    machines = uncompiled = configs = 0
    failures = []
    for i, (spec, s) in enumerate(corpus()):
        machines += 1
        try:
            compiled = compile_tm(spec, s)
        except CompileError:
            uncompiled += 1
            continue
        inputs = step_configs(spec, s, rng)
        configs += len(inputs)
        try:
            failures += [f"machine {i}: {v}" for v in verify_compilation(spec, compiled, inputs, mode)]
        except EngineError as e:
            failures.append(f"machine {i}: engine error: {e}")
    print(f"machines {machines}, not compiled {uncompiled}, configurations {configs}, failures {len(failures)}")
    print(f"reaction order sha256 {order.hexdigest()}")
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
