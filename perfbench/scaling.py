"""Cost of one reaction against the cell count s, on the incrementor.

    python3 perfbench/scaling.py --seed 0 --seconds 10 --out perfbench/results/scaling.json

For each s in 4, 8, 16 and 32, eight distinct reachable configurations drawn
from the seed get one canonical pass each, round after round, until
``--seconds`` are spent on that s.  Every pass is checked against tm_step.
Reports milliseconds per pass and microseconds per reaction (pass time over
reactions applied), as measured and host-normalized by the probe timed once
per round (see probe.py): the table the engine's cost is judged by.
"""
from __future__ import annotations

import argparse
import json
import platform
import random
import sys
from pathlib import Path
from time import perf_counter

import run  # puts the checkout's src/ on sys.path
from simdna import compiler, engine, tm

import probe
import workloads

CELLS = (4, 8, 16, 32)
CONFIGS = 8


def measure_s(spec, s: int, seed: int, seconds: float) -> dict:
    rng = random.Random(seed)
    compiled = compiler.compile_tm(spec, s)
    configs = workloads.incrementor_configs(spec, s, CONFIGS, rng)
    regs = [compiler.encode_config(spec, compiled.scheme, c, s)[0] for c in configs]
    times, reactions, probes, failed = [], [], [], 0
    start = perf_counter()
    while not times or perf_counter() - start < seconds:
        probes.append(probe.probe())
        for reg, config in zip(regs, configs):
            t0 = perf_counter()
            final, outcomes = engine.run_program(reg, compiled.program)
            times.append(perf_counter() - t0)
            reactions.append(sum(len(o.applied) for o in outcomes))
            ok, _ = workloads.oracle_ok(spec, compiled.scheme, final, config)
            failed += not ok
    return {
        "s": s,
        "passes": len(times),
        "failed": failed,
        "ms_per_pass_p50": run.median(times) * 1e3,
        "reactions_per_pass": sum(reactions) / len(reactions),
        "us_per_reaction": sum(times) / sum(reactions) * 1e6,
        "us_per_reaction_norm": sum(times) / sum(reactions) * 1e6 * probe.REFERENCE_S / run.median(probes),
        "probe_ms_p50": run.median(probes) * 1e3,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0, help="per cell count")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    spec = tm.parse_tm_spec((run.ROOT / "machines" / "increment.yaml").read_bytes())
    rows = [measure_s(spec, s, args.seed, args.seconds) for s in CELLS]
    doc = {
        "stamp": {
            "python": platform.python_version(),
            "nproc": run.nproc(),
            "seed": args.seed,
            "commit": run.commit(),
            "source_sha256": run.source_digest(),
        },
        "rows": rows,
    }
    text = json.dumps(doc, indent=1)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n")
    print(text)
    return 1 if any(r["failed"] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
