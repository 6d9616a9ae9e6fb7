"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --seeds 0-9 --out perfbench/results/summary.json

Runs the command from BENCHMARK.json once per workload and seed, one run at
a time, and reports for every metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median.  An end-to-end
metric whose spread exceeds its bound is flagged.  Deterministic counters
are kept per seed so two summaries can be compared exactly.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"values": values, "median": med}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    ap.add_argument("--workloads", help="comma-separated; default: all")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    status = 0
    for name in names:
        reports, failures, elapsed = [], [], []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [*spec["command"], "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            elapsed.append(time.perf_counter() - t0)
            lines = proc.stdout.splitlines()
            if proc.returncode or len(lines) < 2:
                failures.append({"seed": seed, "exit": proc.returncode, "stderr": proc.stderr[-2000:]})
                status = 1
                continue
            reports.append(json.loads(lines[-2])["report"])
            print(f"{name} seed {seed}: {lines[-1]}", file=sys.stderr, flush=True)
        values: dict[str, list] = {}
        for rep in reports:
            for key, m in rep["metrics"].items():
                if isinstance(m["value"], (int, float)):
                    values.setdefault(key, []).append(m["value"])
        metrics = {}
        for key, vals in sorted(values.items()):
            metrics[key] = summarise(vals)
            spread = metrics[key].get("spread")
            if key in bounds and key != "setup_s" and spread is not None and spread > bounds[key]:
                metrics[key]["over_bound"] = True
                status = 1
        summary["workloads"][name] = {
            "metrics": metrics,
            "counters": {str(r["seed"]): r["counters"] for r in reports},
            "stamp": reports[0]["stamp"] if reports else None,
            "failures": failures,
            "run_elapsed_s": elapsed,
        }
    text = json.dumps(summary, indent=1, sort_keys=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n")
    for name, w in summary["workloads"].items():
        for key, m in w["metrics"].items():
            if key in bounds:
                print(f"{name:10s} {key:14s} median {m['median']:.4f} spread {m.get('spread') or 0:.3f}"
                      f" bound {bounds[key]}{'  OVER' if m.get('over_bound') else ''}")
    return status


if __name__ == "__main__":
    sys.exit(main())
