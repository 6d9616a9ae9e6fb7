"""simdna benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload inc-s32 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the benchmark imports ``src/simdna``
and reads ``machines/increment.yaml`` from it.  It sets the workload up
several times (``setup_s`` is the median), then repeats whole cycles of the
workload's work until the time is spent, checking every result.  Timings are
reported host-normalized (see probe.py) and, in the report, as measured.  With
``--trace 1`` it first runs one untraced cycle as a reference, then installs
the span recorder and reports per-layer numbers and the tracing overhead.

The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and the metrics that ``BENCHMARK.json`` lists (end-to-end with
``--trace 0``, per-layer with ``--trace 1``).  The line before it is the
full report: every metric the run measured, deterministic counters kept
apart from timings, and a stamp of the environment.  Both are also written
to ``perfbench/out/``.  The exit code is 0 only if every check passed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 7


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def checkout_ok() -> None:
    for need in ("src/simdna/__init__.py", "machines/increment.yaml", "BENCHMARK.json"):
        if not (ROOT / need).is_file():
            fail(f"{need} not found under {ROOT}; run from a simdna source checkout")


checkout_ok()
sys.path.insert(0, str(ROOT / "src"))

from simdna import cli, compiler, engine, model, render, tm  # noqa: E402

import probe  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MODULES = {"cli": cli, "compiler": compiler, "engine": engine, "model": model, "render": render, "tm": tm}


# --- statistics ---------------------------------------------------------------


def median(xs):
    return statistics.median(xs) if xs else None


def tail(xs):
    """(value, percentile, n): the highest whole percentile with at least
    ten samples beyond it, by nearest rank; None when n <= 10."""
    n = len(xs)
    if n <= 10:
        return None, None, n
    p = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(p * n / 100))
    return sorted(xs)[rank - 1], p, n


def quantile(xs, q):
    if not xs:
        return None
    s = sorted(xs)
    return s[min(len(s) - 1, max(0, math.ceil(q * len(s)) - 1))]


# --- environment ----------------------------------------------------------------


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "simdna").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def threads_and_children() -> tuple[int, int]:
    task = Path("/proc/self/task")
    if not task.is_dir():
        return threading.active_count(), 0
    tids = os.listdir(task)
    children = 0
    for tid in tids:
        try:
            children += len((task / tid / "children").read_text().split())
        except OSError:
            pass
    return len(tids), children


# --- running --------------------------------------------------------------------


WORKLOADS = {
    "inc-s32": lambda: workloads.IncS32(ROOT),
    "paper-t32": lambda: workloads.PaperT32(ROOT),
    "cli-trace": lambda: workloads.CliTrace(ROOT, OUT / f"work-{os.getpid()}"),
}


def timed_setups(workload, seed: int, repeats: int) -> list[dict[str, float]]:
    """Set the workload up ``repeats`` times, probing the host in between;
    every set-up is scaled by the median probe."""
    probes, raw = [probe.probe()], []
    for _ in range(repeats):
        t0 = perf_counter()
        workload.setup(seed)
        raw.append(perf_counter() - t0)
        probes.append(probe.probe())
    factor = probe.REFERENCE_S / median(probes)
    return [{"raw": t, "norm": t * factor} for t in raw]


def measure(workload, seconds: float) -> list:
    """Whole cycles until ``seconds`` are spent; a cycle starts only if it
    is expected to end within half a cycle of the deadline.  The host probe
    runs before the first step of a cycle and after every step."""
    cycles, elapsed = [], []
    start = perf_counter()
    while True:
        tally = workloads.Tally()
        c0 = perf_counter()
        probes, step_s = [probe.probe()], []
        for i, step in enumerate(workload.steps()):
            tally.step = i
            t0 = perf_counter()
            step(tally)
            step_s.append(perf_counter() - t0)
            probes.append(probe.probe())
        tally.finish(step_s, probes)
        cycles.append(tally)
        elapsed.append(perf_counter() - c0)
        if perf_counter() - start + 0.5 * median(elapsed) > seconds:
            return cycles


def merged(cycles, view: str, key: str) -> list[float]:
    return [x for c in cycles for x in c.views[view].get(key, [])]


def counters_of(cycles, failures: list) -> dict:
    first = dict(cycles[0].counters)
    for i, c in enumerate(cycles[1:], 2):
        if dict(c.counters) != first:
            failures.append(f"cycle {i} counters differ from cycle 1")
    return first


def end_to_end(setups, cycles, counters, view: str) -> dict:
    """Every end-to-end metric the workload has work for, as (value, unit),
    from the timings as measured (``raw``) or host-normalized (``norm``)."""

    def per_cycle(key):
        return [sum(c.views[view].get(key, [])) for c in cycles]

    m = {}
    m["setup_s"] = (median([s[view] for s in setups]), "s")
    m["wall_s"] = (median([c.wall_s[view] for c in cycles]), "s")
    busy = [a + b for a, b in zip(per_cycle("engine.run_many_s"), per_cycle("engine.cli_s"))]
    m["steps_per_s"] = (median([c.counters["engine.passes"] / t for c, t in zip(cycles, busy)]), "1/s")
    pass_s = merged(cycles, view, "engine.pass_s")
    if not pass_s:  # CLI commands: their time over the passes they ran, per cycle
        pass_s = [t / c.counters["engine.passes"] for c, t in zip(cycles, per_cycle("engine.cli_s"))]
    m["pass_ms_p50"] = (median(pass_s) * 1e3, "ms")
    value, pct, n = tail(pass_s)
    if value is not None:
        m["pass_ms_tail"] = (value * 1e3, "ms")
        m["pass_ms_tail.percentile"] = (pct, "%")
    m["pass_ms.samples"] = (n, "count")
    if "verify.instructions" in counters:
        m["verify_s"] = (median(per_cycle("verify_s")), "s")
        m["verify_decided_frac"] = (counters["verify.decided"] / counters["verify.instructions"], "ratio")
    for key in ("cli.compile_s", "cli.simulate_s", "cli.render_svg_s", "cli.render_text_s", "cli.run_tm_s"):
        if merged(cycles, view, key):
            m[key] = (median(merged(cycles, view, key)), "s")
    if "trace_bytes" in counters:
        m["trace_mb"] = (counters["trace_bytes"] / 1e6, "MB")
    for prefix, name in (("engine", "engine.us_per_reaction"), ("control", "engine.us_per_reaction.s4")):
        if merged(cycles, view, f"{prefix}.run_many_s"):
            seconds = median(per_cycle(f"{prefix}.run_many_s"))
            m[name] = (seconds / counters[f"{prefix}.reactions"] * 1e6, "us")
            if prefix == "engine":
                m["engine.run_many_s"] = (seconds, "s")
    if "engine.us_per_reaction.s4" in m:
        m["engine.scaling_ratio"] = (
            m["engine.us_per_reaction"][0] / m["engine.us_per_reaction.s4"][0], "x")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return m


# (metric, unit, scale, span names): mean duration per call
PER_CALL = (
    ("engine.enumerate_us", "us", 1e6, ("engine.applicable_reactions",)),
    ("compiler.compile_ms", "ms", 1e3, ("compiler.compile_tm",)),
    ("compiler.encode_us", "us", 1e6, ("compiler.encode_config",)),
    ("compiler.decode_us", "us", 1e6, ("compiler.decode_register",)),
    ("compiler.load_program_ms", "ms", 1e3, ("compiler.load_program_file",)),
    ("tm.parse_ms", "ms", 1e3, ("tm.parse_tm_document",)),
    ("tm.step_us", "us", 1e6, ("tm.tm_step",)),
    ("model.validate_us", "us", 1e6, ("model.validate_state",)),
    ("model.register_doc_us", "us", 1e6, ("model.register_doc",)),
    ("model.serialize_register_us", "us", 1e6, ("model.serialize_register",)),
    ("model.parse_register_us", "us", 1e6, ("model.parse_register",)),
    ("render.svg_ms", "ms", 1e3, ("render.render_svg", "render.render_trace")),
    ("render.text_ms", "ms", 1e3, ("render.render_text",)),
)
# (metric, span name): total seconds per cycle
PER_CYCLE = (
    ("engine.noop_instr_s", "engine.run_instruction:noop"),
    ("engine.run_many_s", "engine.run_many"),
    ("render.trace_s", "render.render_trace"),
)
CANONICAL = ("engine.run_instruction", "engine.run_instruction:noop")


def per_layer(calls: dict, cycle: dict, n_cycles: int, counters: dict) -> dict:
    """Per-layer metrics: per call from every traced span (set-up included),
    per cycle from the traced cycles' spans, and the cycle's counters."""

    def durations(*names):
        return [d for name in names for d in calls.get(name, {}).get("durations", [])]

    m = {}
    for name, unit, scale, spans_ in PER_CALL:
        xs = durations(*spans_)
        if xs:
            m[name] = (sum(xs) / len(xs) * scale, unit)
    for name, span in PER_CYCLE:
        if span in cycle:
            m[name] = (cycle[span]["total_s"] / n_cycles, "s")
    instr = durations(*CANONICAL)
    m["engine.us_per_reaction"] = (sum(instr) / sum(calls[k]["work"] for k in CANONICAL if k in calls) * 1e6, "us")
    m["engine.instr_us_p50"] = (quantile(instr, 0.5) * 1e6, "us")
    m["engine.instr_us_p99"] = (quantile(instr, 0.99) * 1e6, "us")
    verify = durations("engine.run_instruction:verify")
    if verify:
        m["engine.verify_instr_ms_p50"] = (quantile(verify, 0.5) * 1e3, "ms")
    m["tm.steps"] = (cycle.get("tm.tm_step", {}).get("calls", 0) // n_cycles, "count")
    layers: dict[str, float] = {}
    for name, rec in cycle.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + rec["self_s"]
    for layer, self_s in sorted(layers.items()):
        m[f"{layer}.self_s"] = (self_s / n_cycles, "s")
    m.update(counter_metrics(counters))
    return m


def counter_metrics(counters: dict) -> dict:
    """Deterministic per-cycle counts, named as metrics."""
    m = {}
    for key in sorted(counters):
        if key.startswith(("engine.reactions", "compiler.")):
            m[key] = (counters[key], "count")
    if counters.get("engine.instructions"):
        m["engine.useful_instr_frac"] = (
            counters["engine.useful_instructions"] / counters["engine.instructions"], "ratio")
    if "verify.budget_hits" in counters:
        m["engine.verify_budget_hits"] = (counters["verify.budget_hits"], "count")
    if "render.panels" in counters:
        m["render.panels"] = (counters["render.panels"], "count")
    return m


def run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]()
    failures: list[str] = []
    try:
        if args.trace:
            workload.setup(args.seed)
            reference = measure(workload, 0.0)
            recorder = spans.SpanRecorder()
            recorder.install(MODULES)
            try:
                workload.setup(args.seed)
                mark = len(recorder)
                cycles = measure(workload, args.seconds - reference[0].wall_s["raw"])
            finally:
                recorder.uninstall()
            counters = counters_of(cycles, failures)
            if dict(reference[0].counters) != counters:
                failures.append("traced counters differ from the untraced cycle")
            metrics = per_layer(recorder.summary(), recorder.summary(mark), len(cycles), counters)
            metrics["trace.overhead_ratio"] = (
                median([c.wall_s["norm"] for c in cycles]) / reference[0].wall_s["norm"], "x")
            wall_clock = {}
            OUT.mkdir(parents=True, exist_ok=True)
            recorder.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
            cycles = reference + cycles
        else:
            setups = timed_setups(workload, args.seed, SETUP_REPEATS)
            cycles = measure(workload, args.seconds)
            counters = counters_of(cycles, failures)
            metrics = end_to_end(setups, cycles, counters, "norm")
            wall_clock = end_to_end(setups, cycles, counters, "raw")
    except workloads.SetupError as e:
        fail(f"{args.workload} seed {args.seed}: {e}")
    finally:
        work = getattr(workload, "work", None)
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)

    attempted = sum(c.attempted for c in cycles)
    failures += [f for c in cycles for f in c.failures]
    threads, children = threads_and_children()
    if threads > nproc() or children:
        failures.append(f"used {threads} threads and {children} child processes")
    failed = len(failures)
    metrics.setdefault("fail_frac", (failed / max(attempted, 1), "ratio"))

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cycle_wall_s": [c.wall_s["raw"] for c in cycles],
        "probe_ms_p50": median([p for c in cycles for p in c.probe_s]) * 1e3,
        "stamp": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": nproc(),
            "commit": commit(),
            "source_sha256": source_digest(),
            "threads": threads,
            "child_processes": children,
        },
        "counters": counters,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
        "wall_clock": {k: {"value": v, "unit": u} for k, (v, u) in sorted(wall_clock.items())},
        "failures": failures[:20],
    }
    missing = [w["name"] for w in wanted if w["name"] not in metrics]
    if missing:
        fail(f"{args.workload} measured no {', '.join(missing)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            w["name"]: {"value": metrics[w["name"]][0], "unit": w["unit"]} for w in wanted
        },
    }
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    timings = [{"step_s": c.step_s, "probe_s": c.probe_s} for c in cycles]
    (OUT / name).write_text(
        json.dumps({"report": report, "result": result, "cycles": timings}, indent=1) + "\n")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    for f in failures[:20]:
        print(f"perfbench: FAILED {f}", file=sys.stderr)
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(ap.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
