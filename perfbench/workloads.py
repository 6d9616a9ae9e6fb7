"""The benchmark's workloads.

Each workload draws its inputs from the seed in ``setup`` and returns, from
``steps``, the timed operations of one cycle: a fixed amount of work whose
deterministic counters must repeat exactly from cycle to cycle and between
the traced and untraced runs.  Every step checks its own output against the
Turing-machine interpreter (or against the CLI's documented behaviour) and
records a failure instead of raising.

All calls go through module attributes (``engine.run_many``, not a name
imported at load time) so that the span recorder sees them.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import statistics
import xml.etree.ElementTree as ET
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from simdna import cli, compiler, engine, model, tm

import papermachine
import probe

RULES = {
    "Attach": "attach",
    "Displace": "displace",
    "ToeholdExchange": "exchange",
    "Cooperative": "cooperative",
    "Detach": "detach",
}


class SetupError(Exception):
    """The generated inputs do not have the shape the workload promises."""


class Tally:
    """What one cycle did: attempts, failures, deterministic counters, and
    timing samples in seconds, each tagged with the step that took it."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.counters: Counter = Counter()
        self.step = 0
        self._samples: dict[str, list[tuple[float, int]]] = defaultdict(list)
        self.probe_s: list[float] = []
        self.step_s: list[float] = []
        self.views: dict[str, dict[str, list[float]]] = {}
        self.wall_s: dict[str, float] = {}

    def sample(self, key: str, seconds: float) -> None:
        self._samples[key].append((seconds, self.step))

    def finish(self, step_s: list[float], probes: list[float]) -> None:
        """Fix the cycle's timings as measured ("raw") and host-normalized
        ("norm").  ``probes`` holds the probe times before the first step and
        after each step; a step is scaled by the median of the (up to) eight
        probes nearest it, which follows the host's drift while smoothing
        out the jitter of single probes."""
        self.probe_s = probes
        self.step_s = step_s
        factors = [
            probe.REFERENCE_S / statistics.median(probes[max(0, i - 3) : i + 5])
            for i in range(len(step_s))
        ]
        for view, f in (("raw", [1.0] * len(factors)), ("norm", factors)):
            self.views[view] = {
                key: [v * f[i] for v, i in vals] for key, vals in self._samples.items()
            }
            self.wall_s[view] = sum(t * x for t, x in zip(step_s, f))

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def outcomes(self, outcomes, prefix: str = "engine") -> None:
        for out in outcomes:
            self.counters[f"{prefix}.instructions"] += 1
            self.counters[f"{prefix}.useful_instructions"] += bool(out.applied)
            for r in out.applied:
                self.counters[f"{prefix}.reactions"] += 1
                self.counters[f"{prefix}.reactions.{RULES[type(r).__name__]}"] += 1


def oracle_ok(spec, scheme, final, config) -> tuple[bool, str]:
    expected = tm.tm_step(spec, config)
    try:
        got = compiler.decode_register(spec, scheme, final)
    except compiler.DecodeError as e:
        return False, f"decode failed: {e}"
    if compiler.configs_equivalent(spec, expected, got):
        return True, ""
    return False, f"expected {expected}, decoded {got}"


def _program_counters(tally: Tally, compiled) -> None:
    prog = compiled.program
    tally.counters["compiler.instructions"] = len(prog.instructions)
    tally.counters["compiler.species"] = sum(len(i.species) for i in prog.instructions)
    tally.counters["compiler.d"] = compiled.scheme.d


def _canonical_pass_step(spec, compiled, registers, configs, control: bool = False):
    """One run_many call over ``registers``; a pass's time is its share of
    the call.  Every result is checked against tm_step.  Control passes are
    kept apart from the workload's own."""
    prefix = "control" if control else "engine"

    def step(tally: Tally) -> None:
        t0 = perf_counter()
        results = engine.run_many(registers, compiled.program)
        dt = perf_counter() - t0
        tally.sample(f"{prefix}.pass_s", dt / len(registers))
        tally.sample(f"{prefix}.run_many_s", dt)
        tally.counters[f"{prefix}.passes"] += len(registers)
        for (final, outcomes), config in zip(results, configs):
            tally.outcomes(outcomes, prefix)
            ok, why = oracle_ok(spec, compiled.scheme, final, config)
            tally.check(ok, f"pass of {config}: {why}")

    return step


def incrementor_configs(spec, s: int, n: int, rng: random.Random):
    """``n`` distinct running configurations reachable from seeded inputs."""
    pool: dict = {}
    for _ in range(400):
        bits = "".join(rng.choice("01") for _ in range(rng.randint(1, s - 1)))
        configs, _off_tape = compiler.reachable_configs(spec, bits, s)
        for c in configs:
            if not c.is_terminal:
                pool.setdefault(c, None)
        if len(pool) >= 4 * n:
            break
    if len(pool) < n:
        raise SetupError(f"only {len(pool)} distinct configurations at s={s}")
    return rng.sample(list(pool), n)


class IncS32:
    """Binary incrementor at s = 32: distinct registers, canonical passes."""

    S = 32
    CONTROL_S = 4
    SOLUTION = 48
    CONTROL = 8

    def __init__(self, root: Path):
        self.root = root

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        spec = tm.parse_tm_spec((self.root / "machines" / "increment.yaml").read_bytes())
        self.slices = []
        for s, n, control in ((self.S, self.SOLUTION, False), (self.CONTROL_S, self.CONTROL, True)):
            compiled = compiler.compile_tm(spec, s)
            configs = incrementor_configs(spec, s, n, rng)
            regs = [compiler.encode_config(spec, compiled.scheme, c, s)[0] for c in configs]
            self.slices.append((spec, compiled, regs, configs, control))

    def steps(self):
        steps = [lambda tally: _program_counters(tally, self.slices[0][1])]
        for spec, compiled, regs, configs, control in self.slices:
            for reg, config in zip(regs, configs):
                steps.append(_canonical_pass_step(spec, compiled, [reg], [config], control))
        return steps


class PaperT32:
    """The generated t = 32 machine at s = 4: a seeded solution of repeated
    registers, and one pass verified instruction by instruction under a
    small budget."""

    S = 4
    PER_MOVE = 3
    COPIES = 2
    BUDGET = 500
    VERIFY_STEPS = 4

    def __init__(self, root: Path):
        self.root = root

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        spec = tm.parse_tm_spec(papermachine.machine_document(papermachine.MACHINE_SEED))
        compiled = compiler.compile_tm(spec, self.S)
        if (compiled.scheme.t, compiled.scheme.d) != (papermachine.T, 2 * papermachine.T + 8):
            raise SetupError(f"compiled to t={compiled.scheme.t} d={compiled.scheme.d}")
        order = list(compiled.scheme.transition_order)
        configs = papermachine.stratified_configs(spec, order, self.S, self.PER_MOVE, rng)
        self.spec, self.compiled = spec, compiled
        # one run_many call per configuration and its copies: repeats share a
        # call, and calls stay short enough for the host probe to follow
        self.groups = []
        for c in configs:
            regs = [compiler.encode_config(spec, compiled.scheme, c, self.S)[0] for _ in range(self.COPIES)]
            self.groups.append((regs, [c] * self.COPIES))
        self.verified = papermachine.left_move_config(spec, order, self.S, rng)
        self.verified_reg = compiler.encode_config(spec, compiled.scheme, self.verified, self.S)[0]

    def _verify_steps(self):
        """The verified pass, split into steps of consecutive instructions so
        the host probe brackets each part closely."""
        mode = engine.VerifyConfluent(max_states=self.BUDGET)
        instrs = self.compiled.program.instructions
        n = self.VERIFY_STEPS
        chunks = [instrs[len(instrs) * i // n : len(instrs) * (i + 1) // n] for i in range(n)]
        carry = {"state": self.verified_reg}

        def step(tally: Tally, chunk) -> None:
            state = carry["state"]
            t0 = perf_counter()
            for instr in chunk:
                try:
                    out = engine.run_instruction(state, instr, mode)
                    tally.counters["verify.decided"] += 1
                except engine.StateBudgetExceededError:
                    # undecided within budget, not a failure: carry on canonically
                    tally.counters["verify.budget_hits"] += 1
                    out = engine.run_instruction(state, instr)
                state = out.final_state
            tally.sample("verify_s", perf_counter() - t0)
            tally.counters["verify.instructions"] += len(chunk)
            carry["state"] = state

        def last(tally: Tally) -> None:
            step(tally, chunks[-1])
            ok, why = oracle_ok(self.spec, self.compiled.scheme, carry["state"], self.verified)
            tally.check(ok, f"verified pass {self.verified}: {why}")

        return [lambda tally, c=c: step(tally, c) for c in chunks[:-1]] + [last]

    def steps(self):
        steps = [lambda tally: _program_counters(tally, self.compiled)]
        for regs, configs in self.groups:
            steps.append(_canonical_pass_step(self.spec, self.compiled, regs, configs))
        return steps + self._verify_steps()


class CliTrace:
    """The incrementor at s = 16 through ``simdna.cli.main``, in process."""

    S = 16
    INPUT_BITS = 10
    ITERATIONS = 8

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        machine = self.root / "machines" / "increment.yaml"
        spec = tm.parse_tm_spec(machine.read_bytes())
        # A leading 0 keeps the carry on the tape; a trailing 0 stops it at
        # once, so run-tm takes the same number of steps for every seed.
        bits = "0" + "".join(rng.choice("01") for _ in range(self.INPUT_BITS - 2)) + "0"
        compiled = compiler.compile_tm(spec, self.S)
        config = tm.initial_config(spec, bits, self.S)
        reg = compiler.encode_config(spec, compiled.scheme, config, self.S)[0]
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        (self.work / "reg.json").write_bytes(model.serialize_register(reg) + b"\n")
        self.spec, self.compiled, self.bits, self.config = spec, compiled, bits, config
        self.first_pass_hash = None
        self.machine = str(machine)

    def _call(self, tally: Tally, sample: str, argv: list[str]) -> tuple[bool, str, float]:
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as e:  # argparse rejects the arguments
            code = e.code
        seconds = perf_counter() - t0
        tally.sample(sample, seconds)
        tally.check(code == 0, f"{argv[0]} exited {code}: {err.getvalue().strip()}")
        return code == 0, out.getvalue(), seconds

    def _passes(self, tally: Tally, seconds: float, passes: int) -> None:
        """Canonical passes run by a command, and its time, trace and oracle
        I/O included; a cycle's pass time is their pooled ratio."""
        tally.sample("engine.cli_s", seconds)
        tally.counters["engine.passes"] += passes

    def steps(self):
        w = self.work
        prog, reg, sim = str(w / "prog.json"), str(w / "reg.json"), w / "sim"
        trace = str(sim / "trace-0.jsonl")

        def compile_(tally):
            ok, _, _ = self._call(tally, "cli.compile_s", ["compile", self.machine, "--cells", str(self.S), "-o", prog])
            if ok:
                want = compiler.serialize_compiled(self.compiled) + b"\n"
                tally.check(Path(prog).read_bytes() == want, "compile wrote another program")
            _program_counters(tally, self.compiled)

        def simulate(tally):
            ok, _, seconds = self._call(tally, "cli.simulate_s", ["simulate", prog, reg, "-n", str(self.ITERATIONS), "--out-dir", str(sim)])
            self._passes(tally, seconds, self.ITERATIONS)
            if not ok:
                return
            raw = Path(trace).read_bytes()
            tally.counters["trace_bytes"] = len(raw)
            lines = [json.loads(line) for line in raw.splitlines()]
            for doc in lines:
                tally.counters["engine.instructions"] += 1
                tally.counters["engine.useful_instructions"] += bool(doc["applied"])
                tally.counters["render.panels"] += bool(doc["applied"])
                for r in doc["applied"]:
                    tally.counters["engine.reactions"] += 1
                    tally.counters[f"engine.reactions.{r['rule']}"] += 1
            self.first_pass_hash = lines[len(self.compiled.program.instructions) - 1]["state_hash"]
            expected = self.config
            for _ in range(self.ITERATIONS):
                if expected.is_terminal:
                    break
                expected = tm.tm_step(self.spec, expected)
            final = model.parse_register((sim / "final-0.json").read_bytes())
            try:
                got = compiler.decode_register(self.spec, self.compiled.scheme, final)
                same = compiler.configs_equivalent(self.spec, expected, got)
            except compiler.DecodeError:
                same = False
            tally.check(same, f"simulate -n {self.ITERATIONS} does not match tm_step")

        def render_svg(tally):
            ok, _, _ = self._call(tally, "cli.render_svg_s", ["render", trace, "--format", "svg", "-o", str(w / "trace.svg")])
            if ok:
                try:
                    ET.parse(w / "trace.svg")
                    why = ""
                except ET.ParseError as e:
                    why = f"trace SVG is not XML: {e}"
                tally.check(not why, why)

        def render_text(tally):
            ok, _, _ = self._call(tally, "cli.render_text_s", ["render", trace, "--format", "text", "-o", str(w / "trace.txt")])
            if ok:
                text = (w / "trace.txt").read_text(encoding="utf-8")
                panels = sum(line.startswith("#") for line in text.splitlines())
                tally.check(panels == tally.counters["engine.instructions"], "text render lost panels")

        def run_tm(tally):
            ok, out, seconds = self._call(tally, "cli.run_tm_s", ["run-tm", self.machine, "--input", self.bits, "--cells", str(self.S), "--oracle"])
            final, steps = tm.tm_run(self.spec, self.bits, self.S)
            self._passes(tally, seconds, steps)
            if ok:
                tally.check(out.strip() == final.tape_str(), f"run-tm printed {out.strip()!r}, tm_run gives {final.tape_str()!r}")

        def check(tally):
            ok, out, _ = self._call(tally, "verify_s", ["check", prog, reg])
            tally.counters["verify.instructions"] += len(self.compiled.program.instructions)
            tally.counters["verify.decided"] += len(self.compiled.program.instructions) if ok else 0
            if ok:
                tally.check(out.strip() == f"register 0: {self.first_pass_hash}", "check reached another state than simulate")

        return [compile_, simulate, render_svg, render_text, run_tm, check]

