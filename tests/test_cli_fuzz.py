"""A seeded, bounded fuzz gate over the command line.

Every command gets drawn arguments and input files that are valid files
with a few bytes deleted, inserted or cut off.  Whatever it is given, the
CLI must exit with a documented code (0 ok, 2 input error, 3 nonconfluent
or no outcome, 4 oracle mismatch) and must not print a traceback, and a
failure with code 3 or 4 must name one of the drawn input files.

Inserted bytes carry no digits, and every numeric flag is small, so no
drawn input asks for a register of more than a few hundred cells.
"""
from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from simdna.cli import main
from simdna.compiler import compile_tm, encode_config, serialize_compiled
from simdna.model import serialize_register
from simdna.tm import TMConfig, parse_tm_spec

ROOT = Path(__file__).resolve().parent.parent
MACHINE = (ROOT / "machines" / "increment.yaml").read_bytes()
RACE_PROGRAM = json.dumps({
    "layout": {"cells": 1, "domains_per_cell": 6},
    "instructions": [{"label": "race", "strands": [
        {"orientation": "fwd", "tokens": [{"m": 1}, {"m": 2}, {"m": 3}, {"m": 4}]},
        {"orientation": "fwd", "tokens": [{"m": 3}, {"m": 4}, {"m": 5}, {"m": 6}]},
    ]}],
}).encode()
RACE_REGISTER = b'{"layout": {"cells": 1, "domains_per_cell": 6}, "strands": [{"offset": 2, "tokens": [{"m": 3}, {"m": 4}]}]}'
STYLE = b'{"unit_width": 6, "palette": ["#111111", "#222222"]}'
NOISE = b'{}[]":,._- \n\tamoxyz\x00\xc3\xff'


def _seed_files() -> dict[str, bytes]:
    spec = parse_tm_spec(MACHINE)
    cp = compile_tm(spec, 3)
    reg = encode_config(spec, cp.scheme, TMConfig(("0", "1", "_"), 1, "a"), 3)[0]
    files = {
        "machine": MACHINE,
        "program": serialize_compiled(cp),
        "register": serialize_register(reg),
        "race-program": RACE_PROGRAM,
        "race-register": RACE_REGISTER,
        "style": STYLE,
    }
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name in ("program", "register"):
            paths.append(Path(tmp) / name)
            paths[-1].write_bytes(files[name])
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", *map(str, paths), "--out-dir", tmp]) == 0
        files["trace"] = b"".join((Path(tmp) / "trace-0.jsonl").read_bytes().splitlines(True)[:4])
    return files


SEEDS = _seed_files()


@st.composite
def mutated(draw, kinds: tuple[str, ...]) -> bytes:
    """One of the seed files ``kinds``, often untouched."""
    data = bytearray(SEEDS[draw(st.sampled_from(kinds))])
    for _ in range(draw(st.sampled_from((0, 0, 1, 2, 3)))):
        op = draw(st.sampled_from(("delete", "insert", "truncate")))
        i = draw(st.integers(0, len(data)))
        if op == "delete":
            del data[i : i + draw(st.integers(1, 8))]
        elif op == "insert":
            data[i:i] = bytes(draw(st.lists(st.sampled_from(NOISE), min_size=1, max_size=4)))
        else:
            del data[i:]
    return bytes(data)


small = st.one_of(st.integers(1, 4), st.integers(-2, 5)).map(str)
optional = st.booleans()


@st.composite
def invocation(draw) -> tuple[list, dict[str, bytes]]:
    """Arguments, with ``{name}`` standing for the path of a drawn file."""
    command = draw(st.sampled_from(("compile", "simulate", "check", "run-tm", "render")))
    files: dict[str, bytes] = {}
    if command == "compile":
        files["m"] = draw(mutated(("machine",)))
        argv = ["compile", "{m}", "--cells", draw(small)]
        if draw(optional):
            argv += ["-o", "{out}/prog.json"]
    elif command == "run-tm":
        files["m"] = draw(mutated(("machine",)))
        argv = ["run-tm", "{m}", "--cells", draw(small), "--max-iters", draw(small)]
        if draw(optional):
            argv += ["--input", draw(st.text("01_x", max_size=5))]
        for flag in ("--oracle", "--verify"):
            if draw(optional):
                argv.append(flag)
        if draw(optional):
            argv += ["--max-states", draw(small)]
        if draw(optional):
            argv += ["--out-dir", "{out}/tm"]
    elif command in ("simulate", "check"):
        race = draw(optional)
        files["p"] = draw(mutated(("race-program",) if race else ("program",)))
        files["r"] = draw(mutated(("race-register",) if race else ("register",)))
        argv = [command, "{p}", "{r}"]
        if command == "simulate":
            argv += ["-n", draw(small)] + (["--verify"] if draw(optional) else [])
        if draw(optional):
            argv += ["--max-states", draw(small)]
        if draw(optional):
            argv += ["--out-dir", "{out}/sim"]
    else:
        files["i"] = draw(mutated(("register", "trace", "race-register", "program")))
        argv = ["render", "{i}", "--format", draw(st.sampled_from(("svg", "text")))]
        if draw(optional):
            argv += ["--every", draw(small)]
        if draw(optional):
            files["s"] = draw(mutated(("style",)))
            argv += ["--style", "{s}"]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(("--bogus", "-", "", "-n"))))
    return argv, files


@settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(invocation())
def test_cli_exits_with_a_documented_code(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        names = {"out": tmp}
        for key, raw in files.items():
            names[key] = str(Path(tmp) / key)
            Path(names[key]).write_bytes(raw)
        argv = [arg.format(**names) for arg in argv]
        out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:  # argparse refuses the arguments
                code = e.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    # a failure of the run, not of the arguments, names the input it concerns
    if code in (3, 4):
        assert any(names[key] in err.getvalue() for key in files), (argv, err.getvalue())
