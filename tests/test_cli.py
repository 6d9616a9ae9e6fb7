from __future__ import annotations

import errno
import hashlib
import json
import os
import random
import sys
import time
from pathlib import Path

import pytest
import yaml

from simdna import render
from simdna.cli import TraceWriter, main
from simdna.compiler import encode_config
from simdna.model import (
    MAX_POSITIONS,
    BoundStrand,
    Match,
    Ortho,
    RegisterLayout,
    RegisterState,
    fwd,
    parse_register,
    register_doc,
    serialize_register,
)
from simdna.tm import TMConfig


@pytest.fixture()
def prog_path(tmp_path, increment_path):
    out = tmp_path / "prog.json"
    assert main(["compile", str(increment_path), "--cells", "3", "-o", str(out)]) == 0
    return out


@pytest.fixture()
def reg_path(tmp_path, increment_spec, increment_compiled_s3):
    cp = increment_compiled_s3
    reg, _ = encode_config(increment_spec, cp.scheme, TMConfig(("0", "1", "_"), 1, "a"), 3)
    p = tmp_path / "reg.json"
    p.write_bytes(serialize_register(reg))
    return p


def test_compile_stats_line(capsys, tmp_path, increment_path):
    out = tmp_path / "p.json"
    code = main(["compile", str(increment_path), "--cells", "3", "-o", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "t=5 d=18" in captured.out
    assert "nucleotides(k=7)=378" in captured.out
    doc = json.loads(out.read_bytes())
    assert doc["stats"]["d"] == 18
    assert doc["stats"]["instructions"] == len(doc["instructions"])


def test_compile_d72(capsys, tmp_path):
    # 32-transition machine: 11 states chained through all three symbols
    table = {}
    states = [f"q{i}" for i in range(11)]
    count = 0
    for q in states:
        table[q] = {}
        for sym in ("0", "1", "_"):
            if count == 32:
                break
            table[q][sym] = {"write": "0", "move": "R", "next": states[(count + 1) % 11]}
            count += 1
    doc = {"start state": "q0", "halt state": "halt", "table": table}
    p = tmp_path / "big.json"
    p.write_text(json.dumps(doc))
    assert main(["compile", str(p), "--cells", "2", "-o", str(tmp_path / "out.json")]) == 0
    assert "d=72" in capsys.readouterr().out


def test_compile_malformed_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text("table: {a: {9: {write: 0, move: R, next: a}}}\nstart state: a\nhalt state: h\n")
    assert main(["compile", str(p), "--cells", "3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_empty_program_identity(tmp_path, reg_path, capsys):
    prog = tmp_path / "empty.json"
    prog.write_bytes(b'{"layout":{"cells":3,"domains_per_cell":18},"instructions":[]}')
    out_dir = tmp_path / "sim"
    code = main(["simulate", str(prog), str(reg_path), "--out-dir", str(out_dir)])
    assert code == 0
    assert (out_dir / "final-0.json").read_bytes().strip() == reg_path.read_bytes().strip()
    assert (out_dir / "manifest.json").exists()


def test_simulate_two_iterations_matches_library(
    tmp_path, prog_path, reg_path, increment_spec, increment_compiled_s3, capsys
):
    from simdna.compiler import decode_register
    from simdna.model import parse_register

    out_dir = tmp_path / "sim"
    code = main([
        "simulate", str(prog_path), str(reg_path), "--iterations", "2",
        "--out-dir", str(out_dir),
    ])
    assert code == 0
    final = parse_register((out_dir / "final-0.json").read_bytes())
    decoded = decode_register(increment_spec, increment_compiled_s3.scheme, final)
    assert decoded == TMConfig(("0", "1", "_"), 1, "b")
    # trace lines carry instruction indices, hashes, and states
    lines = (out_dir / "trace-0.jsonl").read_bytes().splitlines()
    assert len(lines) == 2 * increment_compiled_s3.stats.instruction_count
    first = json.loads(lines[0])
    assert set(first) == {"instr", "label", "applied", "state_hash", "state"}


def test_run_tm_oracle(increment_path, capsys):
    code = main([
        "run-tm", str(increment_path), "--input", "01", "--cells", "3", "--oracle",
    ])
    assert code == 0
    assert capsys.readouterr().out.strip() == "10_"


def test_run_tm_default_input_from_file(increment_path, capsys):
    code = main(["run-tm", str(increment_path), "--cells", "3"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "10_"


def test_run_tm_zero_iters_prints_initial(increment_path, capsys):
    code = main([
        "run-tm", str(increment_path), "--input", "01", "--cells", "3",
        "--max-iters", "0",
    ])
    assert code == 0
    assert capsys.readouterr().out.strip() == "01_"


def test_run_tm_space_bound_stops_clean(increment_path, capsys):
    # all-ones input carries past the leftmost cell; the oracle reports the
    # bound violation and the run stops without a mismatch
    code = main([
        "run-tm", str(increment_path), "--input", "111", "--cells", "4", "--oracle",
    ])
    assert code == 0
    err = capsys.readouterr().err
    assert "off the tape" in err


def test_run_tm_notes_a_start_the_register_cannot_show(tmp_path, capsys):
    # no transition reads the start state's symbol: the head is erased
    machine = tmp_path / "m.yaml"
    machine.write_text("start state: a\nhalt state: h\ntable: {a: {1: {write: 0, move: R, next: h}}}\n")
    assert main(["run-tm", str(machine), "--input", "0", "--cells", "2", "--oracle"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "note: initial configuration is not head-representable\n"
    assert captured.out == "0_\n"


def test_check_alias_ok(prog_path, reg_path):
    assert main(["check", str(prog_path), str(reg_path)]) == 0


@pytest.mark.parametrize("command, flags", [("simulate", ["--verify", "-n", "1"]), ("check", [])])
def test_manifest_names_the_command_given(tmp_path, prog_path, reg_path, command, flags):
    out_dir = tmp_path / "out"
    assert main([command, str(prog_path), str(reg_path), *flags, "--out-dir", str(out_dir)]) == 0
    assert json.loads((out_dir / "manifest.json").read_bytes())["command"] == command


def test_run_tm_oracle_mismatch_exits_4(monkeypatch, increment_path, capsys):
    from simdna import cli

    # an oracle that stays put disagrees with the register, which moves
    monkeypatch.setattr(cli, "tm_step", lambda spec, config: config)
    argv = ["run-tm", str(increment_path), "--input", "01", "--cells", "3", "--oracle"]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert "oracle mismatch at iteration 1" in captured.err and captured.out == ""


def test_run_tm_register_that_no_longer_decodes_exits_4(monkeypatch, increment_path, capsys):
    from simdna import compiler

    decode = compiler.decode_register
    calls = []

    def garbled_after_the_first_pass(*args):
        calls.append(args)
        if len(calls) == 2:
            raise compiler.DecodeError("garbled")
        return decode(*args)

    monkeypatch.setattr(compiler, "decode_register", garbled_after_the_first_pass)
    assert main(["run-tm", str(increment_path), "--input", "01", "--cells", "3"]) == 4
    captured = capsys.readouterr()
    assert "iteration 1: register no longer decodes: garbled" in captured.err and captured.out == ""


def test_traces_hold_one_line_per_instruction_run(tmp_path, prog_path, reg_path, increment_path):
    # no instruction run: both commands write an empty trace
    assert main(["simulate", str(prog_path), str(reg_path), "-n", "0", "--out-dir", str(tmp_path / "sim0")]) == 0
    assert (tmp_path / "sim0" / "trace-0.jsonl").read_bytes() == b""
    tm_argv = ["run-tm", str(increment_path), "--cells", "3", "--out-dir"]
    assert main([*tm_argv, str(tmp_path / "tm0"), "--max-iters", "0"]) == 0
    assert (tmp_path / "tm0" / "trace.jsonl").read_bytes() == b""
    instructions = len(json.loads(prog_path.read_text())["instructions"])
    assert main(["simulate", str(prog_path), str(reg_path), "--out-dir", str(tmp_path / "sim1")]) == 0
    assert main([*tm_argv, str(tmp_path / "tm1"), "--max-iters", "1"]) == 0
    for trace in (tmp_path / "sim1" / "trace-0.jsonl", tmp_path / "tm1" / "trace.jsonl"):
        raw = trace.read_bytes()
        assert raw.endswith(b"}\n") and raw.count(b"\n") == instructions


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("check", "--max-states", "0"),
        ("check", "--max-states", "-5"),
        ("simulate", "--max-states", "0"),
        ("simulate", "--iterations", "-1"),
        ("simulate", "-n", "-1"),
        ("run-tm", "--max-iters", "-1"),
        ("run-tm", "--max-states", "0"),
        ("run-tm", "--cells", "0"),
        ("compile", "--cells", "1"),
    ],
)
def test_meaningless_numeric_flags_exit_2(capsys, prog_path, reg_path, increment_path, command, flag, value):
    inputs = {"run-tm": [str(increment_path), "--cells", "3"], "compile": [str(increment_path)]}.get(
        command, [str(prog_path), str(reg_path)]
    )
    capsys.readouterr()
    assert main([command, *inputs, flag, value]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert ("--iterations" if flag == "-n" else flag) in err


# two four-token challengers over one incumbent: order decides the final
RACE_PROGRAM = {
    "layout": {"cells": 1, "domains_per_cell": 6},
    "instructions": [
        {
            "label": "race",
            "strands": [
                {"orientation": "fwd", "tokens": [{"m": 1}, {"m": 2}, {"m": 3}, {"m": 4}]},
                {"orientation": "fwd", "tokens": [{"m": 3}, {"m": 4}, {"m": 5}, {"m": 6}]},
            ],
        }
    ],
}
RACE_REGISTER = {
    "layout": {"cells": 1, "domains_per_cell": 6},
    "strands": [{"offset": 2, "tokens": [{"m": 3}, {"m": 4}]}],
}


def _check_race(tmp_path) -> Path:
    prog = tmp_path / "race.json"
    prog.write_text(json.dumps(RACE_PROGRAM))
    reg = tmp_path / "race-reg.json"
    reg.write_text(json.dumps(RACE_REGISTER))
    out_dir = tmp_path / "race"
    assert main(["check", str(prog), str(reg), "--out-dir", str(out_dir)]) == 3
    return out_dir / "nonconfluent-0.json"


def test_nonconfluent_program_exit_3(tmp_path, capsys):
    cx_path = _check_race(tmp_path)
    cx = json.loads(cx_path.read_text())
    assert cx["final_a"] != cx["final_b"]
    # a register whose run fails leaves no trace file
    assert not (cx_path.parent / "trace-0.jsonl").exists()


# on an empty cell the canonical run of 'loopy' revisits a state; on a
# fully covered one nothing fires
LOOPY_PROGRAM = {
    "layout": {"cells": 1, "domains_per_cell": 6},
    "instructions": [
        {
            "label": "loopy",
            "strands": [
                {"orientation": "fwd", "tokens": [{"m": 2}, {"m": 3}, {"m": 4}]},
                {"orientation": "fwd", "tokens": [{"m": 3}, {"m": 4}, {"m": 5}]},
                {"orientation": "fwd", "tokens": [{"m": 6}, {"m": 1}]},
            ],
        }
    ],
}


@pytest.mark.parametrize("argv, failure", [
    (["simulate", "{loopy}", "{covered}", "{empty}"],
     "error: register 1 ({empty}): instruction 1: reaction loop revisited a state while applying 'loopy'"),
    (["check", "{loopy}", "{covered}", "{empty}", "--max-states", "1"],
     "error: register 1 ({empty}): instruction 1: confluence search of 'loopy' exceeded 1 distinct states"),
    (["run-tm", "{machine}", "--input", "01", "--cells", "3", "--verify", "--max-states", "1"],
     "error: {machine}: iteration 1: instruction 1: confluence search of 'pre-plug' exceeded 1 distinct states"),
    (["check", "{race}", "{race_reg}"],
     "nonconfluent: register 0 ({race_reg}): instruction 1: instruction 'race' is not confluent: "
     "1-step and 1-step orders end in different states"),
    (["check", "{race}", "{race_reg}", "--out-dir", "{out}"],
     "nonconfluent: register 0 ({race_reg}): counterexample in {out}/nonconfluent-0.json: instruction 1: "
     "instruction 'race' is not confluent: 1-step and 1-step orders end in different states"),
], ids=["reaction-loop", "state-budget", "run-tm-state-budget", "nonconfluent", "nonconfluent-out-dir"])
def test_engine_failure_names_the_register_and_its_file(tmp_path, capsys, increment_path, argv, failure):
    prog = tmp_path / "loopy.json"
    prog.write_text(json.dumps(LOOPY_PROGRAM))
    covered = tmp_path / "covered.json"
    domains = [{"m": k} for k in range(1, 7)]
    covered.write_text(json.dumps({"layout": LOOPY_PROGRAM["layout"], "strands": [{"offset": 0, "tokens": domains}]}))
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"layout": LOOPY_PROGRAM["layout"], "strands": []}))
    race, race_reg = tmp_path / "race.json", tmp_path / "race-reg.json"
    race.write_text(json.dumps(RACE_PROGRAM))
    race_reg.write_text(json.dumps(RACE_REGISTER))
    names = {"loopy": prog, "covered": covered, "empty": empty, "machine": increment_path,
             "race": race, "race_reg": race_reg, "out": tmp_path / "out"}
    assert main([arg.format(**names) for arg in argv]) == 3
    assert capsys.readouterr().err == failure.format(**names) + "\n"


def test_run_tm_bad_input_exits_2(capsys, increment_path):
    assert main(["run-tm", str(increment_path), "--input", "2", "--cells", "3"]) == 2
    assert capsys.readouterr().err == "error: input may only contain 0 and 1, got ['2']\n"


def test_run_tm_bad_input_in_the_machine_file_names_it(tmp_path, capsys, increment_path):
    machine = tmp_path / "bad-input.yaml"
    machine.write_text(increment_path.read_text().replace('input: "01"', 'input: "2"'))
    assert main(["run-tm", str(machine), "--cells", "3"]) == 2
    assert capsys.readouterr().err == f"error: {machine}: input may only contain 0 and 1, got ['2']\n"


def test_render_register_svg(tmp_path, reg_path):
    out = tmp_path / "reg.svg"
    assert main(["render", str(reg_path), "-o", str(out)]) == 0
    svg = out.read_text()
    assert svg.count('class="register"') == 1


def test_render_register_text(reg_path, capsys):
    assert main(["render", str(reg_path), "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1].startswith("|")


def test_render_trace_panels(tmp_path, prog_path, reg_path, capsys):
    out_dir = tmp_path / "sim"
    main(["simulate", str(prog_path), str(reg_path), "--out-dir", str(out_dir)])
    capsys.readouterr()
    svg_path = tmp_path / "trace.svg"
    assert main(["render", str(out_dir / "trace-0.jsonl"), "-o", str(svg_path)]) == 0
    import re

    shown = [int(m) for m in re.findall(r">#(\d+) ", svg_path.read_text())]
    assert shown and shown != list(range(1, len(shown) + 1))  # gaps where inert


def test_render_missing_file(capsys):
    assert main(["render", "/nonexistent/reg.json"]) == 2


@pytest.mark.parametrize(
    "case",
    [
        "compile-input", "simulate-program", "simulate-register", "render-input",
        "compile-output", "render-output", "simulate-out-dir", "run-tm-out-dir",
    ],
)
def test_a_file_failure_names_its_path_once(tmp_path, capsys, prog_path, reg_path, increment_path, case):
    missing = tmp_path / "missing.json"
    (tmp_path / "plain").write_text("")
    blocked = tmp_path / "plain" / "out"  # its parent is a regular file
    argv, path, errno_ = {
        "compile-input": (["compile", missing, "--cells", "3"], missing, errno.ENOENT),
        "simulate-program": (["simulate", missing, reg_path], missing, errno.ENOENT),
        "simulate-register": (["simulate", prog_path, reg_path, missing], missing, errno.ENOENT),
        "render-input": (["render", missing], missing, errno.ENOENT),
        "compile-output": (["compile", increment_path, "--cells", "3", "-o", blocked], blocked, errno.ENOTDIR),
        "render-output": (["render", reg_path, "-o", blocked], blocked, errno.ENOTDIR),
        "simulate-out-dir": (["simulate", prog_path, reg_path, "--out-dir", blocked], blocked, errno.ENOTDIR),
        "run-tm-out-dir": (["run-tm", increment_path, "--cells", "3", "--out-dir", blocked], blocked, errno.ENOTDIR),
    }[case]
    capsys.readouterr()
    assert main([str(arg) for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: {path}: {os.strerror(errno_)}\n"


MACHINE_YAML = Path(__file__).resolve().parent.parent / "machines" / "increment.yaml"
TWO_LINE_TRACE = "".join(
    json.dumps({"instr": i, "state": {"layout": {"cells": 1, "domains_per_cell": 6}, "strands": []}}) + "\n"
    for i in (1, 2)
)
NEITHER_REGISTER_NOR_TRACE = "[1, 2]"
# a register whose overhang tag is a lone surrogate, legal in JSON's escapes
SURROGATE_TAG_REGISTER = json.dumps({
    "layout": {"cells": 1, "domains_per_cell": 4},
    "strands": [{"offset": 0, "tokens": [{"m": 1}, {"m": 2}, {"o": "\ud800"}]}],
})


@pytest.mark.parametrize(
    "input_text, style_text, extra",
    [
        ("{bad", None, []),
        (MACHINE_YAML.read_text(), None, []),
        ('{"instr": 1}\n{"instr": 2}\n', None, []),
        (TWO_LINE_TRACE, "{bad", []),
        (TWO_LINE_TRACE, '{"palette": 5}', []),
        (TWO_LINE_TRACE, '{"unit_width": "x"}', ["--format", "text"]),
        (TWO_LINE_TRACE, None, ["--every", "0"]),
        (TWO_LINE_TRACE, None, ["--every", "0", "--format", "text"]),
        (TWO_LINE_TRACE.replace('"instr": 2', '"instr": 2, "applied": 5'), None, []),
        (SURROGATE_TAG_REGISTER, None, []),
        (SURROGATE_TAG_REGISTER, None, ["--format", "text"]),
        (TWO_LINE_TRACE, '{"palette": ["&"]}', []),
        (TWO_LINE_TRACE, '{"palette": ["a\\"b"]}', []),
        (TWO_LINE_TRACE, '{"palette": ["\\u0001"]}', []),
        (TWO_LINE_TRACE, '{"unit_width": -5}', []),
        (TWO_LINE_TRACE, '{"lane_height": 0, "margin": -100}', []),
        (NEITHER_REGISTER_NOR_TRACE, None, []),
    ],
    ids=[
        "malformed-json", "yaml-machine", "trace-line-without-state", "style-malformed",
        "style-palette-number", "style-unit-width-string", "every-0-svg", "every-0-text",
        "applied-not-array", "surrogate-tag-svg", "surrogate-tag-text",
        "style-palette-ampersand", "style-palette-quote", "style-palette-control",
        "style-unit-width-negative", "style-margin-negative", "neither-register-nor-trace",
    ],
)
def test_render_bad_input_exits_2(tmp_path, capsys, input_text, style_text, extra):
    inp = tmp_path / "input.json"
    inp.write_text(input_text)
    argv = ["render", str(inp), *extra]
    named = "--every" if "--every" in extra else str(inp)
    if style_text is not None:
        style = tmp_path / "style.json"
        style.write_text(style_text)
        argv += ["--style", str(style)]
        named = str(style)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert named in err
    if input_text == NEITHER_REGISTER_NOR_TRACE:
        assert err == f"error: {inp}: not a register or trace file\n"


HUGE_LAYOUT = {"cells": 10**9, "domains_per_cell": 2}


@pytest.mark.parametrize("command", ["simulate", "render-register", "render-trace", "run-tm"])
def test_a_register_over_the_position_bound_exits_2(tmp_path, capsys, increment_path, command):
    # a register's first use builds tables of one entry per position, so a
    # layout of 2 * 10**9 positions would run the machine out of memory
    program = tmp_path / "program.json"
    program.write_text(json.dumps({"layout": HUGE_LAYOUT, "instructions": []}))
    register = tmp_path / "register.json"
    register.write_text(json.dumps({"layout": HUGE_LAYOUT, "strands": []}))
    trace = tmp_path / "trace.jsonl"
    state = {"layout": HUGE_LAYOUT, "strands": []}
    trace.write_text(json.dumps({"instr": 1, "label": "", "applied": [], "state": state}) + "\n")
    argv, named = {
        "simulate": (["simulate", str(program), str(register)], f"{register}: $.layout"),
        "render-register": (["render", str(register)], f"{register}: $.layout"),
        "render-trace": (["render", str(trace)], f"{trace}: trace line 1: $.state.layout"),
        "run-tm": (["run-tm", str(increment_path), "--cells", str(10**9)], "--cells 1000000000"),
    }[command]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error: {named}") and "a register has at most 1048576" in err


def test_a_register_at_the_position_bound_is_accepted(tmp_path):
    # 2**20 positions exactly: 2**19 cells of 2 domains
    layout = {"cells": 2**19, "domains_per_cell": 2}
    register = tmp_path / "register.json"
    register.write_text(json.dumps({"layout": layout, "strands": []}))
    assert parse_register(register.read_bytes()).layout.total_positions == MAX_POSITIONS == 2**20


def test_render_empty_trace_exits_2(tmp_path, prog_path, reg_path, capsys):
    # simulate -n 0 runs no instruction and writes an empty trace
    assert main(["simulate", str(prog_path), str(reg_path), "-n", "0", "--out-dir", str(tmp_path / "sim0")]) == 0
    blank = tmp_path / "blank.jsonl"
    blank.write_text(" \n\n\t\n")
    for trace in (tmp_path / "sim0" / "trace-0.jsonl", blank):
        capsys.readouterr()
        assert main(["render", str(trace), "--format", "text"]) == 2
        err = capsys.readouterr().err
        assert f"error: {trace}: trace file carries no outcomes" in err
        assert "Traceback" not in err


def test_render_one_line_trace(tmp_path, capsys):
    # a one-instruction program leaves a trace of a single line
    prog = tmp_path / "one.json"
    prog.write_text(json.dumps({**RULES_PROGRAM, "instructions": RULES_PROGRAM["instructions"][1:2]}))
    reg = tmp_path / "one-reg.json"
    reg.write_text(json.dumps(RULES_REGISTER))
    assert main(["simulate", str(prog), str(reg), "--out-dir", str(tmp_path / "one")]) == 0
    trace = tmp_path / "one" / "trace-0.jsonl"
    assert len(trace.read_bytes().splitlines()) == 1
    capsys.readouterr()
    assert main(["render", str(trace), "--format", "text"]) == 0
    assert "#1 attach" in capsys.readouterr().out
    assert main(["render", str(trace), "-o", str(tmp_path / "one.svg")]) == 0
    assert "#1 attach" in (tmp_path / "one.svg").read_text()
    # blank lines before the first line do not hide it
    padded = tmp_path / "padded.jsonl"
    padded.write_bytes(b"\n \r\n\t\n" + trace.read_bytes())
    assert main(["render", str(padded), "--format", "text"]) == 0
    assert "#1 attach" in capsys.readouterr().out


def test_outputs_byte_identical_across_runs(tmp_path, prog_path, reg_path):
    out_dir = tmp_path / "sim"
    argv = [
        "simulate", str(prog_path), str(reg_path), "--iterations", "1",
        "--out-dir", str(out_dir),
    ]
    names = ("trace-0.jsonl", "final-0.json", "manifest.json")
    assert main(argv) == 0
    first = {name: (out_dir / name).read_bytes() for name in names}
    assert main(argv) == 0
    for name in names:
        assert (out_dir / name).read_bytes() == first[name]


# --- trace bytes pinned by golden files -----------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden"

# One cell of eight domains; each instruction fires one rule:
# cooperative, attach, detach, displace, exchange.
RULES_PROGRAM = {
    "layout": {"cells": 1, "domains_per_cell": 8},
    "instructions": [
        {"label": "cooperative", "strands": [
            {"orientation": "fwd", "tokens": [{"m": 1}, {"m": 2}, {"m": 3}]},
            {"orientation": "fwd", "tokens": [{"m": 4}, {"m": 5}, {"m": 6}]},
        ]},
        {"label": "attach", "strands": [
            {"orientation": "fwd", "tokens": [{"m": 7}, {"m": 8}, {"o": "plug"}]},
        ]},
        {"label": "detach", "strands": [
            {"orientation": "rev", "tokens": [{"m": 7}, {"m": 8}, {"o": "plug"}]},
        ]},
        {"label": "displace", "strands": [
            {"orientation": "fwd", "tokens": [{"m": 4}, {"m": 5}, {"m": 6}, {"m": 7}]},
        ]},
        {"label": "exchange", "strands": [
            {"orientation": "fwd", "tokens": [{"m": 5}, {"m": 6}, {"m": 7}, {"m": 8}]},
        ]},
    ],
}
RULES_REGISTER = {
    "layout": {"cells": 1, "domains_per_cell": 8},
    "strands": [{"offset": 1, "tokens": [{"m": 2}, {"m": 3}, {"m": 4}, {"m": 5}]}],
}
# sha256 of trace-0.jsonl from `simulate -n 2` on the README's incrementor
# register (input 01, head 1, state a) at s = 3
INCREMENT_TRACE_SHA256 = "fee6660eda7c076d440ce8ea024a5c5a7ce1e8c5f4a72a8bf85e04f18ed1f6d0"


def _check_golden_bytes(name: str, payload: bytes):
    path = GOLDEN / name
    if os.environ.get("GOLDEN_REGEN"):
        path.write_bytes(payload)
    assert path.read_bytes() == payload, f"golden mismatch: {name}"


def test_trace_goldens(tmp_path, prog_path, reg_path):
    prog = tmp_path / "rules.json"
    prog.write_text(json.dumps(RULES_PROGRAM))
    reg = tmp_path / "rules-reg.json"
    reg.write_text(json.dumps(RULES_REGISTER))
    assert main(["simulate", str(prog), str(reg), "--out-dir", str(tmp_path / "rules")]) == 0
    trace = (tmp_path / "rules" / "trace-0.jsonl").read_bytes()
    _check_golden_bytes("rules.jsonl", trace)
    rules = {r["rule"] for line in trace.splitlines() for r in json.loads(line)["applied"]}
    assert rules == {"attach", "displace", "exchange", "cooperative", "detach"}

    _check_golden_bytes("nonconfluent.json", _check_race(tmp_path).read_bytes())

    out_dir = tmp_path / "inc"
    assert main(["simulate", str(prog_path), str(reg_path), "-n", "2", "--out-dir", str(out_dir)]) == 0
    digest = hashlib.sha256((out_dir / "trace-0.jsonl").read_bytes()).hexdigest()
    assert digest == INCREMENT_TRACE_SHA256


# sha256 of `render` of that trace: text, SVG at the default stride, SVG
# with --every 1; and of trace.jsonl from `run-tm --input 01 --cells 3
# --oracle --out-dir` on the same machine
INCREMENT_RENDER_SHA256 = {
    ("--format", "text"): "0e3dc758d26ffd7de686a4aeb98df3ad32b48627f0719b2503980f91d1ea65fc",
    ("--format", "svg"): "f0427f9aa3347118c7e8c96c180bd1626f1a6f93252957683d89117fabb6a10d",
    ("--format", "svg", "--every", "1"): "ccdec11b636995a1f0c2f4edd62497b376db156b4a044cfa48a1c315bed717bb",
}
RUN_TM_TRACE_SHA256 = "75fa8e3f70622d9e55f804eb8d3c533e2584d46d360a109947f355130ed6ef40"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def test_a_written_line_embeds_and_hashes_the_state_bytes():
    from simdna.engine import Attach, InstructionOutcome

    spec = fwd(Match(3), Match(4), Ortho("t"))
    state = RegisterState(RegisterLayout(2, 4), (BoundStrand(spec, 2),))
    trace = TraceWriter(["L(a,1)#2", "inert"])
    trace.add([InstructionOutcome(state, (Attach(spec, 2),)), InstructionOutcome(state, ())])
    body = serialize_register(state)
    tail = {"state": register_doc(state), "state_hash": hashlib.sha256(body).hexdigest()}
    want = [
        {"instr": 1, "label": "L(a,1)#2", "applied": [Attach(spec, 2).doc()], **tail},
        {"instr": 2, "label": "inert", "applied": [], **tail},
    ]
    assert b"".join(trace.chunks) == b"".join(_canonical(doc) + b"\n" for doc in want)


# characters that a label or state name may hold and that JSON escapes or
# spells in UTF-8: non-ASCII, a quote, a backslash and control characters
ODD_CHARACTERS = 'a\u00e9\u2603\U0001f600"\\/\x00\x1f\n\t\x7f\u2028'


def _odd_text(rng: random.Random, characters: str = ODD_CHARACTERS) -> str:
    return "".join(rng.choice(characters) for _ in range(rng.randint(0, 5)))


def _assert_written_canonically(out_dir: Path) -> int:
    """Every line of every trace in ``out_dir`` is the canon of its own
    document, with the sha256 of its state's bytes; the number of lines."""
    lines = [raw for trace in sorted(out_dir.glob("trace*.jsonl")) for raw in trace.read_bytes().splitlines()]
    for raw in lines:
        doc = json.loads(raw)
        assert raw == _canonical(doc)
        assert doc["state_hash"] == hashlib.sha256(_canonical(doc["state"])).hexdigest()
    return len(lines)


def test_every_written_line_is_the_canon_of_its_document(tmp_path):
    # random programs with odd labels over two registers of one layout, and
    # random machines with odd state names (which the compiler's labels
    # carry); each runs three passes, so that inert heads are reused
    from generators import random_instruction, random_state, random_tm
    from simdna.model import Instruction, Program, serialize_program

    rng = random.Random(11)
    inert = steps = 0
    past_bmp = False
    for case in range(8):
        first = random_state(rng)
        second = next(st for st in iter(lambda: random_state(rng), None) if st.layout == first.layout)
        instructions = [
            Instruction(random_instruction(rng, rng.choice((first, second))).species, _odd_text(rng))
            for _ in range(rng.randint(2, 6))
        ]
        paths = []
        for name, content in (("p", serialize_program(Program(first.layout, tuple(instructions)))), ("r0", serialize_register(first)), ("r1", serialize_register(second))):
            paths.append(tmp_path / f"{name}-{case}.json")
            paths[-1].write_bytes(content)
        out_dir = tmp_path / f"sim-{case}"
        assert main(["simulate", *map(str, paths), "-n", "3", "--out-dir", str(out_dir)]) == 0
        assert _assert_written_canonically(out_dir) == 2 * 3 * len(instructions)
        inert += sum(b'"applied":[]' in raw for raw in (out_dir / "trace-1.jsonl").read_bytes().splitlines())
    for case in range(6):
        spec = random_tm(rng)
        # json.dumps writes U+1F600 as an escaped surrogate pair
        names = {q: f"{q}{_odd_text(rng)}" for q in spec.states}
        past_bmp |= any("\U0001f600" in name for name in names.values())
        table: dict = {names[q]: {} for q in spec.states if q != spec.halt}
        for (q, sym), (nxt, write, move) in spec.transitions.items():
            table[names[q]][sym] = {"write": write, "move": move, "next": names[nxt]}
        machine = tmp_path / f"tm-{case}.json"
        machine.write_text(json.dumps({"start state": names[spec.start], "halt state": names[spec.halt], "table": table}))
        out_dir = tmp_path / f"tm-{case}"
        argv = ["run-tm", str(machine), "--input", "011"[: case % 3 + 1], "--cells", "4", "--max-iters", "3", "--oracle", "--out-dir", str(out_dir)]
        assert main(argv) == 0
        steps += _assert_written_canonically(out_dir)
    assert inert and steps and past_bmp


@pytest.fixture()
def increment_trace(tmp_path, prog_path, reg_path) -> Path:
    out_dir = tmp_path / "inc"
    assert main(["simulate", str(prog_path), str(reg_path), "-n", "2", "--out-dir", str(out_dir)]) == 0
    trace = out_dir / "trace-0.jsonl"
    assert _sha256(trace) == INCREMENT_TRACE_SHA256
    return trace


@pytest.mark.parametrize("flags", list(INCREMENT_RENDER_SHA256), ids=["text", "svg", "svg-every-1"])
def test_render_of_increment_trace_pinned(tmp_path, increment_trace, flags):
    out = tmp_path / "render.out"
    assert main(["render", str(increment_trace), *flags, "-o", str(out)]) == 0
    assert _sha256(out) == INCREMENT_RENDER_SHA256[flags]


@pytest.mark.parametrize("flags", list(INCREMENT_RENDER_SHA256), ids=["text", "svg", "svg-every-1"])
def test_render_of_the_trace_in_other_spacing_is_the_same(tmp_path, increment_trace, flags):
    # json.dumps spaces every separator, so no line is in the written form
    # and every state is decoded whole
    loose = tmp_path / "loose.jsonl"
    lines = increment_trace.read_bytes().splitlines()
    loose.write_text("".join(json.dumps(json.loads(raw)) + "\n" for raw in lines))
    assert b',"state":' not in loose.read_bytes()
    out = tmp_path / "render.out"
    assert main(["render", str(loose), *flags, "-o", str(out)]) == 0
    assert _sha256(out) == INCREMENT_RENDER_SHA256[flags]


@pytest.mark.parametrize("flags", list(INCREMENT_RENDER_SHA256), ids=["text", "svg", "svg-every-1"])
def test_render_writes_its_output_part_by_part(tmp_path, increment_trace, flags, monkeypatch, capsys):
    # the pinned bytes, to a file and to stdout, with the document never
    # held as one string: render_trace joins it, so render must not call it
    def whole(*args, **kwargs):
        raise AssertionError("render joined the whole document")

    monkeypatch.setattr(render, "render_trace", whole)
    capsys.readouterr()
    out = tmp_path / "render.out"
    assert main(["render", str(increment_trace), *flags, "-o", str(out)]) == 0
    assert _sha256(out) == INCREMENT_RENDER_SHA256[flags]
    assert main(["render", str(increment_trace), *flags]) == 0
    printed = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(printed).hexdigest() == INCREMENT_RENDER_SHA256[flags]


def test_run_tm_trace_pinned(tmp_path, increment_path):
    out_dir = tmp_path / "tm"
    argv = ["run-tm", str(increment_path), "--input", "01", "--cells", "3", "--oracle", "--out-dir", str(out_dir)]
    assert main(argv) == 0
    assert _sha256(out_dir / "trace.jsonl") == RUN_TM_TRACE_SHA256


def test_state_hash_is_the_sha256_of_the_state_bytes(tmp_path, increment_trace, increment_path):
    assert main(["run-tm", str(increment_path), "--input", "01", "--cells", "3", "--out-dir", str(tmp_path / "tm")]) == 0
    for trace in (increment_trace, tmp_path / "tm" / "trace.jsonl"):
        for raw in trace.read_bytes().splitlines():
            doc = json.loads(raw)
            state = _canonical(doc["state"])
            assert doc["state_hash"] == hashlib.sha256(state).hexdigest()
            assert b'"state":' + state + b',' in raw


# --- input errors name the file, and render names the trace line ---------------


@pytest.mark.parametrize("command", ["compile", "run-tm"])
def test_bad_machine_file_is_named(tmp_path, capsys, command):
    machine = tmp_path / "bad.yaml"
    machine.write_text("table: {a: [1\n")
    assert main([command, str(machine), "--cells", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {machine}: not valid YAML")
    assert "Traceback" not in err


def test_compile_refuses_a_state_name_that_is_not_text(tmp_path, capsys):
    # the YAML escape spells a lone surrogate, which no program file can hold
    machine = tmp_path / "surrogate.yaml"
    machine.write_text('start state: "\\ud800"\nhalt state: h\ntable:\n  "\\ud800": {0: {write: 1, move: R, next: h}}\n')
    out = tmp_path / "prog.json"
    assert main(["compile", str(machine), "--cells", "3", "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {machine}: table: state name '\\ud800' is not Unicode text\n"
    assert not out.exists()


def _renamed_incrementor(increment_path, name: str) -> dict:
    """The incrementor's machine document with its state ``a`` named ``name``."""
    def rename(q):
        return name if q == "a" else q

    doc = yaml.safe_load(increment_path.read_bytes())
    doc["start state"] = rename(doc["start state"])
    doc["table"] = {
        rename(q): {sym: {**entry, "next": rename(entry["next"])} for sym, entry in row.items()}
        for q, row in doc["table"].items()
    }
    return doc


@pytest.mark.parametrize("ensure_ascii", [True, False], ids=["escaped", "utf-8"])
def test_a_json_machine_may_name_a_state_past_the_basic_plane(tmp_path, capsys, increment_path, ensure_ascii):
    # json.dumps escapes the character as a surrogate pair, which the YAML
    # reader leaves as two lone surrogates: the pair is joined, and the file
    # runs as the one that spells the character in UTF-8
    machine = tmp_path / "emoji.json"
    text = json.dumps(_renamed_incrementor(increment_path, "a\U0001f600"), ensure_ascii=ensure_ascii)
    assert ("\\ud83d\\ude00" in text) is ensure_ascii
    machine.write_text(text, encoding="utf-8")
    assert main(["run-tm", str(machine), "--cells", "6"]) == 0
    assert capsys.readouterr().out == "10____\n"


def test_a_json_machine_may_not_name_a_state_with_a_lone_surrogate(tmp_path, capsys, increment_path):
    machine = tmp_path / "lone.json"
    machine.write_text(json.dumps(_renamed_incrementor(increment_path, "a\ud800")))
    assert main(["run-tm", str(machine), "--cells", "6"]) == 2
    assert capsys.readouterr().err == f"error: {machine}: table: state name 'a\\ud800' is not Unicode text\n"


@pytest.mark.parametrize("command", ["simulate", "check"])
@pytest.mark.parametrize("bad", ["program", "register"])
def test_bad_program_or_register_file_is_named(tmp_path, capsys, prog_path, reg_path, command, bad):
    broken = tmp_path / "broken.json"
    broken.write_bytes((prog_path if bad == "program" else reg_path).read_bytes()[:40])
    inputs = [broken, reg_path] if bad == "program" else [prog_path, reg_path, broken]
    assert main([command, *map(str, inputs)]) == 2
    err = capsys.readouterr().err
    assert f"error: {broken}: $: not valid UTF-8 JSON" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("depth", [995, 100_000])
@pytest.mark.parametrize(
    "case", ["machine-compile", "machine-run-tm", "program", "register-simulate", "register-render", "trace", "style"]
)
def test_input_nested_too_deeply_exits_2(tmp_path, capsys, prog_path, reg_path, case, depth):
    nest = "[" * depth + "]" * depth
    layout = '"layout": {"cells": 3, "domains_per_cell": 18}'
    machine = f"start state: a\nhalt state: h\ntable: {{a: {nest}}}\n"
    trace = TWO_LINE_TRACE.replace('"instr": 2', f'"instr": 2, "label": {nest}')
    text, argv = {
        "machine-compile": (machine, ["compile", "BAD", "--cells", "3"]),
        "machine-run-tm": (machine, ["run-tm", "BAD", "--cells", "3"]),
        "program": (f'{{{layout}, "instructions": {nest}}}', ["simulate", "BAD", reg_path]),
        "register-simulate": (f'{{{layout}, "strands": {nest}}}', ["simulate", prog_path, "BAD"]),
        "register-render": (f'{{{layout}, "strands": {nest}}}', ["render", "BAD"]),
        "trace": (trace, ["render", "BAD"]),
        "style": (f'{{"palette": {nest}}}', ["render", reg_path, "--style", "BAD"]),
    }[case]
    bad = tmp_path / "bad.in"
    bad.write_text(text)
    capsys.readouterr()
    assert main([str(bad if arg == "BAD" else arg) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "nested too deeply" in err
    assert "Traceback" not in err


def _trace_line(instr: int, strands: list) -> str:
    """A canonical trace line of a one-cell register of 6 domains."""
    state = _canonical({"layout": {"cells": 1, "domains_per_cell": 6}, "strands": strands})
    head = _canonical({"applied": [], "instr": instr, "label": ""})[:-1]
    return (head + b',"state":%s,"state_hash":"%s"}\n' % (state, hashlib.sha256(state).hexdigest().encode())).decode()


@pytest.mark.parametrize(
    "case",
    ["machine-yaml", "machine-json", "program", "register", "trace-head", "trace-tail", "style"],
)
def test_an_integer_too_long_to_convert_exits_2(tmp_path, capsys, prog_path, reg_path, case):
    # json.loads and yaml.safe_load raise a bare ValueError for it
    big = "1" + "0" * sys.get_int_max_str_digits()
    layout = '"layout": {"cells": 3, "domains_per_cell": 18}'
    strand = {"offset": 0, "tokens": [{"m": 1}, {"m": 2}]}
    trace = _trace_line(1, [strand]) + _trace_line(2, [strand])
    text, argv = {
        "machine-yaml": (f"start state: a\nhalt state: h\ntable: {{a: {{0: {{write: {big}}}}}}}\n", ["compile", "BAD", "--cells", "3"]),
        "machine-json": (
            f'{{"start state": "a", "halt state": "h", "table": {{"a": {{"0": {{"write": {big}}}}}}}}}',
            ["run-tm", "BAD", "--cells", "3"],
        ),
        "program": (f'{{{layout}, "instructions": [{{"strands": [{{"tokens": [{{"m": {big}}}]}}]}}]}}', ["simulate", "BAD", reg_path]),
        "register": (f'{{{layout}, "strands": [{{"offset": {big}, "tokens": [{{"m": 1}}, {{"m": 2}}]}}]}}', ["render", "BAD"]),
        "trace-head": (trace.replace('"instr":2', f'"instr":{big}'), ["render", "BAD", "--format", "text"]),
        # the line splits, so the offset is met in the tail read on its own
        "trace-tail": (trace[: trace.index("\n") + 1] + trace[trace.index("\n") + 1 :].replace('"offset":0', f'"offset":{big}'), ["render", "BAD"]),
        "style": ('{"unit_width": %s}' % big, ["render", reg_path, "--style", "BAD"]),
    }[case]
    bad = tmp_path / "bad.in"
    bad.write_text(text)
    capsys.readouterr()
    assert main([str(bad if arg == "BAD" else arg) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "Traceback" not in err
    if case == "trace-tail":
        assert err == f"error: {bad}: trace line 2: an integer has more than {sys.get_int_max_str_digits()} digits\n"


@pytest.mark.parametrize("case", ["lost-4-bytes", "lost-2-bytes", "long-integer", "long-instr"])
def test_a_trace_whose_first_line_does_not_read_names_that_line(tmp_path, capsys, case):
    # the first line tells a trace from a register file: cut short, or
    # holding an integer too long to convert (in its state or in its head,
    # whose "instr" is read unconverted), it is still a trace line
    strand = {"offset": 0, "tokens": [{"m": 1}, {"m": 2}]}
    first = _trace_line(1, [strand])
    big = "1" + "0" * 5000
    first = {
        "lost-4-bytes": first[:-5] + "\n",
        "lost-2-bytes": first[:-3] + "\n",
        "long-integer": first.replace('"offset":0', f'"offset":{big}'),
        "long-instr": first.replace('"instr":1', f'"instr":{big}'),
    }[case]
    bad = tmp_path / "bad.jsonl"
    bad.write_text(first + _trace_line(2, [strand]))
    capsys.readouterr()
    assert main(["render", str(bad)]) == 2
    err = capsys.readouterr().err
    if case in ("long-integer", "long-instr"):
        assert err == f"error: {bad}: trace line 1: an integer has more than {sys.get_int_max_str_digits()} digits\n"
    else:
        assert err.startswith(f"error: {bad}: trace line 1: not valid UTF-8 JSON: ")


@pytest.mark.parametrize("case", ["syntax-error", "cut-short"])
def test_a_pretty_printed_register_that_does_not_read_names_the_document(tmp_path, capsys, reg_path, case):
    # its first line, "{", does not parse alone, and it is no trace line
    text = json.dumps(json.loads(reg_path.read_bytes()), indent=2)
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace('"strands"', '"strands" x', 1) if case == "syntax-error" else text[: len(text) // 2])
    capsys.readouterr()
    assert main(["render", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: $: not valid UTF-8 JSON: ")


def test_simulate_refuses_a_register_of_another_layout(tmp_path, capsys, prog_path):
    other = tmp_path / "other.json"
    other.write_text('{"layout": {"cells": 4, "domains_per_cell": 18}, "strands": []}')
    assert main(["simulate", str(prog_path), str(other)]) == 2
    assert capsys.readouterr().err == f"error: {other}: register layout does not match the program\n"


@pytest.mark.parametrize("fmt", ["svg", "text"])
def test_render_names_the_line_of_a_bad_state(tmp_path, capsys, increment_trace, fmt):
    # the bad state sits on a line where nothing fired: the default SVG
    # stride does not draw it, but the line is still checked
    lines = increment_trace.read_bytes().splitlines()
    docs = [json.loads(raw) for raw in lines]
    k = max(i for i, doc in enumerate(docs) if not doc["applied"] and i > 0)
    strands = docs[k]["state"]["strands"]
    strands.append(dict(strands[0]))
    lines[k] = _canonical(docs[k])
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"\n".join(lines) + b"\n")
    capsys.readouterr()
    assert main(["render", str(bad), "--format", fmt, "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: trace line {k + 1}: $.state.strands: ")
    assert "bound by two strands" in err


@pytest.mark.parametrize("fmt", ["svg", "text"])
@pytest.mark.parametrize("label", ["\ud800", "\u0001"], ids=["lone-surrogate", "c0-control"])
def test_render_refuses_a_label_xml_cannot_hold(tmp_path, capsys, fmt, label):
    trace = tmp_path / "trace.jsonl"
    state = {"layout": {"cells": 1, "domains_per_cell": 6}, "strands": []}
    trace.write_text(json.dumps({"instr": 1, "label": label, "applied": [], "state": state}) + "\n")
    assert main(["render", str(trace), "--format", fmt, "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {trace}: trace line 1: label holds U+{ord(label):04X}")
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["svg", "text"])
@pytest.mark.parametrize(
    "head, message",
    [
        ({"instr": {"a": 1}, "label": [[1]]}, "'instr' must be an integer"),
        ({"instr": True, "label": "x"}, "'instr' must be an integer"),
        ({"instr": 1.0, "label": "x"}, "'instr' must be an integer"),
        ({"instr": 1, "label": [[1]]}, "'label' must be a string"),
        ({"instr": 1, "label": None}, "'label' must be a string"),
    ],
    ids=["object-and-nested-array", "bool-instr", "float-instr", "array-label", "null-label"],
)
def test_render_refuses_a_title_the_trace_format_does_not_write(tmp_path, capsys, fmt, head, message):
    # a trace line's "instr" is an integer and its "label" a string
    trace = tmp_path / "trace.jsonl"
    state = {"layout": {"cells": 1, "domains_per_cell": 6}, "strands": []}
    good = {"instr": 1, "label": "ok", "applied": [], "state": state}
    trace.write_text(json.dumps(good) + "\n" + json.dumps({**head, "applied": [], "state": state}) + "\n")
    assert main(["render", str(trace), "--format", fmt, "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {trace}: trace line 2: {message}")
    assert "Traceback" not in err


# --- the split trace reader agrees with a whole-line reader ---------------------


def _whole_line_scenes(text: bytes):
    """The trace reader that parses every line whole and decodes every state."""
    from simdna.model import SchemaError, _load_json, register_from_doc
    from simdna.render import RenderScene

    scenes, counts = [], []
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip():
            continue
        where = f"trace line {lineno}"
        doc = _load_json(raw, where)
        if not isinstance(doc, dict) or "state" not in doc:
            raise SchemaError(where, "missing key 'state'")
        try:
            state = register_from_doc(doc["state"])
        except SchemaError as e:
            raise SchemaError(f"{where}: $.state{e.path[1:]}", e.message) from e
        applied = doc.get("applied", [])
        if not isinstance(applied, list):
            raise SchemaError(where, "'applied' must be an array")
        instr, title = doc.get("instr", lineno), doc.get("label", "")
        if type(instr) is not int:
            raise SchemaError(where, "'instr' must be an integer")
        if type(title) is not str:
            raise SchemaError(where, "'label' must be a string")
        scenes.append(RenderScene(state, (), f"#{instr} {title}".rstrip()))
        counts.append(len(applied))
    return scenes, counts


def _reading(reader, text: bytes) -> tuple:
    from simdna.model import SchemaError

    try:
        return reader(text)
    except SchemaError as e:
        return "error", str(e)


def _retyped(raw: bytes, fix) -> bytes:
    """The line with its first strand passed through ``fix``."""
    doc = json.loads(raw)
    fix(doc["state"]["strands"][0])
    return _canonical(doc)


def _bool_offset(strand):
    strand["offset"] = bool(strand["offset"])


def _float_domain(strand):
    tok = next(t for t in strand["tokens"] if "m" in t)
    tok["m"] = float(tok["m"])


def _restranded(raw: bytes, fix) -> bytes:
    """The line, in the written form, with its strand documents passed
    through ``fix``."""
    doc = json.loads(raw)
    fix(doc["state"]["strands"])
    return _canonical(doc)


def _relaid(raw: bytes, layout: dict) -> bytes:
    doc = json.loads(raw)
    doc["state"]["layout"] = layout
    return _canonical(doc)


def _in_tail(raw: bytes, old: bytes, new: bytes) -> bytes:
    """The line with the first ``old`` of its tail replaced by ``new``."""
    cut = raw.index(b',"state":')
    assert old in raw[cut:]
    return raw[:cut] + raw[cut:].replace(old, new, 1)


def _swap_first_two(strands):
    strands[0], strands[1] = strands[1], strands[0]


def _shift_a_cell_right(strands):
    # one cell on, its tokens match the domains there, which another strand
    # holds; the first strand whose twin is not there already
    strand = next(s for s in strands if {**s, "offset": s["offset"] + 18} not in strands)
    strand["offset"] += 18


# the edited line holds a valid state other than the one it was made from
ANOTHER_STATE = "another state"
# edit of a valid trace line -> the label of the edited line (None: unchanged),
# ANOTHER_STATE, or a part of the error it raises
SPLIT_CASES = {
    "nested-mark-in-applied": (
        lambda raw: raw.replace(b'"applied":[', b'"applied":[{"rule":"x","state":1},', 1), None),
    "tail-repeats-label-and-instr": (lambda raw: raw[:-1] + b',"label":"again","instr":99}', "#99 again"),
    "tail-repeats-instr-as-object": (lambda raw: raw[:-1] + b',"instr":{"a":1}}', "'instr' must be an integer"),
    "tail-repeats-label-as-array": (lambda raw: raw[:-1] + b',"label":[[1]]}', "'label' must be a string"),
    "head-holds-a-state": (lambda raw: b'{"state":7,' + raw[1:], None),
    "head-holds-a-later-state": (lambda raw: b'{"x":1,"state":7,' + raw[1:], None),
    "bom": (lambda raw: b"\xef\xbb\xbf" + raw, "Unexpected UTF-8 BOM"),
    "empty-head": (lambda raw: b"{" + raw[raw.index(b',"state":'):], "Expecting property name"),
    "space-around-mark": (lambda raw: raw.replace(b',"state":', b' , "state" : ', 1), None),
    "space-after-mark": (lambda raw: raw.replace(b',"state":', b',"state": ', 1), None),
    "bool-offset": (lambda raw: _retyped(raw, _bool_offset), "offset: must be an integer"),
    "float-domain": (lambda raw: _retyped(raw, _float_domain), "domain index must be an integer"),
    "bad-utf8-in-head": (lambda raw: raw.replace(b'"label":"', b'"label":"\xff', 1), "invalid start byte"),
    "bad-utf8-in-tail": (lambda raw: raw[:-2] + b"\xff" + raw[-2:], "invalid start byte"),
    "bad-json-in-tail": (lambda raw: raw[:-1], "Expecting ',' delimiter"),
    # aimed at the replay, which takes only a tail in the written form
    "strands-swapped": (lambda raw: _restranded(raw, _swap_first_two), None),
    "strand-duplicated": (lambda raw: _restranded(raw, lambda s: s.append(dict(s[0]))), "bound by two strands"),
    "strand-dropped": (lambda raw: _restranded(raw, lambda s: s.pop(0)), ANOTHER_STATE),
    "strand-shifted-to-overlap": (lambda raw: _restranded(raw, _shift_a_cell_right), "bound by two strands"),
    "offset-02": (lambda raw: _in_tail(raw, b'{"offset":2,', b'{"offset":02,'), "Expecting ',' delimiter"),
    "offset-minus-0": (lambda raw: _in_tail(raw, b'{"offset":0,', b'{"offset":-0,'), None),
    "offset-2.0": (lambda raw: _in_tail(raw, b'{"offset":2,', b'{"offset":2.0,'), "offset: must be an integer"),
    "offset-true": (lambda raw: _in_tail(raw, b'{"offset":2,', b'{"offset":true,'), "offset: must be an integer"),
    "space-before-first-strand": (lambda raw: _in_tail(raw, b'"strands":[{', b'"strands":[ {'), None),
    "bom-before-tokens": (lambda raw: _in_tail(raw, b'"tokens":[', b'"tokens":\xef\xbb\xbf['), "Expecting value"),
    "uppercase-state-hash": (lambda raw: raw[:-66] + raw[-66:-2].upper() + raw[-2:], None),
    "state-hash-overwritten": (lambda raw: raw[:-81] + b"x" * 81, "Expecting ',' delimiter"),
    "key-after-state-hash": (lambda raw: raw[:-1] + b',"z":1}', None),
    "tag-holding-close": (lambda raw: _restranded(raw, lambda s: s[0]["tokens"].append({"o": "]}"})), ANOTHER_STATE),
    "tag-holding-mark": (
        lambda raw: _restranded(raw, lambda s: s[0]["tokens"].append({"o": ',{"offset":'})), ANOTHER_STATE),
    "second-layout": (lambda raw: _relaid(raw, {"cells": 4, "domains_per_cell": 18}), ANOTHER_STATE),
}


@pytest.mark.parametrize("case", list(SPLIT_CASES))
def test_split_trace_reader_agrees_with_a_whole_line_reader(increment_trace, case):
    from simdna.cli import _scenes_from_trace

    lines = increment_trace.read_bytes().splitlines()
    edit, expect = SPLIT_CASES[case]
    # the edited line follows the line it was made from, whose state is
    # valid and whose "applied" is not empty: after the whole trace, and
    # before the rest of it, whose states are then read after the edit
    j = next(i for i, raw in enumerate(lines) if b'"applied":[{' in raw)
    for k, text in (
        (len(lines) + 1, b"\n".join([*lines, edit(lines[j]), lines[j]]) + b"\n"),
        (j + 2, b"\n".join([*lines[: j + 1], edit(lines[j]), *lines[j + 1 :]]) + b"\n"),
    ):
        want = _reading(_whole_line_scenes, text)
        assert _reading(_scenes_from_trace, text) == want
        if want[0] == "error":
            assert want[1].startswith(f"trace line {k}: ") and expect in want[1]
        elif expect is ANOTHER_STATE:
            scenes = want[0]
            assert scenes[k - 1].state != scenes[j].state
            assert scenes[k - 1].label == scenes[j].label
        else:
            scenes = want[0]
            assert scenes[k - 1].state == scenes[j].state
            assert scenes[k - 1].label == (expect or scenes[j].label)


def test_delta_read_agrees_with_a_whole_line_reader_on_mutated_tails(increment_trace):
    # seeded byte substitutions, insertions and deletions in the tail of a
    # line that the replay meets after two states it has read
    from simdna.cli import _scenes_from_trace

    lines = increment_trace.read_bytes().splitlines()
    rng = random.Random(0)
    alphabet = b'0123456789-+.,:{}[]" \\motruefalsenul{"offset":'
    read = 0
    for _ in range(2400):
        i = rng.randrange(2, len(lines))
        raw = lines[i]
        p = rng.randrange(raw.index(b',"state":'), len(raw))
        c = bytes([rng.choice(alphabet)])
        edited = rng.choice([raw[:p] + c + raw[p + 1 :], raw[:p] + c + raw[p:], raw[:p] + raw[p + 1 :]])
        text = b"\n".join([lines[0], lines[i - 1], edited, raw])
        want = _reading(_whole_line_scenes, text)
        assert _reading(_scenes_from_trace, text) == want, edited
        read += want[0] != "error"
    # most edits break the line, and some still read
    assert 100 < read < 1200


def test_a_first_line_with_an_edited_tail_reads_as_the_whole_line_reader_reads_it(increment_trace):
    # seeded byte substitutions, insertions and deletions in the tail of one
    # of the first three lines, put first in the trace, where its state (when
    # it reads) seeds the replay's index; the two lines that followed the
    # line it was made from follow it, and replay from that state
    from simdna.cli import _scenes_from_trace

    lines = increment_trace.read_bytes().splitlines()
    rng = random.Random(1)
    alphabet = b'0123456789-+.,:{}[]" \\motruefalsenul{"offset":'
    read = 0
    for _ in range(1500):
        i = rng.randrange(3)
        raw = lines[i]
        p = rng.randrange(raw.index(b',"state":'), len(raw))
        c = bytes([rng.choice(alphabet)])
        edited = rng.choice([raw[:p] + c + raw[p + 1 :], raw[:p] + c + raw[p:], raw[:p] + raw[p + 1 :]])
        text = b"\n".join([edited, *lines[i + 1 : i + 3]])
        want = _reading(_whole_line_scenes, text)
        assert _reading(_scenes_from_trace, text) == want, edited
        read += want[0] != "error"
    # most edits break the line, and some still read
    assert 50 < read < 750


def test_replay_agrees_with_a_whole_line_reader_on_edits_in_place(increment_trace):
    # seeded byte edits of the first line, of a reacting line's "applied"
    # array, and of a later line's tail; the edited line stays at its place,
    # after every line before it and before the line after it.  The
    # whole-line reader reads each line on its own, so it reads only those
    # two, behind blank lines that keep their numbers
    from simdna.cli import _scenes_from_trace

    lines = increment_trace.read_bytes().splitlines()
    scenes, counts = _whole_line_scenes(b"\n".join(lines))
    reacting = [i for i, raw in enumerate(lines[:-1]) if b'"applied":[{' in raw]
    rng = random.Random(0)
    alphabet = b'0123456789-+.,:{}[]" \\motruefalsenul{"offset":'
    for place in ("first", "applied", "tail"):
        read = 0
        for _ in range(500):
            i = {"first": 0, "applied": rng.choice(reacting), "tail": rng.randrange(1, len(lines) - 1)}[place]
            raw = lines[i]
            lo, hi = {
                "first": (0, len(raw)),
                "applied": (raw.index(b'"applied":[') + 11, raw.index(b',"instr":')),
                "tail": (raw.index(b',"state":'), len(raw)),
            }[place]
            p = rng.randrange(lo, hi)
            c = bytes([rng.choice(alphabet)])
            edited = rng.choice([raw[:p] + c + raw[p + 1 :], raw[:p] + c + raw[p:], raw[:p] + raw[p + 1 :]])
            want = _reading(_whole_line_scenes, b"\n" * i + edited + b"\n" + lines[i + 1])
            if want[0] != "error":
                want = (scenes[:i] + want[0], counts[:i] + want[1])
            text = b"\n".join([*lines[:i], edited, lines[i + 1]])
            assert _reading(_scenes_from_trace, text) == want, edited
            read += want[0] != "error"
        # most edits break the line, and some still read
        assert 10 < read < 400, place


def _float_offsets(raw: bytes) -> bytes:
    """The line with every offset that its reactions name written as a
    float."""
    doc = json.loads(raw)
    for r in doc["applied"]:
        for placed in [r, *(r[k] for k in ("left", "right", "incumbent", "target") if k in r)]:
            if "offset" in placed:
                placed["offset"] = float(placed["offset"])
    return _canonical(doc)


def test_reactions_that_name_float_offsets_are_not_replayed(increment_trace):
    # a strand at offset 2.0 would encode as one at 2, so only the offset's
    # type keeps it out of a replayed state: the lines read as a whole-line
    # reader reads them, and every offset read is an int
    from simdna.cli import _scenes_from_trace

    text = b"\n".join(map(_float_offsets, increment_trace.read_bytes().splitlines()))
    assert b'.0,"' in text
    scenes, counts = _scenes_from_trace(text)
    assert (scenes, counts) == _whole_line_scenes(text)
    assert all(type(bs.offset) is int for scene in scenes for bs in scene.state.strands)


def test_a_token_list_is_parsed_anew_for_another_domain_count():
    # domain 5 is in range on a register of 6 domains per cell and not on
    # one of 4, where the attach still binds two positions: the line that
    # claims it there fails as the whole-line reader has it
    from simdna.cli import _scenes_from_trace
    from simdna.engine import Attach, InstructionOutcome

    spec = fwd(Match(1), Match(2), Match(5))
    attach = (Attach(spec, 0),)
    six, four = RegisterLayout(1, 6), RegisterLayout(1, 4)
    steps = [(six, (), ()), (six, attach, (BoundStrand(spec, 0),)), (four, (), ()), (four, attach, (BoundStrand(spec, 0),))]
    trace = TraceWriter([""] * len(steps))
    trace.add([InstructionOutcome(RegisterState(layout, strands), applied) for layout, applied, strands in steps])
    text = b"".join(trace.chunks)
    want = _reading(_whole_line_scenes, text)
    assert want == ("error", "trace line 4: $.state.strands[0].tokens[2]: domain index 5 out of range 1..4")
    assert _reading(_scenes_from_trace, text) == want


# --- the trace path does each piece of work once --------------------------------


def _counting(monkeypatch, fn, *modules) -> list:
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, fn.__name__, counted)
    return calls


def _placed(reaction: dict) -> list[dict]:
    """The documents ``{"offset", "strand"}`` of the strands that a
    reaction document adds."""
    if "left" in reaction:
        return [reaction["left"], reaction["right"]]
    return [reaction] if "strand" in reaction else []


def _named(reaction: dict) -> list[tuple[int, list]]:
    """The offset and token list of each strand that a reaction document
    removes or adds."""
    gone = [reaction[k] for k in ("incumbent", "target") if k in reaction]
    return [(s["offset"], s["tokens"]) for s in gone] + [(p["offset"], p["strand"]["tokens"]) for p in _placed(reaction)]


def test_render_decodes_each_distinct_state_once(tmp_path, monkeypatch, increment_trace):
    # one replay per distinct tail; in a trace as written, only the first
    # state is decoded whole, and each distinct strand is built once: those
    # of the first state by that read, the rest by the reactions that add them
    # (counted through both constructors, as ``hashed`` skips ``__init__``)
    from simdna import cli, model

    docs = [json.loads(raw) for raw in increment_trace.read_bytes().splitlines()]
    states = {_canonical(doc["state"]) for doc in docs}
    first = {(_canonical(s["tokens"]), s["offset"]) for s in docs[0]["state"]["strands"]}
    strands = {(_canonical(s["tokens"]), s["offset"]) for doc in docs for s in doc["state"]["strands"]}
    strands |= {(_canonical(tokens), offset) for doc in docs for r in doc["applied"] for offset, tokens in _named(r)}
    assert 1 < len(states) < len(docs) and len(first) < len(strands)
    replay, whole = cli.TraceStateReader._replay, cli.register_from_doc
    init, hashed = model.BoundStrand.__init__, model.BoundStrand.hashed
    for fmt in ("svg", "text"):
        replays = _counting(monkeypatch, replay, cli.TraceStateReader)
        wholes = _counting(monkeypatch, whole, cli)
        built = _counting(monkeypatch, init, model.BoundStrand)
        built_hashed = _counting(monkeypatch, hashed, model.BoundStrand)
        assert main(["render", str(increment_trace), "--format", fmt, "-o", str(tmp_path / "out")]) == 0
        built_as = [(_canonical(model.spec_doc(spec)["tokens"]), offset) for spec, offset in built_hashed]
        built_as += [(_canonical(model.spec_doc(bs.spec)["tokens"]), bs.offset) for bs, *_ in built]
        assert (len(replays), len(wholes)) == (len(states), 1)
        assert sorted(built_as) == sorted(strands)


def test_render_parses_each_distinct_token_list_once(tmp_path, monkeypatch, increment_trace):
    # the first state, read whole, parses the token list of each of its
    # strands; the reactions name token lists again and again, and the
    # replay parses each distinct one once
    from simdna import model

    docs = [json.loads(raw) for raw in increment_trace.read_bytes().splitlines()]
    first = [_canonical(strand["tokens"]) for strand in docs[0]["state"]["strands"]]
    named = [_canonical(tokens) for doc in docs for r in doc["applied"] for _, tokens in _named(r)]
    assert len(set(named)) < len(named)
    parse = model._parse_tokens
    for fmt in ("svg", "text"):
        calls = _counting(monkeypatch, parse, model)
        assert main(["render", str(increment_trace), "--format", fmt, "-o", str(tmp_path / "out")]) == 0
        assert sorted(_canonical(args[0]) for args in calls) == sorted(first + list(set(named)))


# a token that equals, but is not, the token {"m": 1}, and an overhang tag
# that is not Unicode text: the line that holds one fails as it would
# without the trace-wide decoding table, though its valid twin came first
TWINS = {"m-true": ("m", True), "m-float": ("m", 1.0), "lone-surrogate-tag": ("o", "\ud800")}


@pytest.mark.parametrize("case", list(TWINS))
def test_trace_wide_decoding_table_is_exact(tmp_path, capsys, increment_trace, case):
    from simdna.cli import _scenes_from_trace

    key, bad = TWINS[case]
    lines = increment_trace.read_bytes().splitlines()
    doc, i, t = next(
        (doc, i, t)
        for doc in map(json.loads, lines)
        for i, strand in enumerate(doc["state"]["strands"])
        for t, tok in enumerate(strand["tokens"])
        if key in tok and (key == "o" or tok["m"] == 1)
    )
    doc["state"]["strands"][i]["tokens"][t] = {key: bad}
    text = b"\n".join([*lines, _canonical(doc)]) + b"\n"
    want = _reading(_whole_line_scenes, text)
    assert want[0] == "error"
    assert want[1].startswith(f"trace line {len(lines) + 1}: $.state.strands[{i}].tokens[{t}]: ")
    assert _reading(_scenes_from_trace, text) == want
    trace = tmp_path / "twin.jsonl"
    trace.write_bytes(text)
    capsys.readouterr()
    assert main(["render", str(trace), "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {trace}: {want[1]}\n"


def test_render_draws_each_distinct_picture_and_color_once(tmp_path, monkeypatch, increment_trace):
    from simdna import render

    docs = [json.loads(raw) for raw in increment_trace.read_bytes().splitlines()]
    states = {_canonical(doc["state"]) for doc in docs}
    strands = [strand for doc in docs for strand in doc["state"]["strands"]]
    specs = {_canonical(strand["tokens"]) for strand in strands}
    placements = {(_canonical(strand["tokens"]), strand["offset"]) for strand in strands}
    assert 1 < len(specs) < len(placements) < len(strands)
    draws = _counting(monkeypatch, render._text_picture, render)
    lookups = _counting(monkeypatch, render.render_text, render)
    assert main(["render", str(increment_trace), "--format", "text", "-o", str(tmp_path / "out")]) == 0
    assert (len(draws), len(lookups)) == (len(states), len(docs))
    render._spec_crc.cache_clear()
    templates = _counting(monkeypatch, render._strand_template, render)
    out = tmp_path / "out.svg"
    assert main(["render", str(increment_trace), "--every", "1", "-o", str(out)]) == 0
    assert render._spec_crc.cache_info().misses == len(specs)
    # one template per placement (no strand of a trace is dashed), and one
    # polyline per strand drawn
    assert len(templates) == len(placements)
    assert out.read_text().count("<polyline ") == len(strands)


def test_equal_specs_are_one_object(increment_spec, increment_trace):
    from simdna.cli import _scenes_from_trace
    from simdna.compiler import compile_tm, serialize_compiled
    from simdna.model import parse_program

    compiled = compile_tm(increment_spec, 3)
    programs = (compiled.program, parse_program(serialize_compiled(compiled)))
    scenes, _ = _scenes_from_trace(increment_trace.read_bytes())
    species = [spec for program in programs for ins in program.instructions for spec in ins.species]
    strands = [bs.spec for scene in scenes for bs in scene.state.strands]
    one: dict = {}
    for spec in species + strands:
        assert one.setdefault(spec, spec) is spec
    # the trace holds strands the program adds
    assert set(strands) & set(species)


def test_decoded_states_share_one_strand_per_token_list_and_offset(monkeypatch, increment_trace):
    # also when one reacting line in the middle has its "applied" emptied:
    # its replay misses, so it and the first line are read whole
    from simdna import cli

    lines = increment_trace.read_bytes().splitlines()
    j = [i for i, raw in enumerate(lines) if b'"applied":[{' in raw][len(lines) // 20]
    spliced = [*lines[:j], _canonical({**json.loads(lines[j]), "applied": []}), *lines[j + 1 :]]
    whole = cli.register_from_doc
    for text, reads in ((lines, 1), (spliced, 2)):
        wholes = _counting(monkeypatch, whole, cli)
        scenes, _ = cli._scenes_from_trace(b"\n".join(text))
        assert len(wholes) == reads
        states = {id(scene.state): scene.state for scene in scenes}.values()
        strands = [bs for state in states for bs in state.strands]
        one: dict = {}
        for bs in strands:
            assert one.setdefault((bs.spec.tokens, bs.offset), bs) is bs
        # the strands repeat across distinct states
        assert 1 < len(states) and len(one) < len(strands)


@pytest.mark.parametrize("fmt", ["svg", "text"])
def test_a_second_render_compares_each_token_list_once_at_most(tmp_path, monkeypatch, increment_trace, fmt):
    from simdna import model

    docs = [json.loads(raw) for raw in increment_trace.read_bytes().splitlines()]
    lists = {_canonical(strand["tokens"]) for doc in docs for strand in doc["state"]["strands"]}
    argv = ["render", str(increment_trace), "--format", fmt, "-o", str(tmp_path / "out")]
    assert main(argv) == 0
    calls = []
    eq = model.StrandSpec.__eq__

    def counted(a, b):
        calls.append(a)
        return eq(a, b)

    monkeypatch.setattr(model.StrandSpec, "__eq__", counted)
    assert main(argv) == 0
    assert len(calls) <= len(lists)


# sha256 of the SVG renders of that trace under a style that moves every
# coordinate of a strand, at the default stride and with --every 1
STYLED_RENDER_SHA256 = {
    (): "0f8573fd6ba8aaa7a15281b0d061ffed1f2955bbc7cc6587d1bd9aec7399f945",
    ("--every", "1"): "7a75216edfa8347307bcf2cfd61f7d2dc8b27c9233050fca05d115011f0b285e",
}


@pytest.mark.parametrize("flags", list(STYLED_RENDER_SHA256), ids=["svg", "svg-every-1"])
def test_styled_render_of_increment_trace_pinned(tmp_path, increment_trace, flags):
    style = tmp_path / "style.json"
    style.write_text(json.dumps({"diag_rise": 11, "strand_gap": 2, "unit_width": 13, "stroke_width": 3}))
    out = tmp_path / "render.svg"
    assert main(["render", str(increment_trace), "--style", str(style), *flags, "-o", str(out)]) == 0
    assert _sha256(out) == STYLED_RENDER_SHA256[flags]


def test_run_tm_without_out_dir_encodes_no_trace(tmp_path, monkeypatch, increment_path):
    from simdna import cli, model

    heads = _counting(monkeypatch, model._canon, cli)
    encodes = _counting(monkeypatch, model.serialize_register, cli, model)
    argv = ["run-tm", str(increment_path), "--input", "01", "--cells", "3", "--oracle"]
    assert main(argv) == 0
    assert (len(heads), len(encodes)) == (0, 0)
    assert main([*argv, "--out-dir", str(tmp_path / "tm")]) == 0
    trace = tmp_path / "tm" / "trace.jsonl"
    written, distinct = _lines_and_states(trace)
    docs = [json.loads(raw) for raw in trace.read_bytes().splitlines()]
    reacting = sum(bool(doc["applied"]) for doc in docs)
    inert = {doc["instr"] for doc in docs if not doc["applied"]}
    assert distinct < written and reacting + len(inert) < written
    # one head per reacting line, one per instruction of the inert lines,
    # and one for manifest.json; one encoding per distinct outcome state and
    # one for final.json
    assert (len(heads), len(encodes)) == (reacting + len(inert) + 1, distinct + 1)


def _lines_and_states(trace: Path) -> tuple[int, int]:
    """The number of lines of a trace, and of distinct states they hold."""
    lines = trace.read_bytes().splitlines()
    return len(lines), len({_canonical(json.loads(raw)["state"]) for raw in lines})


def test_simulate_encodes_each_outcome_state_once(tmp_path, monkeypatch, prog_path, reg_path):
    from simdna import cli, model

    encodes = _counting(monkeypatch, model.serialize_register, cli, model)
    assert main(["simulate", str(prog_path), str(reg_path), "-n", "2", "--out-dir", str(tmp_path / "sim")]) == 0
    written, distinct = _lines_and_states(tmp_path / "sim" / "trace-0.jsonl")
    assert distinct < written
    # one per distinct outcome state, and one final encoding for final-0.json
    # and the printed hash
    assert len(encodes) == distinct + 1
    encodes.clear()
    assert main(["check", str(prog_path), str(reg_path)]) == 0
    assert len(encodes) == 1
