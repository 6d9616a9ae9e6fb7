from __future__ import annotations

import pytest

from simdna.tm import (
    MaxStepsExceededError,
    SpaceBoundViolationError,
    TMConfig,
    TMError,
    TMSpecError,
    TMStatus,
    initial_config,
    parse_tm_document,
    parse_tm_spec,
    tm_run,
    tm_step,
)


def test_parse_increment(increment_path):
    spec, extras = parse_tm_document(increment_path.read_bytes())
    assert spec.transition_count == 5
    assert spec.start == "a" and spec.halt == "h"
    assert spec.transitions[("a", "0")] == ("a", "0", "R")
    assert spec.transitions[("b", "1")] == ("b", "0", "L")
    assert extras["input"] == "01"


def test_a_running_configuration_has_a_head():
    with pytest.raises(ValueError, match=r"^a running configuration needs a head position$"):
        TMConfig(("0",), None, "a")


def test_parse_json_equivalent():
    doc = b"""
    {"start state": "a", "halt state": "h",
     "table": {"a": {"0": {"write": "1", "move": "R", "next": "h"}}}}
    """
    spec = parse_tm_spec(doc)
    assert spec.transitions[("a", "0")] == ("h", "1", "R")


def test_parse_duplicate_symbol_entry():
    # YAML int 0 and string "0" collide on the same (state, symbol) pair
    doc = b"""
start state: a
halt state: h
table:
  a:
    0: {write: 1, move: R, next: h}
    "0": {write: 0, move: R, next: h}
"""
    with pytest.raises(TMSpecError, match="duplicate"):
        parse_tm_spec(doc)


def test_parse_unknown_state():
    doc = b"""
start state: a
halt state: h
table:
  a:
    0: {write: 1, move: R, next: z}
"""
    with pytest.raises(TMSpecError, match="unknown state"):
        parse_tm_spec(doc)


def test_parse_bad_symbol():
    doc = b"""
start state: a
halt state: h
table:
  a:
    7: {write: 1, move: R, next: h}
"""
    with pytest.raises(TMSpecError, match="symbol"):
        parse_tm_spec(doc)


def test_parse_bad_blank():
    doc = b"""
blank: "b"
start state: a
halt state: h
table:
  a:
    0: {write: 1, move: R, next: h}
"""
    with pytest.raises(TMSpecError, match="blank"):
        parse_tm_spec(doc)


def test_step_moves_right(increment_spec):
    c = TMConfig(("0", "1", "_"), 0, "a")
    nxt = tm_step(increment_spec, c)
    assert (nxt.tape, nxt.head, nxt.state) == (("0", "1", "_"), 1, "a")


def test_step_writes_and_moves_left(increment_spec):
    c = TMConfig(("0", "1", "_"), 1, "b")
    nxt = tm_step(increment_spec, c)
    assert (nxt.tape, nxt.head, nxt.state) == (("0", "0", "_"), 0, "b")


def test_step_stuck_when_undefined(increment_spec):
    c = TMConfig(("_", "1", "_"), 0, "b")
    nxt = tm_step(increment_spec, c)
    assert nxt.status is TMStatus.STUCK
    assert (nxt.tape, nxt.head, nxt.state) == (c.tape, c.head, c.state)


def test_step_into_halt_can_leave_tape(increment_spec):
    c = TMConfig(("0",), 0, "b")
    nxt = tm_step(increment_spec, c)
    assert nxt.status is TMStatus.HALTED
    assert nxt.tape == ("1",)
    assert nxt.head is None


def test_step_from_the_halt_state_halts_in_place():
    # a machine that starts in its halt state halts on its first step, and
    # a terminal configuration cannot be stepped
    spec = parse_tm_spec(b'{"start state": "h", "halt state": "h", "table": {}}')
    c = initial_config(spec, "01", 3)
    nxt = tm_step(spec, c)
    assert nxt.status is TMStatus.HALTED
    assert (nxt.tape, nxt.head, nxt.state) == (c.tape, c.head, c.state)
    with pytest.raises(TMError, match="^cannot step a terminal configuration$"):
        tm_step(spec, nxt)


def test_run_halting_on_its_last_allowed_step():
    spec = parse_tm_spec(
        b'{"start state": "a", "halt state": "h",'
        b' "table": {"a": {"0": {"write": "1", "move": "R", "next": "h"}}}}'
    )
    final, steps = tm_run(spec, "0", 2, max_steps=1)
    assert (final.tape, final.head, final.status, steps) == (("1", "_"), 1, TMStatus.HALTED, 1)


def test_run_increments(increment_spec):
    final, steps = tm_run(increment_spec, "01", 3)
    assert final.tape == ("1", "0", "_")
    assert final.status is TMStatus.HALTED
    assert steps == 5


def test_run_space_bound(increment_spec):
    with pytest.raises(SpaceBoundViolationError):
        tm_run(increment_spec, "", 1)


def test_input_too_long(increment_spec):
    with pytest.raises(TMError):
        initial_config(increment_spec, "0101", 4)


def test_max_steps():
    spec = parse_tm_spec(
        b'{"start state": "a", "halt state": "h", "table":'
        b' {"a": {"0": {"write": "0", "move": "R", "next": "b"},'
        b'        "_": {"write": "0", "move": "R", "next": "b"}},'
        b'  "b": {"0": {"write": "0", "move": "L", "next": "a"},'
        b'        "_": {"write": "0", "move": "L", "next": "a"}}}}'
    )
    with pytest.raises(MaxStepsExceededError):
        tm_run(spec, "0", 3, max_steps=50)


def test_increment_brute_force(increment_spec):
    # every input up to 8 bits whose increment fits without carrying past the
    # leftmost bit ends as binary value+1
    for n in range(1, 9):
        for v in range(2**n):
            x = format(v, f"0{n}b")
            if all(ch == "1" for ch in x):
                continue  # would carry out of the leftmost cell
            final, _ = tm_run(increment_spec, x, n + 1)
            assert final.status is TMStatus.HALTED
            result = final.tape_str().rstrip("_")
            assert int(result, 2) == v + 1, (x, result)


def test_step_purity(increment_spec):
    c = TMConfig(("0", "1", "_"), 1, "a")
    assert tm_step(increment_spec, c) == tm_step(increment_spec, c)
    assert c.tape == ("0", "1", "_")


@pytest.mark.parametrize("where, doc", [
    ("table", '{"start state": "\\ud800", "halt state": "h", "table": {"\\ud800": {}}}'),
    ("halt state", '{"start state": "a", "halt state": "\\ud800", "table": {"a": {}}}'),
], ids=["table", "halt-state"])
def test_parse_rejects_a_state_name_that_is_not_text(where, doc):
    # a JSON or YAML escape can spell a lone surrogate, which has no UTF-8
    # encoding, and state names end up in the program's tags and labels
    with pytest.raises(TMSpecError, match=rf"^{where}: state name '\\ud800' is not Unicode text$"):
        parse_tm_spec(doc.encode())


_ROW = "a: {0: {write: 1, move: R, next: h}}"


@pytest.mark.parametrize("doc, message", [
    (f"halt state: h\ntable: {{{_ROW}}}", "missing key 'start state'"),
    (f"start state: a\ntable: {{{_ROW}}}", "missing key 'halt state'"),
    ("start state: a\nhalt state: h\n", "missing key 'table'"),
    ("start state: a\nhalt state: h\ntable: [a]", "table must be a mapping of states"),
    (f"start state: a\nhalt state: h\ntable: {{{_ROW}, h: {{}}}}", "halt state 'h' must not have table entries"),
    (f"start state: z\nhalt state: h\ntable: {{{_ROW}}}", "start state 'z' not declared in table"),
    ("start state: a\nhalt state: h\ntable: {a: [0]}", "table.a: must be a mapping of symbols"),
    ("start state: a\nhalt state: h\ntable: {a: {0: R}}", "table.a.0: must be {write, move, next}"),
    ("start state: a\nhalt state: h\ntable: {a: {0: {write: 1, move: R, next: h, say: hi}}}",
     "table.a.0: unknown keys ['say']"),
    ("start state: a\nhalt state: h\ntable: {a: {0: {write: 1, move: U, next: h}}}",
     "table.a.0: move must be L or R, got 'U'"),
    ("start state: a\nhalt state: h\ntable: {a: {true: {write: 1, move: R, next: h}}}",
     "table.a: invalid symbol True"),
], ids=[
    "no-start", "no-halt", "no-table", "table-not-mapping", "halt-with-entries", "undeclared-start",
    "row-not-mapping", "entry-not-mapping", "unknown-entry-key", "bad-move", "boolean-symbol",
])
def test_machine_file_errors(doc, message):
    with pytest.raises(TMSpecError) as info:
        parse_tm_document(doc.encode())
    assert str(info.value) == message
