"""Three-symbol space-bounded Turing machines: parsing and direct execution.

This interpreter is the ground truth the compiled strand programs are checked
against.  The tape alphabet is fixed to {"0", "1", "_"}; the tape has a fixed
length ``s`` and the head must never leave it (a non-halting move off the
tape is an error).  Moving off the tape on the transition *into* the halt
state is tolerated: the machine has stopped and the head no longer matters.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping, Optional

import yaml

from .model import _is_text

SYMBOLS = ("0", "1", "_")
BLANK = "_"
MOVES = ("L", "R")


class TMError(Exception):
    pass


class TMSpecError(TMError):
    pass


class SpaceBoundViolationError(TMError):
    def __init__(self, config: "TMConfig", move: str):
        self.config = config
        self.move = move
        super().__init__(
            f"head would move {move} off the tape from cell {config.head} "
            f"in state {config.state}"
        )


class MaxStepsExceededError(TMError):
    def __init__(self, config: "TMConfig", steps: int):
        self.config = config
        self.steps = steps
        super().__init__(f"no halt within {steps} steps")


Transition = tuple[str, str, str]  # (next state, write symbol, move)
TransitionKey = tuple[str, str]  # (state, read symbol)


@dataclass(frozen=True)
class TMSpec:
    states: frozenset[str]
    start: str
    halt: str
    transitions: Mapping[TransitionKey, Transition]

    @property
    def transition_count(self) -> int:
        return len(self.transitions)

    def defined(self, state: str, symbol: str) -> bool:
        return (state, symbol) in self.transitions


class TMStatus(Enum):
    RUNNING = "running"
    HALTED = "halted"
    STUCK = "stuck"


@dataclass(frozen=True)
class TMConfig:
    tape: tuple[str, ...]
    head: Optional[int]
    state: str
    status: TMStatus = TMStatus.RUNNING

    def __post_init__(self):
        if self.head is None and self.status is TMStatus.RUNNING:
            raise ValueError("a running configuration needs a head position")

    @property
    def is_terminal(self) -> bool:
        return self.status is not TMStatus.RUNNING

    def tape_str(self) -> str:
        return "".join(self.tape)


def initial_config(spec: TMSpec, input_str: str, s: int) -> TMConfig:
    if len(input_str) >= s:
        raise TMError(f"input of length {len(input_str)} needs tape > {len(input_str)} cells")
    bad = set(input_str) - {"0", "1"}
    if bad:
        raise TMError(f"input may only contain 0 and 1, got {sorted(bad)}")
    tape = tuple(input_str) + (BLANK,) * (s - len(input_str))
    return TMConfig(tape, 0, spec.start)


def tm_step(spec: TMSpec, c: TMConfig) -> TMConfig:
    """One transition.  Undefined (state, symbol) pairs return the same
    configuration marked stuck; entering the halt state marks it halted."""
    if c.is_terminal or c.head is None:
        raise TMError("cannot step a terminal configuration")
    if c.state == spec.halt:
        return replace(c, status=TMStatus.HALTED)
    key = (c.state, c.tape[c.head])
    if key not in spec.transitions:
        return replace(c, status=TMStatus.STUCK)
    nxt, write, move = spec.transitions[key]
    tape = list(c.tape)
    tape[c.head] = write
    head: Optional[int] = c.head + (1 if move == "R" else -1)
    if nxt == spec.halt:
        if head is not None and not (0 <= head < len(tape)):
            head = None
        return TMConfig(tuple(tape), head, nxt, TMStatus.HALTED)
    if not (0 <= head < len(tape)):
        raise SpaceBoundViolationError(replace(c, tape=tuple(tape)), move)
    return TMConfig(tuple(tape), head, nxt, TMStatus.RUNNING)


def tm_run(
    spec: TMSpec, input_str: str, s: int, max_steps: int = 10_000
) -> tuple[TMConfig, int]:
    c = initial_config(spec, input_str, s)
    for n in range(max_steps):
        if c.is_terminal:
            return c, n
        c = tm_step(spec, c)
    if c.is_terminal:
        return c, max_steps
    raise MaxStepsExceededError(c, max_steps)


# --- spec files --------------------------------------------------------------
#
# YAML subset (JSON works too, since JSON is YAML):
#   input: "01"            optional; default CLI input
#   blank: "_"             optional; must be "_" when present
#   start state: a
#   halt state: h
#   table:
#     a:
#       0: {write: 0, move: R, next: a}
#       ...


def _norm_symbol(raw, where: str) -> str:
    if isinstance(raw, bool):
        raise TMSpecError(f"{where}: invalid symbol {raw!r}")
    if isinstance(raw, int):
        raw = str(raw)
    if raw not in SYMBOLS:
        raise TMSpecError(f"{where}: symbol {raw!r} not in {list(SYMBOLS)}")
    return raw


def _joined(raw) -> str:
    """``str(raw)`` with each surrogate pair joined into its character: YAML
    reads JSON's escape of a character past U+FFFF (``"\\ud83d\\ude00"``,
    as ``json.dumps`` writes it) as two lone surrogates."""
    name = str(raw)
    if name.isascii():
        return name
    return name.encode("utf-16-le", "surrogatepass").decode("utf-16-le", "surrogatepass")


def _state_name(raw, where: str) -> str:
    name = _joined(raw)
    if not _is_text(name):
        raise TMSpecError(f"{where}: state name {name!r} is not Unicode text")
    return name


def parse_tm_document(text: bytes) -> tuple[TMSpec, dict]:
    """Parse a machine file; returns the spec plus extras (e.g. default input)."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise TMSpecError(f"not valid YAML: {e}") from e
    except RecursionError as e:
        raise TMSpecError("YAML nested too deeply") from e
    except ValueError as e:  # a value Python cannot hold: a date out of range, an integer too long to convert
        raise TMSpecError(f"not valid YAML: {e}") from e
    if not isinstance(doc, dict):
        raise TMSpecError("top level must be a mapping")

    for key in ("start state", "halt state", "table"):
        if key not in doc:
            raise TMSpecError(f"missing key {key!r}")
    blank = doc.get("blank", BLANK)
    if blank != BLANK:
        raise TMSpecError(f'blank must be "_", got {blank!r}')
    start = _joined(doc["start state"])
    halt = _state_name(doc["halt state"], "halt state")
    table = doc["table"]
    if not isinstance(table, dict):
        raise TMSpecError("table must be a mapping of states")

    # the start and next states must be among these, so they are text too
    states = {_state_name(k, "table") for k in table} | {halt}
    if halt in table:
        raise TMSpecError(f"halt state {halt!r} must not have table entries")
    if start not in states:
        raise TMSpecError(f"start state {start!r} not declared in table")

    transitions: dict[TransitionKey, Transition] = {}
    for state_raw, row in table.items():
        state = _joined(state_raw)
        if not isinstance(row, dict):
            raise TMSpecError(f"table.{state}: must be a mapping of symbols")
        for sym_raw, entry in row.items():
            sym = _norm_symbol(sym_raw, f"table.{state}")
            key = (state, sym)
            if key in transitions:
                raise TMSpecError(f"duplicate transition for ({state}, {sym})")
            where = f"table.{state}.{sym}"
            if not isinstance(entry, dict):
                raise TMSpecError(f"{where}: must be {{write, move, next}}")
            missing = {"write", "move", "next"} - set(entry)
            if missing:
                raise TMSpecError(f"{where}: missing {sorted(missing)}")
            extra = set(entry) - {"write", "move", "next"}
            if extra:
                raise TMSpecError(f"{where}: unknown keys {sorted(extra)}")
            write = _norm_symbol(entry["write"], where)
            move = str(entry["move"])
            if move not in MOVES:
                raise TMSpecError(f"{where}: move must be L or R, got {move!r}")
            nxt = _joined(entry["next"])
            if nxt not in states:
                raise TMSpecError(f"{where}: unknown state {nxt!r}")
            transitions[key] = (nxt, write, move)

    spec = TMSpec(frozenset(states), start, halt, transitions)
    extras = {}
    if "input" in doc and doc["input"] is not None:
        extras["input"] = str(doc["input"])
    return spec, extras


def parse_tm_spec(text: bytes) -> TMSpec:
    return parse_tm_document(text)[0]
