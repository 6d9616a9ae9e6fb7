"""Register, strand, instruction, and program data model.

A register is one long bottom strand divided into cells of ``d`` domains
each; position ``p`` (0-indexed, left to right) carries the starred
complement of domain ``(p mod d) + 1``.  Top strands are token sequences in
left-to-right spatial order; a Match token can pair only with a register
position carrying its domain, an Ortho token never pairs with the register.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from operator import attrgetter
from typing import Optional, Union


class SchemaError(ValueError):
    """Raised when a program/register document is malformed."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


def add_where(error: Exception, place: str) -> None:
    """Put ``place`` first in ``error.where``, the places a failure
    concerns, outermost first (an input file, a register, an iteration, an
    instruction); a caller further out adds its own place before them."""
    error.where = (place, *getattr(error, "where", ()))


class Orientation(Enum):
    FORWARD = "fwd"
    REVERSE = "rev"


class _Record:
    """Base of the frozen, slotted records that are hashed again and again
    (layouts, specs, bound strands, states, instructions): the hash of their
    ``_fields`` is computed on first use and kept in the ``_hash`` slot."""

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(self._fields(self))
            object.__setattr__(self, "_hash", h)
            return h


@dataclass(frozen=True, slots=True)
class Match:
    """Token that hybridizes at register positions carrying its domain."""

    domain: int

    def __post_init__(self):
        # a bool or a float equals and hashes as an int, but is no domain
        # the file format can write
        if not isinstance(self.domain, int) or isinstance(self.domain, bool):
            raise TypeError(f"domain must be an int, got {self.domain!r}")


@dataclass(frozen=True, slots=True)
class Ortho:
    """Overhang token orthogonal to every register domain; never binds."""

    tag: str

    def __post_init__(self):
        if not (isinstance(self.tag, str) and self.tag):
            raise TypeError(f"tag must be a nonempty str, got {self.tag!r}")


Token = Union[Match, Ortho]


def token_key(tok: Token) -> tuple:
    if isinstance(tok, Match):
        return (0, tok.domain, "")
    if isinstance(tok, Ortho):
        return (1, 0, tok.tag)
    raise TypeError(f"token must be a Match or an Ortho, got {tok!r}")


@dataclass(frozen=True, slots=True)
class RegisterLayout(_Record):
    """Geometry of the bottom strand: ``cells`` cells of ``domains_per_cell``."""

    cells: int
    domains_per_cell: int
    _fields = attrgetter("cells", "domains_per_cell")
    __hash__ = _Record.__hash__

    def __post_init__(self):
        if self.cells < 1:
            raise ValueError("cells must be >= 1")
        if self.domains_per_cell < 2:
            raise ValueError("domains_per_cell must be >= 2")

    @property
    def total_positions(self) -> int:
        return self.cells * self.domains_per_cell

    def domain_at(self, position: int) -> int:
        """Domain index (1-based) exposed at an absolute register position."""
        return position % self.domains_per_cell + 1

    def contains(self, position: int) -> bool:
        return 0 <= position < self.total_positions


# The most positions a register may have: its first use builds tables of one
# entry per position (about 40 bytes each).
MAX_POSITIONS = 1 << 20


@lru_cache(maxsize=1024)
def register_layout(cells: int, domains_per_cell: int) -> RegisterLayout:
    """The one ``RegisterLayout`` of a geometry: the registers that share it
    hit the ``bound_set`` cache by identity, without comparing layouts."""
    return RegisterLayout(cells, domains_per_cell)


@dataclass(frozen=True, slots=True)
class StrandSpec(_Record):
    """A strand species: token sequence (left to right) plus orientation.

    Its facts are set when it is made: ``is_forward``, ``has_ortho`` (some
    token is an overhang) and ``sort_key()``; none takes part in equality."""

    tokens: tuple[Token, ...]
    orientation: Orientation = Orientation.FORWARD
    is_forward: bool = field(init=False, repr=False, compare=False)
    has_ortho: bool = field(init=False, repr=False, compare=False)
    _key: tuple = field(init=False, repr=False, compare=False)
    _fields = attrgetter("tokens", "orientation")
    __hash__ = _Record.__hash__

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("strand must have at least one token")
        key = (self.orientation.value, *[k for t in self.tokens for k in token_key(t)])
        object.__setattr__(self, "is_forward", self.orientation is Orientation.FORWARD)
        object.__setattr__(self, "has_ortho", any(isinstance(t, Ortho) for t in self.tokens))
        object.__setattr__(self, "_key", key)

    def sort_key(self) -> tuple:
        """The orientation, then the ``token_key`` of each token in turn, in
        one flat tuple: it orders specs as the tuple of token keys would."""
        return self._key


@lru_cache(maxsize=65536)
def strand_spec(tokens: tuple[Token, ...], orientation: Orientation) -> StrandSpec:
    """The one ``StrandSpec`` of a token list and orientation: a compiled
    program, the program parsed back and the registers of a trace share it,
    so the caches keyed by spec (``bound_set``, ``engine._species``, the
    encoders and the renderer's) hit by identity, without comparing specs."""
    return StrandSpec(tokens, orientation)


def fwd(*tokens: Token) -> StrandSpec:
    return strand_spec(tokens, Orientation.FORWARD)


def rev(*tokens: Token) -> StrandSpec:
    return strand_spec(tokens, Orientation.REVERSE)


@dataclass(frozen=True, slots=True)
class BoundStrand(_Record):
    """A forward strand sitting on the register with its leftmost token over
    ``offset``.  Edge tokens may hang off either register end; they never bind.
    """

    spec: StrandSpec
    offset: int
    _fields = attrgetter("spec", "offset")
    __hash__ = _Record.__hash__

    @classmethod
    def hashed(cls, spec: StrandSpec, offset: int) -> "BoundStrand":
        """``BoundStrand(spec, offset)`` with its hash already kept, for a
        strand that is hashed as soon as it is used (the engine's reactions
        build the strands its index keys): its first hash then skips the
        raised and caught ``AttributeError``."""
        bs = cls(spec, offset)
        object.__setattr__(bs, "_hash", hash((spec, offset)))
        return bs

    def bound_positions(self, layout: RegisterLayout) -> frozenset[int]:
        return bound_set(layout, self.spec, self.offset)

    def sort_key(self) -> tuple:
        return (self.offset, self.spec.sort_key())


@lru_cache(maxsize=65536)
def bound_set(layout: RegisterLayout, spec: StrandSpec, offset: int) -> frozenset[int]:
    """Positions a strand of ``spec`` with its leftmost token over ``offset``
    binds (or would bind): its Match tokens over a position of their domain."""
    pos = []
    for j, tok in enumerate(spec.tokens):
        p = offset + j
        if (
            isinstance(tok, Match)
            and layout.contains(p)
            and layout.domain_at(p) == tok.domain
        ):
            pos.append(p)
    return frozenset(pos)


@dataclass(frozen=True, slots=True)
class RegisterState(_Record):
    """Canonical register configuration: the strand set, sorted."""

    layout: RegisterLayout
    strands: tuple[BoundStrand, ...]
    _fields = attrgetter("layout", "strands")
    __hash__ = _Record.__hash__

    def __post_init__(self):
        ordered = tuple(sorted(self.strands, key=BoundStrand.sort_key))
        object.__setattr__(self, "strands", ordered)

    @classmethod
    def presorted(cls, layout: RegisterLayout, strands: tuple[BoundStrand, ...]) -> "RegisterState":
        """The state of ``strands``, which must already be in canonical
        (``BoundStrand.sort_key``) order; they are not sorted again."""
        state = object.__new__(cls)
        object.__setattr__(state, "layout", layout)
        object.__setattr__(state, "strands", strands)
        return state


@dataclass(frozen=True, slots=True)
class Instruction(_Record):
    """One stage: a set of strand species added in large excess, then washed."""

    species: tuple[StrandSpec, ...]
    label: str = ""
    _fields = attrgetter("species", "label")
    __hash__ = _Record.__hash__

    def __post_init__(self):
        deduped = tuple(sorted(set(self.species), key=StrandSpec.sort_key))
        object.__setattr__(self, "species", deduped)


@dataclass(frozen=True)
class Program:
    layout: RegisterLayout
    instructions: tuple[Instruction, ...]


class Occupancy:
    """The placement of strands on one register: the strand that ``owner``s
    each bound position, and the bound set of each strand (``bound_of``).

    ``add`` fills an empty placement and checks the whole lot; only the
    engine's index (``engine._Index.apply``) moves a placement by a delta."""

    def __init__(self, layout: RegisterLayout):
        self.layout = layout
        self.owner: dict[int, BoundStrand] = {}
        self.bound_of: dict[BoundStrand, frozenset[int]] = {}

    def add(self, strands) -> list[str]:
        """Place ``strands`` on this placement, which holds none yet, and
        return the violations of ``validate_state``.  Each bound set is
        looked up once, and the verdict comes from passes over the whole
        lot: every spec is forward, every bound set has two positions or
        more, and the owner map has as many positions as the bound sets
        together (none is placed twice).  These are the invariants of
        ``strand_violations``, which words them: only when the verdict fails
        is each strand tested in turn, from an empty placement."""
        layout = self.layout
        bounds = [bound_set(layout, bs.spec, bs.offset) for bs in strands]
        self.bound_of.update(zip(strands, bounds))
        owner = self.owner
        for bs, bound in zip(strands, bounds):
            for p in bound:
                owner[p] = bs
        if (
            all([bs.spec.is_forward for bs in strands])
            and min(map(len, bounds), default=2) >= 2
            and len(owner) == sum(map(len, bounds))
        ):
            return []
        violations = []
        seen: dict[int, BoundStrand] = {}
        for bs, bound in zip(strands, bounds):
            violations += strand_violations(bs, bound, seen)
            for p in bound:
                seen.setdefault(p, bs)
        return violations


def validate_state(state: RegisterState, into: Optional[Occupancy] = None) -> list[str]:
    """Check every RegisterState invariant; returns human-readable violations.

    Violations are data, not failures: the empty list means the state is
    well-formed (every strand stably bound, forward, and no register position
    owned by two strands).  The check is ``Occupancy.add`` of the state's
    strands on ``into``, an empty placement of the state's layout (the
    engine passes its index), or on a new one; so the placement it builds
    is kept by whoever passes it.
    """
    if into is None:
        into = Occupancy(state.layout)
    return into.add(state.strands)


def strand_violations(bs: BoundStrand, bound: frozenset[int], owner: dict) -> list[str]:
    """The invariants of ``validate_state`` for one strand ``bs``, bound at
    ``bound``, placed beside the strands of ``owner`` (position -> strand):
    forward, bound at two positions or more, and no position owned.  A
    strand that keeps them costs one test."""
    if bs.spec.is_forward and len(bound) >= 2 and owner.keys().isdisjoint(bound):
        return []
    violations = []
    if not bs.spec.is_forward:
        violations.append(f"reverse strand bound at offset {bs.offset}")
    if len(bound) < 2:
        violations.append(
            f"strand at offset {bs.offset} bound by {len(bound)} domain(s) "
            f"(positions {sorted(bound)}); needs at least two"
        )
    for p in bound:
        if p in owner:
            violations.append(
                f"position {p} bound by two strands "
                f"(offsets {owner[p].offset} and {bs.offset})"
            )
    return violations


# --- JSON round-trip -------------------------------------------------------
#
# Program file:  {"layout": {"cells": s, "domains_per_cell": d},
#                 "instructions": [{"label": str, "strands": [strand, ...]}]}
# Register file: {"layout": ..., "strands": [{"offset": int, "tokens": [...]}]}
# A strand in a program is {"orientation": "fwd"|"rev", "tokens": [...]};
# tokens are {"m": int} or {"o": str}.  Canonical output sorts object keys
# and carries no insignificant whitespace.


def _canon(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise SchemaError(path, message)


def _load_json(text: bytes, path: str, parse_int=None):
    """The JSON document of ``text``, which must be UTF-8 without a BOM;
    the only place input bytes become JSON.  ``parse_int`` is
    ``json.loads``'s: ``str`` leaves integers unconverted."""
    try:
        return json.loads(text.decode("utf-8"), parse_int=parse_int)
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise SchemaError(path, f"not valid UTF-8 JSON: {e}") from e
    except ValueError as e:  # the one other: an integer too long to convert
        raise SchemaError(path, f"an integer has more than {sys.get_int_max_str_digits()} digits") from e
    except RecursionError as e:
        raise SchemaError(path, "JSON nested too deeply") from e


def _parse_layout(doc, path: str) -> RegisterLayout:
    _expect(isinstance(doc, dict), path, "layout must be an object")
    for key in ("cells", "domains_per_cell"):
        _expect(key in doc, path, f"missing key {key!r}")
        _expect(
            isinstance(doc[key], int) and not isinstance(doc[key], bool),
            f"{path}.{key}",
            "must be an integer",
        )
    _expect(doc["cells"] >= 1, f"{path}.cells", "must be >= 1")
    _expect(doc["domains_per_cell"] >= 2, f"{path}.domains_per_cell", "must be >= 2")
    extra = set(doc) - {"cells", "domains_per_cell"}
    _expect(not extra, path, f"unknown keys {sorted(extra)}")
    return register_layout(doc["cells"], doc["domains_per_cell"])


def _parse_tokens(doc, path: str, d: int) -> tuple[Token, ...]:
    _expect(isinstance(doc, list), path, "tokens must be an array")
    _expect(len(doc) >= 1, path, "token list must be nonempty")
    out = []
    for tok in doc:
        if isinstance(tok, dict) and len(tok) == 1:
            if "m" in tok:
                m = tok["m"]
                if isinstance(m, int) and not isinstance(m, bool) and 1 <= m <= d:
                    out.append(Match(m))
                    continue
            else:
                o = tok.get("o")
                if isinstance(o, str) and o and _is_text(o):
                    out.append(Ortho(o))
                    continue
        _token_error(tok, f"{path}[{len(out)}]", d)
    return tuple(out)


def _is_text(s: str) -> bool:
    """Whether ``s`` is Unicode text: JSON's escapes can also spell a lone
    surrogate, which has no UTF-8 encoding."""
    return s.isascii() or not any("\ud800" <= c <= "\udfff" for c in s)


def _token_error(tok, tpath: str, d: int):
    """Raise the SchemaError that says why ``tok`` is not a valid token."""
    _expect(isinstance(tok, dict) and len(tok) == 1, tpath, 'must be {"m": int} or {"o": str}')
    if "m" in tok:
        m = tok["m"]
        _expect(isinstance(m, int) and not isinstance(m, bool), tpath, "domain index must be an integer")
        raise SchemaError(tpath, f"domain index {m} out of range 1..{d}")
    if "o" in tok:
        o = tok["o"]
        _expect(isinstance(o, str) and o, tpath, "overhang tag must be a nonempty string")
        raise SchemaError(tpath, "overhang tag must be Unicode text, without lone surrogates")
    raise SchemaError(tpath, 'must be {"m": int} or {"o": str}')


def parse_program(text: bytes) -> Program:
    doc = _load_json(text, "$")
    _expect(isinstance(doc, dict), "$", "top level must be an object")
    _expect("layout" in doc, "$", "missing key 'layout'")
    _expect("instructions" in doc, "$", "missing key 'instructions'")
    layout = _parse_layout(doc["layout"], "$.layout")
    d = layout.domains_per_cell
    instrs_doc = doc["instructions"]
    _expect(isinstance(instrs_doc, list), "$.instructions", "must be an array")
    instructions = []
    for i, idoc in enumerate(instrs_doc):
        ipath = f"$.instructions[{i}]"
        _expect(isinstance(idoc, dict), ipath, "must be an object")
        label = idoc.get("label", "")
        _expect(isinstance(label, str), f"{ipath}.label", "must be a string")
        strands_doc = idoc.get("strands", [])
        _expect(isinstance(strands_doc, list), f"{ipath}.strands", "must be an array")
        species = []
        for k, sdoc in enumerate(strands_doc):
            spath = f"{ipath}.strands[{k}]"
            _expect(isinstance(sdoc, dict), spath, "must be an object")
            orient = sdoc.get("orientation", "fwd")
            _expect(orient in ("fwd", "rev"), f"{spath}.orientation", 'must be "fwd" or "rev"')
            tokens = _parse_tokens(sdoc.get("tokens"), f"{spath}.tokens", d)
            species.append(strand_spec(tokens, Orientation(orient)))
        instructions.append(Instruction(tuple(species), label))
    return Program(layout, tuple(instructions))


def _token_doc(tok: Token) -> dict:
    if isinstance(tok, Match):
        return {"m": tok.domain}
    return {"o": tok.tag}


def _layout_doc(layout: RegisterLayout) -> dict:
    return {"cells": layout.cells, "domains_per_cell": layout.domains_per_cell}


def spec_doc(spec: StrandSpec) -> dict:
    return {"orientation": spec.orientation.value, "tokens": [_token_doc(t) for t in spec.tokens]}


def strand_doc(bs: BoundStrand) -> dict:
    return {"offset": bs.offset, "tokens": [_token_doc(t) for t in bs.spec.tokens]}


def program_doc(p: Program) -> dict:
    return {
        "layout": _layout_doc(p.layout),
        "instructions": [
            {"label": ins.label, "strands": [spec_doc(s) for s in ins.species]}
            for ins in p.instructions
        ],
    }


def serialize_program(p: Program) -> bytes:
    return _canon(program_doc(p))


def parse_register(text: bytes) -> RegisterState:
    return register_from_doc(_load_json(text, "$"))


def register_from_doc(doc) -> RegisterState:
    """Register from an already decoded JSON document (see parse_register):
    each strand's spec is ``bound_spec`` of its token list, and the state
    passes the full ``validate_state``.  ``cli.TraceStateReader`` calls this
    for a trace state that its replay does not give, so it words every
    error of a trace state as a register file's."""
    _expect(isinstance(doc, dict), "$", "top level must be an object")
    _expect("layout" in doc, "$", "missing key 'layout'")
    _expect("strands" in doc, "$", "missing key 'strands'")
    layout = _parse_layout(doc["layout"], "$.layout")
    _expect(
        layout.total_positions <= MAX_POSITIONS,
        "$.layout",
        f"{layout.cells} cells of {layout.domains_per_cell} domains make {layout.total_positions} "
        f"positions; a register has at most {MAX_POSITIONS}",
    )
    strands_doc = doc["strands"]
    _expect(isinstance(strands_doc, list), "$.strands", "must be an array")
    strands = []
    for i, sdoc in enumerate(strands_doc):
        off = sdoc.get("offset") if isinstance(sdoc, dict) else None
        if not isinstance(off, int) or isinstance(off, bool):
            _offset_error(sdoc, f"$.strands[{i}]")
        spec = bound_spec(sdoc.get("tokens"), f"$.strands[{i}].tokens", layout.domains_per_cell)
        strands.append(BoundStrand(spec, off))
    state = RegisterState(layout, tuple(strands))
    bad = validate_state(state)
    if bad:
        raise SchemaError("$.strands", "; ".join(bad))
    return state


def bound_spec(doc, path: str, d: int) -> StrandSpec:
    """The spec of a bound strand (forward) whose token list document is
    ``doc``, on a register of ``d`` domains per cell."""
    return strand_spec(_parse_tokens(doc, path, d), Orientation.FORWARD)


def _offset_error(sdoc, spath: str):
    """Raise the SchemaError that says why strand document ``sdoc`` has no
    integer offset."""
    _expect(isinstance(sdoc, dict), spath, "must be an object")
    _expect("offset" in sdoc, spath, "missing key 'offset'")
    raise SchemaError(f"{spath}.offset", "must be an integer")


def register_doc(state: RegisterState) -> dict:
    return {
        "layout": _layout_doc(state.layout),
        "strands": [strand_doc(bs) for bs in state.strands],
    }


@lru_cache(maxsize=65536)
def _tokens_bytes(spec: StrandSpec) -> bytes:
    return _canon([_token_doc(t) for t in spec.tokens])


def _strand_bytes(bs: BoundStrand) -> bytes:
    return b'{"offset":%d,"tokens":%s}' % (bs.offset, _tokens_bytes(bs.spec))


def serialize_register(state: RegisterState) -> bytes:
    """``_canon(register_doc(state))``, built from each spec's token list
    encoded once."""
    return _register_bytes(state.layout, map(_strand_bytes, state.strands))


def _register_bytes(layout: RegisterLayout, strands) -> bytes:
    """The register document of ``layout`` whose strand documents, in
    order, are the bytes ``strands`` (``_strand_bytes`` of each strand)."""
    head = b'{"layout":{"cells":%d,"domains_per_cell":%d},"strands":[' % (layout.cells, layout.domains_per_cell)
    return head + b",".join(strands) + b"]}"
