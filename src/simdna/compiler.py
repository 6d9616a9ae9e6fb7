"""Compiler from a 3-symbol Turing machine to a strand-displacement program.

Cell layout: a machine with ``t`` transitions uses ``d = 2t + 8`` domains per
cell.  Transition input number ``i`` (1-based, in a fixed deterministic
order) owns the two consecutive domains ``{2i-1, 2i}``; the rightmost eight
domains form the symbol region, whose nick pattern stores the cell's symbol.
The head cell is the only cell with exposed domains: the region of the
applicable (state, symbol) input is uncovered and the symbol region carries a
single 8-domain cover instead of a pattern.

One pass of the compiled instruction list advances every encoded register by
exactly one machine step.  Registers are protected from instruction sublists
that do not apply to them by plug strands: a pre-plug covers the exposed
region until its transition's sublist runs, and a post-plug covers the next
transition's region from the moment a register has been processed until the
final deprotecting instruction.

Each transition's sublist is made of named steps: the unplug detaches its
pre-plug; tear and strip (``_SublistBuilder.tear``) opens a stretch of a cell
with a handle-carrying exchange chain, then detaches the chain; ``rebuild``
covers the regions and writes the new symbol; branch detectors read the
symbol the head moves onto; the post-plug covers the next transition's region.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

from . import engine
from .model import (
    BoundStrand,
    Instruction,
    Match,
    Ortho,
    Program,
    RegisterState,
    StrandSpec,
    add_where,
    fwd,
    parse_program,
    program_doc,
    register_layout,
    rev,
    _canon,
)
from .tm import SpaceBoundViolationError, TMConfig, TMSpec, TMStatus, TransitionKey, initial_config, tm_step

SYMBOL_RANK = {"0": 0, "1": 1, "_": 2}

# Nick patterns over the 8-domain symbol region, as (start, length) spans,
# 1-based within the region.  Each pattern is two spans that tile the region,
# every span is at least two domains (stability), and the three first-span
# lengths are pairwise distinct, so a cascade entering from either end can
# tell the patterns apart.  tests/test_compiler.py's
# test_symbol_patterns_are_distinguishable pins this.
SYMBOL_PATTERNS: dict[str, tuple[tuple[int, int], ...]] = {
    "_": ((1, 4), (5, 4)),
    "0": ((1, 2), (3, 6)),
    "1": ((1, 6), (7, 2)),
}


class CompileError(Exception):
    pass


class SchemeError(CompileError):
    pass


class DecodeError(Exception):
    pass


class UnrecognizedPatternError(DecodeError):
    def __init__(self, cell: int, detail: str = ""):
        self.cell = cell
        super().__init__(f"cell {cell}: unrecognized strand arrangement{': ' + detail if detail else ''}")


class MultipleHeadsError(DecodeError):
    def __init__(self, cells: list[int]):
        self.cells = cells
        super().__init__(f"exposed transition regions in more than one cell: {cells}")


@dataclass(frozen=True)
class TapeOnly:
    """Decoded register with no exposed region: a halted or stuck machine."""

    tape: tuple[str, ...]

    def tape_str(self) -> str:
        return "".join(self.tape)


def cell_domains(t: int) -> int:
    """Domains per cell of a machine of ``t`` transitions: two for the
    region of each transition, then the eight of the symbol region."""
    return 2 * t + 8


@dataclass(frozen=True)
class CellScheme:
    transition_order: tuple[TransitionKey, ...]

    @property
    def t(self) -> int:
        return len(self.transition_order)

    @property
    def d(self) -> int:
        return cell_domains(self.t)

    def region_index(self, key: TransitionKey) -> int:
        return self.transition_order.index(key) + 1

    def y(self, k: int) -> int:
        """Domain number of the k-th symbol-region domain (k in 1..8)."""
        return 2 * self.t + k

    # --- strand species (tokens are cell-local domain numbers) -----------

    # Covers, and the patterns of ``cell_forms``, are built once per scheme:
    # every cell of every register shares the same spec objects.

    @cached_property
    def _plain_covers(self) -> dict[int, StrandSpec]:
        return {i: fwd(Match(2 * i - 1), Match(2 * i)) for i in range(1, self.t + 1)}

    def plain_cover(self, i: int) -> StrandSpec:
        return self._plain_covers[i]

    @cached_property
    def head_cover(self) -> StrandSpec:
        return fwd(*(Match(self.y(k)) for k in range(1, 9)))

    def span(self, symbol: str, which: int) -> tuple[Match, ...]:
        """Tokens of span 0 (left) or 1 (right) of a symbol's pattern."""
        start, length = SYMBOL_PATTERNS[symbol][which]
        return _mrange(self.y(start), self.y(start + length - 1))

    def pattern_strands(self, symbol: str) -> tuple[tuple[int, StrandSpec], ...]:
        """(cell-local offset, strand) pairs covering the symbol region."""
        spans = (self.span(symbol, 0), self.span(symbol, 1))
        return tuple((span[0].domain - 1, fwd(*span)) for span in spans)

    @cached_property
    def cell_forms(self) -> dict[tuple[str, object], frozenset[tuple[int, StrandSpec]]]:
        """The (cell-local offset, strand) set of each clean cell: ``("sym", σ)``
        stores symbol σ under covered regions, ``("head", i)`` exposes region i."""
        plains = {(2 * i - 2, self.plain_cover(i)) for i in range(1, self.t + 1)}
        forms = {
            ("sym", sym): frozenset(plains | set(self.pattern_strands(sym)))
            for sym in SYMBOL_PATTERNS
        }
        for i in range(1, self.t + 1):
            exposed = plains - {(2 * i - 2, self.plain_cover(i))}
            forms["head", i] = frozenset(exposed | {(2 * self.t, self.head_cover)})
        return forms

    @cached_property
    def form_of(self) -> dict[frozenset[tuple[int, StrandSpec]], tuple[str, object]]:
        return {cell: form for form, cell in self.cell_forms.items()}

    def pre_plug(self, key: TransitionKey) -> StrandSpec:
        i = self.region_index(key)
        return fwd(Match(2 * i - 1), Match(2 * i), Ortho(f"pre:{key[0]},{key[1]}"))

    def pre_plug_remover(self, key: TransitionKey) -> StrandSpec:
        return _remover(self.pre_plug(key))

    def post_plug(self, key: TransitionKey) -> StrandSpec:
        i = self.region_index(key)
        return fwd(Ortho(f"post:{key[0]},{key[1]}"), Match(2 * i - 1), Match(2 * i))

    def post_plug_remover(self, key: TransitionKey) -> StrandSpec:
        return _remover(self.post_plug(key))


def _remover(spec: StrandSpec) -> StrandSpec:
    """The reverse strand that detaches ``spec`` through its handle."""
    return rev(*spec.tokens)


def _mrange(a: int, b: int) -> tuple[Match, ...]:
    return tuple(Match(x) for x in range(a, b + 1))


def build_scheme(spec: TMSpec) -> CellScheme:
    """Fix the cell layout for a machine: its transitions in (state, symbol)
    order."""
    if spec.transition_count < 1:
        raise SchemeError("machine must have at least one transition")
    order = tuple(
        sorted(spec.transitions, key=lambda k: (k[0], SYMBOL_RANK[k[1]]))
    )
    return CellScheme(order)


# --- encoding ---------------------------------------------------------------


def _steppable(spec: TMSpec, config: TMConfig) -> bool:
    """Whether the register form shows the head: the machine runs and its
    head reads a (state, symbol) pair with a defined transition."""
    return (
        config.status is TMStatus.RUNNING
        and config.head is not None
        and spec.defined(config.state, config.tape[config.head])
    )


def encode_config(
    spec: TMSpec, scheme: CellScheme, config: TMConfig, s: int
) -> tuple[RegisterState, bool]:
    """Register form of a machine configuration.

    Returns ``(state, lossy)``; lossy means the head position could not be
    represented (no defined transition for the head's state/symbol pair, or
    the machine has stopped) and was erased into the all-covered form.
    """
    if len(config.tape) != s:
        raise CompileError(f"tape length {len(config.tape)} != register cells {s}")
    d = scheme.d
    layout = register_layout(s, d)

    head_cell: Optional[int] = None
    head_region: Optional[int] = None
    if _steppable(spec, config):
        head_cell = config.head
        head_region = scheme.region_index((config.state, config.tape[config.head]))
    # lossy: the head existed but the register form cannot show it
    lossy = config.head is not None and head_cell is None

    strands = []
    for cell in range(s):
        form = ("head", head_region) if cell == head_cell else ("sym", config.tape[cell])
        strands.extend(BoundStrand(strand, cell * d + off) for off, strand in scheme.cell_forms[form])
    return RegisterState(layout, tuple(strands)), lossy


def decode_register(
    spec: TMSpec, scheme: CellScheme, state: RegisterState
) -> Union[TMConfig, TapeOnly]:
    """Read a clean register back into a machine configuration.

    Exactly one exposed transition region means a running machine; none means
    the tape of a halted/stuck machine.  Anything else is a corrupted run.
    """
    d = scheme.d
    s = state.layout.cells
    if d != state.layout.domains_per_cell:
        raise CompileError("register layout does not match scheme")

    per_cell: list[list[tuple[int, StrandSpec]]] = [[] for _ in range(s)]
    for bs in state.strands:
        bound = bs.bound_positions(state.layout)
        cells = {p // d for p in bound}
        if len(cells) != 1:
            raise UnrecognizedPatternError(min(cells), "strand crosses a cell boundary")
        cell = cells.pop()
        per_cell[cell].append((bs.offset - cell * d, bs.spec))

    tape: list[str] = []
    exposed: list[tuple[int, int]] = []
    for cell, got in enumerate(per_cell):
        form = scheme.form_of.get(frozenset(got))
        # a duplicated strand leaves the set as it is: compare the sizes too
        if form is None or len(got) != len(scheme.cell_forms[form]):
            raise UnrecognizedPatternError(cell)
        kind, value = form
        if kind == "head":
            exposed.append((cell, value))
            value = scheme.transition_order[value - 1][1]
        tape.append(value)

    if len(exposed) > 1:
        raise MultipleHeadsError([c for c, _ in exposed])
    if not exposed:
        return TapeOnly(tuple(tape))
    cell, region = exposed[0]
    return TMConfig(tuple(tape), cell, scheme.transition_order[region - 1][0], TMStatus.RUNNING)


# --- instruction generation --------------------------------------------------


class _SublistBuilder:
    """Shared vocabulary for one transition's instruction sublist."""

    def __init__(self, spec: TMSpec, scheme: CellScheme, key: TransitionKey):
        self.scheme = scheme
        self.q, self.b = key
        nxt, self.write, self.move = spec.transitions[key]
        self.j = scheme.region_index(key)
        self.t = scheme.t
        self.d = scheme.d
        self.instructions: list[Instruction] = []
        # the branches on the symbol under the moved head: (symbol, next
        # transition input, its region) in region order where the machine
        # continues, and the symbols where it has no transition
        nexts = {sym: (nxt, sym) for sym in ("0", "1", "_")}
        self.defined: list[tuple[str, TransitionKey, int]] = sorted(
            ((sym, k, scheme.region_index(k)) for sym, k in nexts.items() if spec.defined(*k)),
            key=lambda branch: branch[2],
        )
        self.undefined = [sym for sym, k in nexts.items() if not spec.defined(*k)]

    def tag(self, role: str) -> str:
        return f"h:{self.q},{self.b}:{role}"

    def emit(self, species: list[StrandSpec]) -> None:
        label = f"L({self.q},{self.b})#{len(self.instructions) + 1}"
        self.instructions.append(Instruction(tuple(species), label))

    def y(self, k: int) -> int:
        return self.scheme.y(k)

    # steps of the construction -----------------------------------------

    def tear(self, chain: list[tuple[str, tuple[Match, ...]]]) -> None:
        """Tear and strip: the named toehold-exchange chain, each strand with
        its detachment handle, opens a stretch of the cell; then the chain's
        removers strip it off and leave the stretch uncovered."""
        strands = [fwd(*toks, Ortho(self.tag(name))) for name, toks in chain]
        self.emit(strands)
        self.emit([_remover(s) for s in strands])

    def rebuild(self, first: int) -> None:
        """Cover regions ``first``..t and write the symbol's pattern: its
        span 0 together with the covers, its span 1 after them."""
        sch = self.scheme
        plains = [sch.plain_cover(i) for i in range(first, self.t + 1)]
        self.emit(plains + [fwd(*sch.span(self.write, 0))])
        self.emit([fwd(*sch.span(self.write, 1))])

    def exchange_chain(self, first: int, opener: int, prefix: str = "") -> list[tuple[str, tuple[Match, ...]]]:
        """Toehold-exchange chain from region ``first`` of the cell through
        the symbol-region cover, vacating the cell's last domain: two-domain
        shingles up to region ``opener``, whose strand takes three domains,
        two-domain shingles on through region t, and the symbol-region cover
        (one strand with the opener's when ``opener`` is t).  The strands are
        named ``prefix`` plus A1, A2, ... and Asym, those past a later opener
        B0, B1, ...."""
        t = self.t
        ends = [*range(2 * first, 2 * opener, 2), *range(2 * opener + 1, 2 * t, 2)]
        starts = [2 * first - 1, *(e + 1 for e in ends)]
        toks = [_mrange(a, b) for a, b in zip(starts, ends)]
        toks.append(_mrange(starts[-1], 2 * t) + _mrange(self.y(1), self.y(7)))
        names = [f"B{k - opener - 1}" if first < opener < k else f"A{k}" for k in range(1, len(toks))]
        names.append("Asym" if names else "A1")
        return [(prefix + name, tk) for name, tk in zip(names, toks)]


def _sublist_halting(b: _SublistBuilder) -> None:
    """Transition whose destination has no defined transitions (halt state or
    a dead state): write the output symbol, cover everything, touch no
    neighbor cell."""
    b.tear(b.exchange_chain(b.j, b.j))
    b.rebuild(b.j)


def _sublist_right(b: _SublistBuilder) -> None:
    sch, t, j = b.scheme, b.t, b.j
    y = b.y

    # previous cell: open from the exposed region to the cell's right edge,
    # then rebuild with the written symbol, keeping the last domain open as
    # the toehold into the next cell.
    b.tear(b.exchange_chain(b.j, b.j))
    plains = [sch.plain_cover(i) for i in range(j, t + 1)]
    if b.write == "1":
        b.emit(plains + [fwd(*_mrange(y(1), y(5)))])
        b.emit([fwd(Match(y(6)), Match(y(7)))])
    else:
        b.emit(plains + [fwd(*sch.span(b.write, 0))])
        b.emit([fwd(*sch.span(b.write, 1)[:-1])])

    # next cell: cross the boundary and walk every transition-region cover.
    # These shingles are later displaced by the rebuild chains, so they carry
    # no detachment handles.
    dchain = [fwd(Match(b.d), Match(1))]
    for m in range(2, t + 1):
        dchain.append(fwd(Match(2 * m - 2), Match(2 * m - 1)))
    b.emit(dchain)

    # branch detectors: tear the first span of the symbol pattern.
    e_strands = {}
    for sym in ("0", "1", "_"):
        e_strands[sym] = fwd(Match(2 * t), *sch.span(sym, 0)[:-1], Ortho(b.tag(f"E{sym}")))
    b.emit(list(e_strands.values()))

    # second-span tear, only where the branch continues.
    f_strands = {}
    for sym, key, _ in b.defined:
        nick = sch.span(sym, 0)[-1]  # vacated by the E strand's exchange
        f_strands[sym] = fwd(nick, *sch.span(sym, 1)[:-1], Ortho(b.tag(f"F{sym}")))
    if f_strands:
        b.emit(list(f_strands.values()))

    for sym, key, i2 in b.defined:
        b.emit([_remover(e_strands[sym]), _remover(f_strands[sym]), sch.head_cover])
        chain = [sch.plain_cover(i) for i in range(1, t + 1) if i != i2]
        b.emit(chain + [sch.post_plug(key)])

    if b.undefined:
        b.emit([fwd(*sch.span(sym, 0)) for sym in b.undefined])
        b.emit([sch.plain_cover(i) for i in range(1, t + 1)])

    # seal the previous cell's last domain with the written symbol's pattern.
    if b.write == "1":
        b.emit([fwd(Match(y(7)), Match(y(8))), fwd(*_mrange(y(1), y(6)))])
    else:
        b.emit([fwd(*sch.span(b.write, 1))])


def _sublist_left(b: _SublistBuilder) -> None:
    sch, t, j = b.scheme, b.t, b.j
    y = b.y

    # open the current cell's left flank and cross into the neighbor's symbol
    # region; the crossing strand family is the branch detector.
    n0: list[StrandSpec] = []
    if j >= 2:
        n0.append(fwd(Match(2 * j - 2), Match(2 * j - 1), Match(2 * j)))
        for m in range(2, j):
            a = 2 * j - 2 * m
            n0.append(fwd(Match(a), Match(a + 1)))
    for sym in ("0", "1", "_"):
        toks = sch.span(sym, 1)[1:] + (Match(1),)
        if j == 1:
            toks = toks + (Match(2),)
        n0.append(fwd(*toks))
    b.emit(n0)

    x_strands = []
    for sym, key, i2 in b.defined:
        nick = sch.span(sym, 1)[0]  # leftmost domain of the second span
        h = fwd(*_mrange(y(2), nick.domain), Ortho(b.tag(f"H{sym}")))
        b.emit([h])

        kchain = [fwd(Match(2 * t), Match(y(1)))]
        for m in range(2, t - i2 + 2):
            a = 2 * t - 2 * m + 2
            kchain.append(fwd(Match(a), Match(a + 1)))
        b.emit(kchain)

        b.emit([sch.post_plug(key)])

        rchain = [sch.plain_cover(i) for i in range(i2 + 1, t + 1)]
        b.emit(rchain + [_remover(h)])

        if j == 1:
            x = fwd(*_mrange(y(1), y(8)), Match(1), Match(2), Ortho(b.tag(f"X{sym}")))
            x_strands.append(x)
            b.emit([x])
        else:
            b.emit([sch.head_cover])

    p_strands = {}
    if b.undefined:
        batch = []
        for sym in b.undefined:
            if j == 1:
                p = fwd(*sch.span(sym, 1), Match(1), Match(2), Ortho(b.tag(f"P{sym}")))
                p_strands[sym] = p
                batch.append(p)
            else:
                batch.append(fwd(*sch.span(sym, 1)))
        b.emit(batch)

    if j == 1:
        shared1 = [_remover(x) for x in x_strands]
        if b.defined:
            shared1.append(sch.head_cover)
            b.emit(shared1)
        shared2 = [_remover(p) for p in p_strands.values()]
        shared2.extend(fwd(*sch.span(sym, 1)) for sym in p_strands)
        if shared2:
            b.emit(shared2)

    # previous cell: walk left-to-right over the opener shingles and the
    # symbol cover, then rebuild fully with the written symbol.
    b.tear(b.exchange_chain(1, max(j - 1, 1), "p"))
    b.rebuild(1)


def compile_transition(
    spec: TMSpec, scheme: CellScheme, key: TransitionKey
) -> list[Instruction]:
    """Instruction sublist advancing registers whose applicable transition is
    ``key``; inert on every other register."""
    b = _SublistBuilder(spec, scheme, key)
    b.emit([scheme.pre_plug_remover(key)])  # unplug
    if not b.defined:
        _sublist_halting(b)
    elif b.move == "R":
        _sublist_right(b)
    else:
        _sublist_left(b)
    return b.instructions


@dataclass(frozen=True)
class CompileStats:
    d: int
    t: int
    s: int
    instruction_count: int

    def nucleotides(self, k: int) -> int:
        return k * self.s * self.d

    def to_doc(self) -> dict:
        return {
            "d": self.d,
            "t": self.t,
            "s": self.s,
            "instructions": self.instruction_count,
            "nucleotides": {str(k): self.nucleotides(k) for k in (5, 6, 7)},
        }


@dataclass(frozen=True)
class CompiledProgram:
    program: Program
    scheme: CellScheme
    sublist_index: dict[TransitionKey, tuple[int, int]]
    stats: CompileStats


def compile_tm(spec: TMSpec, s: int) -> CompiledProgram:
    """Full program: pre-plug instruction, one sublist per transition in the
    fixed order, final deprotecting instruction."""
    if s < 2:
        raise CompileError("register must have at least 2 cells")
    scheme = build_scheme(spec)
    instructions = [
        Instruction(tuple(scheme.pre_plug(k) for k in scheme.transition_order), "pre-plug")
    ]
    sublist_index: dict[TransitionKey, tuple[int, int]] = {}
    for key in scheme.transition_order:
        sub = compile_transition(spec, scheme, key)
        first = len(instructions) + 1
        instructions.extend(sub)
        sublist_index[key] = (first, len(instructions))
    instructions.append(
        Instruction(
            tuple(scheme.post_plug_remover(k) for k in scheme.transition_order),
            "final-deprotect",
        )
    )
    layout = register_layout(s, scheme.d)
    program = Program(layout, tuple(instructions))
    stats = CompileStats(scheme.d, scheme.t, s, len(instructions))
    return CompiledProgram(program, scheme, sublist_index, stats)


def serialize_compiled(cp: CompiledProgram) -> bytes:
    doc = program_doc(cp.program)
    doc["stats"] = cp.stats.to_doc()
    doc["sublists"] = {
        f"{q},{b}": list(span) for (q, b), span in sorted(cp.sublist_index.items())
    }
    return _canon(doc)


def load_program_file(text: bytes) -> Program:
    """Accept either a plain program document or a compiled one (its 'stats'
    and 'sublists' keys are ignored)."""
    return parse_program(text)


# --- verification -------------------------------------------------------------


def configs_equivalent(
    spec: TMSpec, expected: TMConfig, got: Union[TMConfig, TapeOnly]
) -> bool:
    """Equality up to the encoding: configurations the register cannot
    represent (halted, stuck, or head on an undefined pair) compare by tape."""
    if _steppable(spec, expected):
        return (
            isinstance(got, TMConfig)
            and got.tape == expected.tape
            and got.head == expected.head
            and got.state == expected.state
        )
    return isinstance(got, TapeOnly) and got.tape == expected.tape


def reachable_configs(
    spec: TMSpec, input_str: str, s: int, max_steps: int = 10_000
) -> tuple[list[TMConfig], bool]:
    """Trajectory configs from an input; True if the run ends by walking off
    the tape.  The configuration whose step violates the space bound is not
    returned: its step is undefined, so it is outside the one-step claim."""
    configs = [initial_config(spec, input_str, s)]
    for _ in range(max_steps):
        c = configs[-1]
        if c.is_terminal:
            return configs, False
        try:
            configs.append(tm_step(spec, c))
        except SpaceBoundViolationError:
            return configs[:-1], True
    return configs, False


def verify_compilation(
    spec: TMSpec,
    compiled: CompiledProgram,
    inputs: list[TMConfig],
    mode: engine.Mode = engine.Canonical(),
) -> list[str]:
    """Check the construction's one-step claim on explicit configurations;
    returns the violations, each starting with the configuration it
    concerns, and so empty when the claim holds.  An engine error names the
    configuration, then the instruction, in its ``where``.

    Configurations with a defined transition must advance exactly as tm_step
    does; terminal or head-erased ones must be left byte-identical."""
    violations = []
    for config in inputs:
        reg, _ = encode_config(spec, compiled.scheme, config, compiled.program.layout.cells)
        try:
            final, _ = engine.run_program(reg, compiled.program, mode)
        except engine.EngineError as e:
            add_where(e, str(config))
            raise
        if not _steppable(spec, config):
            if final != reg:
                violations.append(f"{config}: terminal register was modified by the program")
            continue
        expected = tm_step(spec, config)
        try:
            got = decode_register(spec, compiled.scheme, final)
        except DecodeError as e:
            violations.append(f"{config}: decode failed: {e}")
            continue
        if not configs_equivalent(spec, expected, got):
            violations.append(f"{config}: expected {expected}, decoded {got}")
    return violations
