"""Reaction engine: fires the strand-displacement rules to a fixed point.

One instruction adds its species in large excess, reactions cascade until no
rule applies, then the wash removes everything not stably attached.  Rules
over a forward species aligned at ``offset`` (``M`` = matched in-register
positions, i.e. the alignment's would-be bound set):

* attach          -- every position of M unbound, and M contains two
                     consecutive positions; binds all of M.
* displace        -- M overlaps exactly one incumbent and covers its whole
                     bound set within a single consecutive run that also
                     holds an unbound toehold; incumbent out, M bound.
* toehold exchange-- as displace but the run covers all of the incumbent
                     except its single outermost domain on the far side of
                     the toehold; the vacated domain ends up unbound.
* cooperative     -- two forward alignments whose toeholds flank one
                     incumbent and jointly cover it; both products must be
                     independently stable.
* detach          -- a reverse species whose token sequence contains a bound
                     strand's full token sequence (the strand must carry an
                     overhang to grab); the duplex leaves at the wash.

Reverse strands never bind the register; unreacted species vanish at the
wash, so instructions are isolated stages.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, Iterable, Union

from .model import (
    BoundStrand,
    Instruction,
    Match,
    Program,
    RegisterLayout,
    RegisterState,
    StrandSpec,
    spec_doc,
    strand_doc,
    validate_state,
)


class EngineError(Exception):
    pass


class InapplicableReactionError(EngineError):
    pass


class NonConfluentError(EngineError):
    """Two maximal reaction orders of one instruction reached different states."""

    def __init__(self, state_a, order_a, state_b, order_b):
        self.state_a = state_a
        self.order_a = order_a
        self.state_b = state_b
        self.order_b = order_b
        super().__init__(
            f"instruction is not confluent: {len(order_a)}-step and "
            f"{len(order_b)}-step orders end in different states"
        )


class StateBudgetExceededError(EngineError):
    def __init__(self, budget: int):
        self.budget = budget
        super().__init__(f"confluence search exceeded {budget} distinct states")


class Reaction:
    """One rule firing, seen as a delta on the register's strand set.

    ``removed`` strands leave the register (the wash takes them away),
    ``added`` strands bind, and ``actors`` are the (species, offset)
    alignments that act.  Reactions are ordered by the leftmost position they
    bind (or free, when nothing binds), then by the rule's ``rank``, then by
    ``tie_break()``.  ``doc()`` is the reaction's trace JSON.
    """

    rule: ClassVar[str]
    rank: ClassVar[int]
    removed: tuple[BoundStrand, ...] = ()
    added: tuple[BoundStrand, ...] = ()

    @property
    def actors(self) -> tuple[tuple[StrandSpec, int], ...]:
        return tuple((bs.spec, bs.offset) for bs in self.added)


def _placed_doc(spec: StrandSpec, offset: int) -> dict:
    return {"offset": offset, "strand": spec_doc(spec)}


@dataclass(frozen=True)
class Attach(Reaction):
    spec: StrandSpec
    offset: int
    rule = "attach"
    rank = 4

    @property
    def added(self):
        return (BoundStrand(self.spec, self.offset),)

    def tie_break(self) -> tuple:
        return (self.spec.sort_key(), self.offset, ())

    def doc(self) -> dict:
        return {"rule": self.rule, **_placed_doc(self.spec, self.offset)}


@dataclass(frozen=True)
class _Takeover(Reaction):
    """A challenger replaces one incumbent: displace or toehold exchange."""

    incumbent: BoundStrand
    spec: StrandSpec
    offset: int

    @property
    def removed(self):
        return (self.incumbent,)

    @property
    def added(self):
        return (BoundStrand(self.spec, self.offset),)

    def tie_break(self) -> tuple:
        return (self.spec.sort_key(), self.offset, self.incumbent.sort_key())

    def doc(self) -> dict:
        return {
            "rule": self.rule,
            **_placed_doc(self.spec, self.offset),
            "incumbent": strand_doc(self.incumbent),
        }


class Displace(_Takeover):
    rule = "displace"
    rank = 1


class ToeholdExchange(_Takeover):
    rule = "exchange"
    rank = 2


@dataclass(frozen=True)
class Cooperative(Reaction):
    incumbent: BoundStrand
    left_spec: StrandSpec
    left_offset: int
    right_spec: StrandSpec
    right_offset: int
    rule = "cooperative"
    rank = 3

    @property
    def removed(self):
        return (self.incumbent,)

    @property
    def added(self):
        return (
            BoundStrand(self.left_spec, self.left_offset),
            BoundStrand(self.right_spec, self.right_offset),
        )

    def tie_break(self) -> tuple:
        return (
            self.left_spec.sort_key(),
            self.left_offset,
            self.right_spec.sort_key(),
            self.right_offset,
            self.incumbent.sort_key(),
        )

    def doc(self) -> dict:
        return {
            "rule": self.rule,
            "left": _placed_doc(self.left_spec, self.left_offset),
            "right": _placed_doc(self.right_spec, self.right_offset),
            "incumbent": strand_doc(self.incumbent),
        }


@dataclass(frozen=True)
class Detach(Reaction):
    target: BoundStrand
    remover: StrandSpec
    rule = "detach"
    rank = 0

    @property
    def removed(self):
        return (self.target,)

    @property
    def actors(self):
        # the remover lies over the target where it carries the target's tokens
        idx = _find(self.target.spec.tokens, self.remover.tokens)
        return ((self.remover, self.target.offset - idx),)

    def tie_break(self) -> tuple:
        return (self.target.sort_key(), self.remover.sort_key())

    def doc(self) -> dict:
        return {"rule": self.rule, "remover": spec_doc(self.remover), "target": strand_doc(self.target)}


@dataclass(frozen=True)
class Canonical:
    """Fire reactions in a fixed total order until none applies."""


@dataclass(frozen=True)
class VerifyConfluent:
    """Explore every reaction order and require a unique final state."""

    max_states: int = 100_000


Mode = Union[Canonical, VerifyConfluent]


@dataclass(frozen=True)
class InstructionOutcome:
    final_state: RegisterState
    applied: tuple[Reaction, ...]
    washed_species: tuple[StrandSpec, ...]


@lru_cache(maxsize=65536)
def _matched_positions(
    layout: RegisterLayout, spec: StrandSpec, offset: int
) -> frozenset[int]:
    return BoundStrand(spec, offset).bound_positions(layout)


def _runs(positions: frozenset[int]) -> list[range]:
    """Maximal runs of consecutive positions."""
    out = []
    for p in sorted(positions):
        if out and out[-1].stop == p:
            out[-1] = range(out[-1].start, p + 1)
        else:
            out.append(range(p, p + 1))
    return out


def _find(needle: tuple, haystack: tuple) -> int:
    """Index of the first contiguous occurrence of needle in haystack, or -1."""
    n = len(needle)
    return next((i for i in range(len(haystack) - n + 1) if haystack[i : i + n] == needle), -1)


class _View:
    """Per-state occupancy index used while enumerating reactions."""

    def __init__(self, state: RegisterState):
        self.state = state
        self.layout = state.layout
        self.owner: dict[int, BoundStrand] = {}
        self.bound_of: dict[BoundStrand, frozenset[int]] = {}
        for bs in state.strands:
            bound = bs.bound_positions(state.layout)
            self.bound_of[bs] = bound
            for p in bound:
                self.owner[p] = bs
        self.unbound = frozenset(
            p for p in range(state.layout.total_positions) if p not in self.owner
        )


def _candidate_alignments(view: _View, species: Iterable[StrandSpec]):
    """(spec, offset) pairs whose alignment matches at least one unbound
    position.  Complete for attach/displace/exchange/cooperative: each needs
    an unbound matched position (a toehold, or the attach foothold)."""
    cands = set()
    for p in view.unbound:
        dom = view.layout.domain_at(p)
        for spec in species:
            for j, tok in enumerate(spec.tokens):
                if isinstance(tok, Match) and tok.domain == dom:
                    cands.add((spec, p - j))
    return cands


def _forward_reactions_at(view: _View, spec: StrandSpec, offset: int):
    """Attach/displace/exchange reactions for one alignment (cooperative is
    handled pairwise by the caller)."""
    layout = view.layout
    M = _matched_positions(layout, spec, offset)
    if not M:
        return
    overlap = {p for p in M if p in view.owner}
    free = M - overlap

    if not overlap:
        if any(p + 1 in free for p in free):
            yield Attach(spec, offset)
        return

    incumbents = {view.owner[p] for p in overlap}
    if len(incumbents) != 1:
        return
    inc = next(iter(incumbents))
    inc_bound = view.bound_of[inc]
    runs = _runs(M)

    if overlap == inc_bound:
        # full coverage: displace, with the toehold in the covering run
        run = next((r for r in runs if inc_bound <= set(r)), None)
        if run is not None and any(p in view.unbound for p in run):
            if not (inc.spec == spec and inc.offset == offset):
                yield Displace(inc, spec, offset)
        return

    if len(inc_bound) >= 2:
        lo, hi = min(inc_bound), max(inc_bound)
        for x, far in ((hi, "right"), (lo, "left")):
            if x in M or overlap != inc_bound - {x}:
                continue
            run = next((r for r in runs if inc_bound - {x} <= set(r)), None)
            if run is None:
                continue
            if far == "right":
                toeholds = [p for p in run if p in view.unbound and p < lo]
            else:
                toeholds = [p for p in run if p in view.unbound and p > hi]
            if toeholds:
                yield ToeholdExchange(inc, spec, offset)


def _cooperative_reactions(view: _View, alignments):
    """Cooperative displacements built from partially covering alignments."""
    layout = view.layout
    # per-incumbent candidate flanks
    left: dict[BoundStrand, list] = {}
    right: dict[BoundStrand, list] = {}
    for spec, offset in alignments:
        M = _matched_positions(layout, spec, offset)
        if len(M) < 2:
            continue
        overlap = {p for p in M if p in view.owner}
        if not overlap:
            continue
        incumbents = {view.owner[p] for p in overlap}
        if len(incumbents) != 1:
            continue
        inc = next(iter(incumbents))
        inc_bound = view.bound_of[inc]
        cover = overlap
        if not cover or cover == inc_bound:
            continue
        run = next((r for r in _runs(M) if cover <= set(r)), None)
        if run is None:
            continue
        lo, hi = min(inc_bound), max(inc_bound)
        if any(p in view.unbound and p < lo for p in run):
            left.setdefault(inc, []).append((spec, offset, M, cover))
        if any(p in view.unbound and p > hi for p in run):
            right.setdefault(inc, []).append((spec, offset, M, cover))
    for inc in set(left) & set(right):
        inc_bound = view.bound_of[inc]
        for lspec, loff, lM, lcover in left[inc]:
            for rspec, roff, rM, rcover in right[inc]:
                if (lspec, loff) == (rspec, roff):
                    continue
                if lM & rM:
                    continue
                if lcover | rcover != inc_bound:
                    continue
                yield Cooperative(inc, lspec, loff, rspec, roff)


def applicable_reactions(state: RegisterState, instr: Instruction) -> set:
    """All reactions the instruction's species can perform on the state."""
    view = _View(state)
    out: set[Reaction] = set()

    forward = [s for s in instr.species if s.is_forward]
    reverse = [s for s in instr.species if not s.is_forward]

    for rv in reverse:
        for bs in state.strands:
            if bs.spec.has_ortho and _find(bs.spec.tokens, rv.tokens) >= 0:
                out.add(Detach(bs, rv))

    alignments = _candidate_alignments(view, forward)
    for spec, offset in alignments:
        out.update(_forward_reactions_at(view, spec, offset))
    out.update(_cooperative_reactions(view, alignments))
    return out


def reaction_sort_key(r: Reaction, state: RegisterState) -> tuple:
    layout = state.layout
    pos = min(
        min(_matched_positions(layout, bs.spec, bs.offset), default=0)
        for bs in r.added or r.removed
    )
    return (pos, r.rank, r.tie_break())


def apply_reaction(state: RegisterState, r: Reaction) -> RegisterState:
    """Post-state of one reaction; raises if the reaction plainly cannot
    apply (defensive, signals an engine bug rather than user error)."""
    strands = list(state.strands)
    for bs in r.removed:
        if bs not in strands:
            raise InapplicableReactionError(f"incumbent not present: {bs}")
        strands.remove(bs)
    strands.extend(r.added)

    new_state = state.with_strands(strands)
    bad = validate_state(new_state)
    if bad:
        raise InapplicableReactionError(
            f"reaction {r!r} produced an invalid state: {'; '.join(bad)}"
        )
    return new_state


def _run_canonical(state: RegisterState, instr: Instruction) -> InstructionOutcome:
    applied = []
    seen = {state}
    while True:
        reactions = applicable_reactions(state, instr)
        if not reactions:
            break
        r = min(reactions, key=lambda x: reaction_sort_key(x, state))
        state = apply_reaction(state, r)
        if state in seen:
            raise EngineError(
                f"reaction loop revisited a state while applying {instr.label!r}"
            )
        seen.add(state)
        applied.append(r)
    washed = sorted((bs.spec for r in applied for bs in r.removed), key=StrandSpec.sort_key)
    return InstructionOutcome(state, tuple(applied), tuple(washed))


def _run_verified(
    state: RegisterState, instr: Instruction, max_states: int
) -> InstructionOutcome:
    start = state
    parent: dict[RegisterState, tuple[RegisterState, Reaction] | None] = {start: None}
    finals: dict[RegisterState, None] = {}
    stack = [start]
    expanded = set()
    while stack:
        cur = stack.pop()
        if cur in expanded:
            continue
        expanded.add(cur)
        reactions = sorted(
            applicable_reactions(cur, instr), key=lambda x: reaction_sort_key(x, cur)
        )
        if not reactions:
            finals[cur] = None
            continue
        for r in reactions:
            nxt = apply_reaction(cur, r)
            if nxt not in parent:
                if len(parent) >= max_states:
                    raise StateBudgetExceededError(max_states)
                parent[nxt] = (cur, r)
                stack.append(nxt)

    def path(to: RegisterState) -> tuple[Reaction, ...]:
        steps = []
        node = to
        while parent[node] is not None:
            node, r = parent[node]
            steps.append(r)
        return tuple(reversed(steps))

    uniq = list(finals)
    if len(uniq) > 1:
        a, b = uniq[0], uniq[1]
        raise NonConfluentError(a, path(a), b, path(b))
    # canonical pass doubles as the witness order and the washed record
    outcome = _run_canonical(start, instr)
    if uniq and outcome.final_state != uniq[0]:  # pragma: no cover
        raise EngineError("canonical order disagrees with the verified final state")
    return outcome


def run_instruction(
    state: RegisterState, instr: Instruction, mode: Mode = Canonical()
) -> InstructionOutcome:
    if isinstance(mode, VerifyConfluent):
        return _run_verified(state, instr, mode.max_states)
    return _run_canonical(state, instr)


def run_program(
    state: RegisterState, prog: Program, mode: Mode = Canonical()
) -> tuple[RegisterState, tuple[InstructionOutcome, ...]]:
    if state.layout != prog.layout:
        raise EngineError(
            f"register layout {state.layout} does not match program layout {prog.layout}"
        )
    outcomes = []
    for instr in prog.instructions:
        out = run_instruction(state, instr, mode)
        outcomes.append(out)
        state = out.final_state
    return state, tuple(outcomes)


class RegisterRunError(EngineError):
    def __init__(self, index: int, cause: Exception):
        self.index = index
        self.cause = cause
        super().__init__(f"register {index}: {cause}")


def run_many(
    states: list[RegisterState], prog: Program, mode: Mode = Canonical()
) -> list[tuple[RegisterState, tuple[InstructionOutcome, ...]]]:
    """Run one program over many registers; they never interact."""
    results = []
    for i, st in enumerate(states):
        try:
            results.append(run_program(st, prog, mode))
        except EngineError as e:
            raise RegisterRunError(i, e) from e
    return results
