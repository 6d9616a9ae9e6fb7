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

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import attrgetter
from typing import ClassVar, Union

from .model import (
    BoundStrand,
    Instruction,
    Match,
    Occupancy,
    Program,
    RegisterLayout,
    RegisterState,
    StrandSpec,
    add_where,
    bound_set,
    spec_doc,
    strand_doc,
    strand_violations,
    validate_state,
)


class EngineError(Exception):
    """An instruction or a register that the engine cannot run.  ``where``
    (see ``model.add_where``) holds ``"register i"`` when ``run_many`` ran
    the register, then ``"instruction n"`` (from 1, as in a trace) when
    ``run_program`` ran the instruction."""


class InapplicableReactionError(EngineError):
    pass


class NonConfluentError(EngineError):
    """Two maximal reaction orders of one instruction reached different states."""

    def __init__(self, state_a, order_a, state_b, order_b, label: str):
        self.state_a = state_a
        self.order_a = order_a
        self.state_b = state_b
        self.order_b = order_b
        self.label = label
        super().__init__(
            f"instruction {label!r} is not confluent: {len(order_a)}-step and "
            f"{len(order_b)}-step orders end in different states"
        )


class StateBudgetExceededError(EngineError):
    def __init__(self, budget: int, label: str):
        self.budget = budget
        self.label = label
        super().__init__(f"confluence search of {label!r} exceeded {budget} distinct states")


class Reaction:
    """One rule firing, seen as a delta on the register's strand set.

    ``removed`` strands leave the register (the wash takes them away),
    ``added`` strands bind (both are built once, with the reaction), and
    ``actors`` are the (species, offset) alignments that act.  Reactions are
    ordered by the leftmost position they bind (or free, when nothing
    binds), then by the rule's ``rank``, then by ``tie_break()``
    (``_order_key``).  ``doc()`` is the reaction's trace JSON.

    A reaction the engine finds also carries, from the bound sets its search
    already holds (``_found``), its ``footprint``: the matched positions of
    the strands it adds and the bound sets of those it removes; and its
    ``key``, equal to ``_order_key``.  Neither takes part in equality.
    """

    rule: ClassVar[str]
    rank: ClassVar[int]
    removed: tuple[BoundStrand, ...] = ()
    added: tuple[BoundStrand, ...] = ()
    footprint: frozenset[int]
    key: tuple

    @property
    def actors(self) -> tuple[tuple[StrandSpec, int], ...]:
        return tuple((bs.spec, bs.offset) for bs in self.added)


def _found(r: Reaction, footprint: frozenset[int], pos: int) -> Reaction:
    """``r`` with its ``footprint`` and its order key, whose least position
    is ``pos``: ``_order_key(r, layout)`` without looking up a bound set."""
    object.__setattr__(r, "footprint", footprint)
    object.__setattr__(r, "key", (pos, r.rank, r.tie_break()))
    return r


def _placed_doc(spec: StrandSpec, offset: int) -> dict:
    return {"offset": offset, "strand": spec_doc(spec)}


@dataclass(frozen=True)
class Attach(Reaction):
    spec: StrandSpec
    offset: int
    rule = "attach"
    rank = 4

    def __post_init__(self):
        object.__setattr__(self, "added", (BoundStrand.hashed(self.spec, self.offset),))

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

    def __post_init__(self):
        object.__setattr__(self, "removed", (self.incumbent,))
        object.__setattr__(self, "added", (BoundStrand.hashed(self.spec, self.offset),))

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

    def __post_init__(self):
        object.__setattr__(self, "removed", (self.incumbent,))
        left = BoundStrand.hashed(self.left_spec, self.left_offset)
        right = BoundStrand.hashed(self.right_spec, self.right_offset)
        object.__setattr__(self, "added", (left, right))

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

    def __post_init__(self):
        object.__setattr__(self, "removed", (self.target,))

    @property
    def actors(self):
        # the remover lies over the target where it carries the target's tokens
        idx = _find(self.target.spec.tokens, self.remover.tokens)
        return ((self.remover, self.target.offset - idx),)

    def tie_break(self) -> tuple:
        return (self.target.sort_key(), self.remover.sort_key())

    def doc(self) -> dict:
        return {"rule": self.rule, "remover": spec_doc(self.remover), "target": strand_doc(self.target)}


def reaction_strands(doc, strand) -> tuple[tuple[BoundStrand, ...], tuple[BoundStrand, ...]]:
    """The strands that the reaction document ``doc`` (``Reaction.doc()``)
    removes and adds, as ``(removed, added)``.  Each is ``strand(offset,
    tokens)`` of its strand document: an incumbent's or a target's
    ``{"offset", "tokens"}``, or an actor's offset and its spec's token
    list (a detach's remover is no strand of the register).  A document
    that is no reaction's raises ``KeyError`` or ``TypeError``, or what
    ``strand`` raises."""
    rule = doc["rule"]

    def bound(sdoc):
        return strand(sdoc["offset"], sdoc["tokens"])

    def placed(pdoc):
        return strand(pdoc["offset"], pdoc["strand"]["tokens"])

    if rule == Attach.rule:
        return (), (placed(doc),)
    if rule in (Displace.rule, ToeholdExchange.rule):
        return (bound(doc["incumbent"]),), (placed(doc),)
    if rule == Cooperative.rule:
        return (bound(doc["incumbent"]),), (placed(doc["left"]), placed(doc["right"]))
    if rule == Detach.rule:
        return (bound(doc["target"]),), ()
    raise KeyError(f"no reaction rule {rule!r}")


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


def _find(needle: tuple, haystack: tuple) -> int:
    """Index of the first contiguous occurrence of needle in haystack, or -1."""
    n = len(needle)
    return next((i for i in range(len(haystack) - n + 1) if haystack[i : i + n] == needle), -1)


class _Species:
    """One instruction's species, arranged for the search: each register
    domain with the forward (species, token index) pairs that match it, and
    which reverse species carry off a bound strand of a given spec (filled
    on demand).  Neither depends on the register or its layout."""

    def __init__(self, instr: Instruction):
        self.reverse = tuple(s for s in instr.species if not s.is_forward)
        by_domain: dict[int, list[tuple[StrandSpec, int]]] = {}
        for spec in instr.species:
            if spec.is_forward:
                for j, tok in enumerate(spec.tokens):
                    if isinstance(tok, Match):
                        by_domain.setdefault(tok.domain, []).append((spec, j))
        # kept for the life of the process (``_species``): tuples take less memory
        self.by_domain = {dom: tuple(pairs) for dom, pairs in by_domain.items()}
        self._removers: dict[StrandSpec, tuple[StrandSpec, ...]] = {}

    def removers(self, spec: StrandSpec) -> tuple[StrandSpec, ...]:
        """Reverse species that grab a bound strand of ``spec``: they carry its
        whole token sequence, and it has an overhang to grab."""
        found = self._removers.get(spec)
        if found is None:
            found = ()
            if spec.has_ortho:
                found = tuple(rv for rv in self.reverse if _find(spec.tokens, rv.tokens) >= 0)
            self._removers[spec] = found
        return found


@lru_cache(maxsize=4096)  # well above the instructions of a paper-scale program
def _species(instr: Instruction) -> _Species:
    return _Species(instr)


_offset = attrgetter("offset")
_key = attrgetter("key")
_has_ortho = attrgetter("spec.has_ortho")
_LOOP = "reaction loop revisited a state while applying {!r}"


class _Index(Occupancy):
    """Occupancy index of one register, kept for one run and updated from
    each reaction's delta: the placement (``Occupancy``: the strand owning
    each position, each strand's bound set), the unbound positions in
    order, the strands of each spec that carries an overhang (only those
    can be grabbed, see ``_Species.removers``), and the strands in
    canonical order (by offset, then spec).  ``at`` is the state object
    the index stands at: the state it was built from, and after a delta
    the one ``state()`` builds.  It, the domains of the unbound positions
    (``exposed``) and the outcome of an instruction that does nothing
    (``noop``) are made on demand and kept until the next delta.

    It is built from a state that passes the full ``validate_state``, whose
    placement it keeps: the register is read once, and the reactions
    applied to it afterwards are checked where they land."""

    def __init__(self, state: RegisterState):
        super().__init__(state.layout)
        bad = validate_state(state, self)
        if bad:
            raise EngineError(f"invalid register: {'; '.join(bad)}")
        self.strands = list(state.strands)
        self.by_spec: dict[StrandSpec, set[BoundStrand]] = {}
        for bs in filter(_has_ortho, self.strands):
            self.by_spec.setdefault(bs.spec, set()).add(bs)
        self.unbound = [p for p in range(self.layout.total_positions) if p not in self.owner]
        self.at: RegisterState | None = state
        self._exposed: set[int] | None = None
        self._noop: InstructionOutcome | None = None

    def state(self) -> RegisterState:
        """``at``, built from the strands when a delta has cleared it."""
        if self.at is None:
            self.at = RegisterState.presorted(self.layout, tuple(self.strands))
        return self.at

    def exposed(self) -> set[int]:
        """The domains that the unbound positions carry."""
        if self._exposed is None:
            d = self.layout.domains_per_cell
            self._exposed = {p % d + 1 for p in self.unbound}
        return self._exposed

    def noop(self) -> InstructionOutcome:
        """``InstructionOutcome(self.state(), ())``: one object until the
        next delta, shared by every instruction that leaves the state as it
        is."""
        if self._noop is None:
            self._noop = InstructionOutcome(self.state(), ())
        return self._noop

    def apply(self, removed, added) -> set[int]:
        """Apply one delta (a reaction is ``r.removed, r.added``, its undo
        ``r.added, r.removed``), checking the invariants of ``validate_state``
        only where it lands (a valid state plus a valid delta is a valid
        state).  Returns the positions it bound or freed."""
        owner = self.owner
        self.at = self._exposed = self._noop = None
        changed = set()
        for bs in removed:
            bound = self.bound_of.pop(bs, None)
            if bound is None:
                raise InapplicableReactionError(f"incumbent not present: {bs}")
            for p in bound:
                del owner[p]
                insort(self.unbound, p)
            if bs.spec.has_ortho:
                group = self.by_spec[bs.spec]
                group.discard(bs)
                if not group:
                    del self.by_spec[bs.spec]
            i = bisect_left(self.strands, bs.offset, key=_offset)
            del self.strands[self.strands.index(bs, i)]
            changed |= bound
        for bs in added:
            bound = bound_set(self.layout, bs.spec, bs.offset)
            bad = strand_violations(bs, bound, owner)
            if bad:
                raise InapplicableReactionError(
                    f"binding {bs} makes an invalid state: {'; '.join(bad)}"
                )
            for p in bound:
                owner[p] = bs
                del self.unbound[bisect_left(self.unbound, p)]
            self.bound_of[bs] = bound
            if bs.spec.has_ortho:
                self.by_spec.setdefault(bs.spec, set()).add(bs)
            i = bisect_left(self.strands, bs.offset, key=_offset)
            j = bisect_right(self.strands, bs.offset, key=_offset)
            if i < j:  # strands at the same offset: canonical order by spec
                key = bs.sort_key()
                i += sum(other.sort_key() < key for other in self.strands[i:j])
            self.strands.insert(i, bs)
            changed |= bound
        return changed


def _candidates(ix: _Index, sp: _Species, lo: int, hi: int) -> set[tuple[StrandSpec, int]]:
    """Forward alignments (spec, offset) matching an unbound position in
    lo..hi.  Complete for attach/displace/exchange/cooperative: each needs
    an unbound matched position (a toehold, or the attach foothold)."""
    d = ix.layout.domains_per_cell
    unbound = ix.unbound
    out = set()
    for p in unbound[bisect_left(unbound, lo) : bisect_right(unbound, hi)]:
        for spec, j in sp.by_domain.get(p % d + 1, ()):
            out.add((spec, p - j))
    return out


def _inert(ix: _Index, sp: _Species) -> bool:
    """Whether the instruction surely has no reaction on the index's state:
    no unbound position carries a domain that a forward species matches,
    and no strand with an overhang has a remover.  Every forward rule needs
    an unbound matched position (see ``_candidates``) and a detach needs a
    remover, so then ``applicable_reactions`` is empty.  Costs one set test
    against the index's exposed domains, drawn once per register state, and
    the specs of ``by_spec``, not the register's specs."""
    if not sp.by_domain.keys().isdisjoint(ix.exposed()):
        return False
    return not (sp.reverse and any(map(sp.removers, ix.by_spec)))


def _alignment(ix: _Index, spec: StrandSpec, offset: int):
    """The attach/displace/exchange reactions of one alignment, and its
    cooperative flank ``(incumbent, M, cover, left, right)`` (or None) when
    it partly covers one incumbent from a toehold on its left or right.

    Every rule but attach needs ``cover``, the positions of ``M`` already
    bound, to lie in one incumbent's bound set and in one run of consecutive
    positions of ``M``.  Of that run it asks only whether it reaches past the
    incumbent's left end (``left``) or right end (``right``), where each
    position is a toehold (``M`` is bound only in ``cover``), or holds an
    unbound gap between the ends.  Each is a test that ``M`` holds one range
    of positions, so the alignment costs its cover and the incumbent's span;
    ``M`` is never sorted into runs."""
    M = bound_set(ix.layout, spec, offset)
    cover = ix.owner.keys() & M
    if not cover:
        if any(p + 1 in M for p in M):
            return (_found(Attach(spec, offset), M, min(M)),), None
        return (), None
    inc = ix.owner[next(iter(cover))]
    inc_bound = ix.bound_of[inc]
    if not cover <= inc_bound:  # a second incumbent
        return (), None
    lo, hi = min(cover), max(cover)
    if not M.issuperset(range(lo + 1, hi)):  # the cover spans two runs
        return (), None
    ilo, ihi = min(inc_bound), max(inc_bound)
    left = M.issuperset(range(ilo - 1, lo))
    right = M.issuperset(range(hi + 1, ihi + 2))
    missing = len(inc_bound) - len(cover)
    if not missing:
        # full coverage: displace, with a toehold in the covering run, which
        # holds ilo..ihi and so every gap of inc_bound
        toehold = left or right or ihi - ilo >= len(inc_bound)
        if toehold and not (inc.spec == spec and inc.offset == offset):
            # M holds all of inc_bound, so it is the whole footprint
            return (_found(Displace(inc, spec, offset), M, min(M)),), None
        return (), None
    found = ()
    if missing == 1 and (left or right):
        # a run past one end holds that end and every gap: M misses the far end
        found = (_found(ToeholdExchange(inc, spec, offset), M | inc_bound, min(M)),)
    return found, ((inc, M, cover, left, right) if left or right else None)


def _forward_reactions(ix: _Index, sp: _Species, lo: int, hi: int) -> list[Reaction]:
    """Forward-species reactions of the alignments with an unbound matched
    position in lo-1..hi+1, and every cooperative pair of an incumbent one
    of them flanks.  When the positions that changed in one step lie in
    lo..hi, that includes every reaction whose matched positions meet them:
    a reaction needs an unbound matched position in the run that holds its
    overlap, and the one nearest a changed position is either that position
    or next to the one incumbent, which lies in lo..hi when it is new.  A
    flank's toehold is next to its incumbent in the same way.

    The flanks of an incumbent flanked near the window are completed by a
    second search over its span only where a cooperative pair can exist:
    a flank's ``M`` is bound only within the incumbent (``_alignment``), so
    a left flank holds the position before the incumbent unbound, and a
    right flank the one after it.  An incumbent with either neighbour
    bound or off the register has no pair, and is not searched around."""
    out: list[Reaction] = []
    left: dict[BoundStrand, list] = {}
    right: dict[BoundStrand, list] = {}
    near = _candidates(ix, sp, lo - 1, hi + 1)
    _survey(ix, near, out, left, right)
    if not (left or right):
        return out
    owner, bound_of, total = ix.owner, ix.bound_of, ix.layout.total_positions
    ends = {}  # incumbent -> its two neighbours, both unbound
    for inc in left.keys() | right.keys():
        inc_bound = bound_of[inc]
        a, b = min(inc_bound) - 1, max(inc_bound) + 1
        if a >= 0 and b < total and a not in owner and b not in owner:
            ends[inc] = a, b
    if not ends:
        return out
    a = min(a for a, _ in ends.values())
    b = max(b for _, b in ends.values())
    if a < lo - 1 or b > hi + 1:
        _survey(ix, _candidates(ix, sp, a, b) - near, out, left, right)
    for inc in ends:
        inc_bound = bound_of[inc]
        for lspec, loff, lM, lcover in left.get(inc, ()):
            for rspec, roff, rM, rcover in right.get(inc, ()):
                if lM & rM:
                    continue
                if lcover | rcover != inc_bound:
                    continue
                joint = lM | rM  # holds inc_bound, which the covers make up
                out.append(_found(Cooperative(inc, lspec, loff, rspec, roff), joint, min(joint)))
    return out


def _survey(ix: _Index, alignments, out: list[Reaction], left: dict, right: dict) -> None:
    """Add the reactions of each (spec, offset) alignment to ``out``, and its
    cooperative flank to the lists of its incumbent in ``left`` or
    ``right``, by the side of its toehold."""
    for spec, offset in alignments:
        found, flank = _alignment(ix, spec, offset)
        out += found
        if flank is not None:
            inc, M, cover, is_left, is_right = flank
            if is_left:
                left.setdefault(inc, []).append((spec, offset, M, cover))
            if is_right:
                right.setdefault(inc, []).append((spec, offset, M, cover))


def _detaches(ix: _Index, sp: _Species, groups) -> list[Detach]:
    """Detach reactions of the bound strands in ``groups``, (spec, strands)
    pairs."""
    if not sp.reverse:
        return []
    bound_of = ix.bound_of
    return [
        _found(Detach(bs, rv), bound_of[bs], min(bound_of[bs]))
        for spec, strands in groups
        for rv in sp.removers(spec)
        for bs in strands
    ]


def applicable_reactions(
    state: RegisterState, instr: Instruction, index: _Index | None = None
) -> set:
    """All reactions the instruction's species can perform on the state.
    ``index`` is the state's occupancy index when the caller keeps one;
    without it the state is checked in full, and an invalid one raises
    ``EngineError``."""
    ix = _Index(state) if index is None else index
    sp = _species(instr)
    out = set(_detaches(ix, sp, ix.by_spec.items()))
    out.update(_forward_reactions(ix, sp, 0, state.layout.total_positions - 1))
    return out


def _order_key(r: Reaction, layout: RegisterLayout) -> tuple:
    """The order in which the engine takes reactions, from the bound sets of
    ``layout``; a reaction the engine finds carries it as ``key``."""
    pos = min(
        min(bound_set(layout, bs.spec, bs.offset), default=0)
        for bs in r.added or r.removed
    )
    return (pos, r.rank, r.tie_break())


def apply_reaction(state: RegisterState, r: Reaction) -> RegisterState:
    """Post-state of one reaction: the state is checked in full, the
    reaction where it lands.  Raises if the reaction cannot apply (defensive,
    signals an engine bug rather than user error)."""
    index = _Index(state)
    index.apply(r.removed, r.added)
    return index.state()


class _Firing:
    """One instruction's reactions on an index, fired (and, for the
    confluence search, undone) one at a time.  ``live`` is the set of the
    reactions that apply to the index's current state, ordered by the
    ``key`` each was found with.  A reaction depends only on the occupancy
    of its ``footprint``: the matched positions of the strands it adds and
    the bound sets of those it removes.  After each step exactly the reactions
    whose footprint meets the changed positions are stale (a strand's
    positions change only when it leaves, and no reaction removes and adds
    one strand); only around them is searched, so a step costs the
    alignments near what it changed, not the register."""

    def __init__(self, instr: Instruction, index: _Index):
        self.index = index
        self.species = _species(instr)
        self.live = applicable_reactions(index.state(), instr, index)

    def fire(self, r: Reaction) -> None:
        """Apply one live reaction and bring ``live`` up to date."""
        self._step(r.removed, r.added)

    def undo(self, r: Reaction) -> None:
        """Take back the reaction that led to the current state."""
        self._step(r.added, r.removed)

    def _step(self, removed, added) -> None:
        # any delta: what it changed is all a reaction can newly need or lose
        changed = self.index.apply(removed, added)
        live = self.live
        live.difference_update([x for x in live if not changed.isdisjoint(x.footprint)])
        # an equal reaction found again leaves the one kept in place
        live.update(_forward_reactions(self.index, self.species, min(changed), max(changed)))
        live.update(_detaches(self.index, self.species, ((bs.spec, (bs,)) for bs in added)))


def _canonical_run(firing: _Firing, label: str) -> InstructionOutcome:
    """Fire the least live reaction until none is left.

    Each step is a function of the register, so a run that revisits a state
    cycles for ever, and the cycle shows as the register coming back to the
    state it held at its last power-of-two step (Brent, BIT 20, 1980).  The
    check keeps ``since``, the strands in which the register differs from
    that state (``_toggle``), cleared after steps 1, 2, 4, 8 and so on: the
    run has looped exactly when ``since`` is empty after a step, so the
    check costs the reaction, not the register.  The final state is built
    once (``_Index.state``), and a run that fires nothing returns the state
    object it started from."""
    index, live = firing.index, firing.live
    applied: list[Reaction] = []
    since: set[BoundStrand] = set()
    while live:
        r = min(live, key=_key)
        firing.fire(r)
        applied.append(r)
        _toggle(since, r)
        if not since:
            raise EngineError(_LOOP.format(label))
        if len(applied) & (len(applied) - 1) == 0:
            since.clear()
    return InstructionOutcome(index.state(), tuple(applied))


def _parts(ix: _Index, sp: _Species) -> dict[int, int]:
    """Split the positions that the instruction's reactions may bind or
    free, from the index's state on, into parts that no reaction spans.
    Maps each such position to the position its part was reached from.

    Whether a reaction applies depends only on the occupancy of its
    footprint (its alignments' matched positions and the bound sets of the
    strands it removes), and it changes nothing else.  A forward alignment
    acts only while one of its matched positions is unbound, and a strand
    leaves only when a reverse species grabs it or a forward alignment that
    may act overlaps it.  (A strand added later binds positions that were
    unbound, or freed by the strand it replaced.)  So one walk labels the
    parts: it starts from each unbound position and each strand a reverse
    species grabs, and from a position it reaches the matched positions of
    every forward alignment over it and the bound set of the strand that
    holds it.  Every footprint is a chain of such alignments and bound
    sets, so it lies in one part, and the walk costs the positions it
    reaches, not the register."""
    layout, owner, bound_of, by_domain = ix.layout, ix.owner, ix.bound_of, sp.by_domain
    d = layout.domains_per_cell
    grabbed = (bs for spec, group in ix.by_spec.items() if sp.removers(spec) for bs in group)
    label: dict[int, int] = {}
    for seed in chain(ix.unbound, (min(bound_of[bs]) for bs in grabbed)):
        if seed in label:
            continue
        label[seed] = seed
        todo = [seed]
        while todo:
            p = todo.pop()
            near = [bound_set(layout, spec, p - j) for spec, j in by_domain.get(p % d + 1, ())]
            if p in owner:
                near.append(bound_of[owner[p]])
            for group in near:
                for q in group:
                    if q not in label:
                        label[q] = seed
                        todo.append(q)
    return label


def _toggle(delta: set[BoundStrand], r: Reaction) -> None:
    """Fire or undo ``r`` on ``delta``, the strands in which the index's
    state differs from a reference state (the search's entry state, or the
    canonical run's last power-of-two step): each strand ``r`` adds or
    removes enters ``delta`` or leaves it.  Those are the strands added and
    the strands removed since that state, which never share a strand, so
    two states are equal exactly when their deltas are."""
    delta.symmetric_difference_update(r.removed)
    delta.symmetric_difference_update(r.added)


def _deadlocks(firing: _Firing, max_states: int, label: str):
    """Every final state reachable from the state ``firing``'s index starts
    at, as outcomes with one reaction order to each, in the order found;
    whether the canonical run loops; and the path of reactions from that
    state to where the search left the index.  The search runs depth first
    on ``firing``.  It fires the least reaction first and undoes one at
    once if its state was seen, else after that subtree.  Until its first
    undo it is the canonical run: the first final state is its outcome, a
    state seen again its loop.  It stops as soon as only undos are left to
    do, so a search that never branches ends at its outcome, with the
    outcome's order as its path.

    A state is keyed by its delta from the start (``_toggle``), which costs
    the reactions fired, not the register; only a final state is built as a
    ``RegisterState``.

    The search is reduced with stubborn sets (Valmari 1990; Godefroid,
    LNCS 1032, 1996): a state expands only the reactions in the part
    (``_parts``) of its least reaction.  No reaction outside that part can
    enable, disable or fail to commute with one inside it, so every final
    state stays reachable, while independent reactions are taken in one
    order instead of in all of them.  The parts are drawn at the first
    state with two reactions, by one walk from the positions that may
    change there; every state searched after it is reachable from it, so
    the least position of each of its reactions is labelled.  Raises
    ``StateBudgetExceededError`` past ``max_states`` distinct states."""
    index, live = firing.index, firing.live
    parts: dict[int, int] = {}
    delta: set[BoundStrand] = set()
    key = frozenset()
    seen = {key}
    finals: dict[frozenset[BoundStrand], InstructionOutcome] = {}
    path: list[Reaction] = []
    stack: list[Reaction | None] = []  # reactions to try, the least on top; None: undo
    canonical, loops = True, False
    while True:
        if key is not None:  # a new state: a final one, or one to expand
            ranked = sorted(live, key=_key)
            if not ranked:
                finals[key] = InstructionOutcome(index.state(), tuple(path))
            elif len(ranked) > 1:
                if not parts:
                    parts = _parts(index, firing.species)
                least = parts[ranked[0].key[0]]  # the least position a reaction binds or frees
                ranked = [r for r in ranked if parts[r.key[0]] == least]
            stack.extend(reversed(ranked))
        if len(stack) == len(path):  # each undo marker pairs with a step of the path
            return list(finals.values()), loops, path
        x = stack.pop()
        if x is None:
            x = path.pop()
            firing.undo(x)
            _toggle(delta, x)
            key, canonical = None, False
            continue
        firing.fire(x)
        _toggle(delta, x)
        path.append(x)
        stack.append(None)
        key = frozenset(delta)
        if key in seen:
            loops |= canonical
            key = None
        elif len(seen) >= max_states:
            raise StateBudgetExceededError(max_states, label)
        else:
            seen.add(key)


# The index ``run_instruction`` left at the final state it returned, which
# is the index's ``at``: {"last": index}.  ``dict.pop`` takes it in one
# step, so no two runs share an index, even across threads.
_handoff: dict[str, _Index] = {}


def _take(state: RegisterState) -> _Index:
    """The index handed off at ``state`` itself, or else a new index, which
    checks it in full.  A handed-off index was built from a validated
    state, each delta checked where it landed.  The slot is emptied either
    way, so a run that raises leaves no index behind."""
    index = _handoff.pop("last", None)
    if index is not None and index.at is state:
        return index
    return _Index(state)


def run_instruction(
    state: RegisterState, instr: Instruction, mode: Mode = Canonical()
) -> InstructionOutcome:
    """Run one instruction to its fixed point.

    The run keeps its occupancy index for the ``final_state`` object it
    returns: a call on that very object continues from the index and skips
    the full check and the rebuild; any other state is read anew, in one
    pass that checks it and builds its index.  An instruction with no
    reaction (``_inert``) puts back the very index it took, so a run of
    inert instructions on one state builds nothing, and returns ``state``
    itself, as both modes would, in the one outcome the index keeps for its
    state (``_Index.noop``).  Otherwise
    ``VerifyConfluent`` searches every final state; its first branch is the
    canonical run, which must end, without looping, in the unique one: the
    outcome.  A search that never branched leaves the index at the outcome;
    any other is moved there by undoing its path and applying the outcome's
    reactions."""
    index = _take(state)
    if _inert(index, _species(instr)):
        out = index.noop()
    elif isinstance(mode, VerifyConfluent):
        finals, loops, path = _deadlocks(_Firing(instr, index), mode.max_states, instr.label)
        if len(finals) > 1:
            b, a = finals[:2]  # b: the canonical run's
            raise NonConfluentError(a.final_state, a.applied, b.final_state, b.applied, instr.label)
        if loops:
            raise EngineError(_LOOP.format(instr.label))
        [out] = finals
        if tuple(path) != out.applied:  # the search ended away from the outcome
            for r in reversed(path):
                index.apply(r.added, r.removed)
            for r in out.applied:
                index.apply(r.removed, r.added)
        index.at = out.final_state
    else:
        out = _canonical_run(_Firing(instr, index), instr.label)
    _handoff["last"] = index  # stored last: from here another run may take and move it
    return out


def run_program(
    state: RegisterState, prog: Program, mode: Mode = Canonical()
) -> tuple[RegisterState, tuple[InstructionOutcome, ...]]:
    """Run every instruction in order; the register is validated up front
    (once, unless it is the final state of the last run) and each
    instruction continues from the index of the one before.  An engine
    error names the instruction's number in the program in its ``where``."""
    if state.layout != prog.layout:
        raise EngineError(
            f"register layout {state.layout} does not match program layout {prog.layout}"
        )
    _handoff["last"] = _take(state)  # checked here even when no instruction runs
    outcomes = []
    for number, instr in enumerate(prog.instructions, 1):
        try:
            out = run_instruction(state, instr, mode)
        except EngineError as e:
            add_where(e, f"instruction {number}")
            raise
        outcomes.append(out)
        state = out.final_state
    return state, tuple(outcomes)


def run_many(
    states: list[RegisterState], prog: Program, mode: Mode = Canonical()
) -> list[tuple[RegisterState, tuple[InstructionOutcome, ...]]]:
    """Run one program over many registers; they never interact, so a
    register equal to an earlier one gets that register's result object.
    An engine error names the register's index in ``states`` in its
    ``where``."""
    results = []
    first: dict[RegisterState, tuple[RegisterState, tuple[InstructionOutcome, ...]]] = {}
    for i, st in enumerate(states):
        if st not in first:
            try:
                first[st] = run_program(st, prog, mode)
            except EngineError as e:
                add_where(e, f"register {i}")
                raise
        results.append(first[st])
    return results
