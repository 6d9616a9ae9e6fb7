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
from operator import attrgetter, itemgetter
from typing import ClassVar, Union

from .model import (
    BoundStrand,
    Instruction,
    Match,
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
    binds), then by the rule's ``rank``, then by ``tie_break()``.  ``doc()``
    is the reaction's trace JSON.
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

    def __post_init__(self):
        object.__setattr__(self, "added", (BoundStrand(self.spec, self.offset),))

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
        object.__setattr__(self, "added", (BoundStrand(self.spec, self.offset),))

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
        left, right = BoundStrand(self.left_spec, self.left_offset), BoundStrand(self.right_spec, self.right_offset)
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


class _Species:
    """One instruction's species, arranged for the search: each register
    domain with the forward (species, token index) pairs that match it, and
    which reverse species carry off a bound strand of a given spec (filled on
    demand)."""

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
_LOOP = "reaction loop revisited a state while applying {!r}"


class _Index:
    """Occupancy index of one register, kept for one run and updated from
    each reaction's delta: the strand owning each position, the unbound
    positions in order, each strand's bound set, the strands of each spec
    that carries an overhang (only those can be grabbed, see
    ``_Species.removers``), and the strands in canonical order (by offset,
    then spec)."""

    def __init__(self, state: RegisterState):
        self.layout = state.layout
        self.owner: dict[int, BoundStrand] = {}
        self.bound_of: dict[BoundStrand, frozenset[int]] = {}
        self.by_spec: dict[StrandSpec, set[BoundStrand]] = {}
        self.strands = list(state.strands)
        for bs in self.strands:
            bound = bound_set(self.layout, bs.spec, bs.offset)
            self.bound_of[bs] = bound
            if bs.spec.has_ortho:
                self.by_spec.setdefault(bs.spec, set()).add(bs)
            for p in bound:
                self.owner[p] = bs
        self.unbound = [p for p in range(self.layout.total_positions) if p not in self.owner]

    @classmethod
    def validated(cls, state: RegisterState) -> "_Index":
        """The index of a state that passes the full ``validate_state``; the
        reactions applied to it afterwards are checked where they land."""
        bad = validate_state(state)
        if bad:
            raise EngineError(f"invalid register: {'; '.join(bad)}")
        return cls(state)

    def state(self) -> RegisterState:
        return RegisterState.presorted(self.layout, tuple(self.strands))

    def apply(self, removed, added) -> set[int]:
        """Apply one delta (a reaction is ``r.removed, r.added``, its undo
        ``r.added, r.removed``), checking the invariants of ``validate_state``
        only where it lands (a valid state plus a valid delta is a valid
        state).  Returns the positions it bound or freed."""
        changed = set()
        for bs in removed:
            bound = self.bound_of.pop(bs, None)
            if bound is None:
                raise InapplicableReactionError(f"incumbent not present: {bs}")
            for p in bound:
                del self.owner[p]
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
            bad = strand_violations(bs, bound, self.owner)
            if bad:
                raise InapplicableReactionError(
                    f"binding {bs} makes an invalid state: {'; '.join(bad)}"
                )
            for p in bound:
                self.owner[p] = bs
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
    remover, so then ``applicable_reactions`` is empty.  Costs the unbound
    positions and the specs of ``by_spec``, not the register's specs."""
    d = ix.layout.domains_per_cell
    by_domain = sp.by_domain
    if any(p % d + 1 in by_domain for p in ix.unbound):
        return False
    return not (sp.reverse and any(map(sp.removers, ix.by_spec)))


def _alignment(ix: _Index, spec: StrandSpec, offset: int):
    """The attach/displace/exchange reactions of one alignment, and its
    cooperative flank ``(incumbent, M, cover, left, right)`` (or None) when
    it partly covers one incumbent from a toehold on its left or right."""
    M = bound_set(ix.layout, spec, offset)
    owner = ix.owner
    overlap = {p for p in M if p in owner}
    if not overlap:
        if any(p + 1 in M for p in M):
            return (Attach(spec, offset),), None
        return (), None

    incumbents = {owner[p] for p in overlap}
    if len(incumbents) != 1:
        return (), None
    inc = next(iter(incumbents))
    inc_bound = ix.bound_of[inc]
    runs = _runs(M)

    if overlap == inc_bound:
        # full coverage: displace, with the toehold in the covering run
        run = next((r for r in runs if inc_bound <= set(r)), None)
        if run is not None and any(p not in owner for p in run):
            if not (inc.spec == spec and inc.offset == offset):
                return (Displace(inc, spec, offset),), None
        return (), None

    found = ()
    lo, hi = min(inc_bound), max(inc_bound)
    for x, far in ((hi, "right"), (lo, "left")):
        if x in M or overlap != inc_bound - {x}:
            continue
        run = next((r for r in runs if inc_bound - {x} <= set(r)), None)
        if run is None:
            continue
        if far == "right":
            toeholds = [p for p in run if p not in owner and p < lo]
        else:
            toeholds = [p for p in run if p not in owner and p > hi]
        if toeholds:
            found = (ToeholdExchange(inc, spec, offset),)

    run = next((r for r in runs if overlap <= set(r)), None)
    if run is None:
        return found, None
    left = any(p not in owner and p < lo for p in run)
    right = any(p not in owner and p > hi for p in run)
    return found, ((inc, M, overlap, left, right) if left or right else None)


def _forward_reactions(ix: _Index, sp: _Species, lo: int, hi: int) -> list[Reaction]:
    """Forward-species reactions of the alignments with an unbound matched
    position in lo-1..hi+1, and every cooperative pair of an incumbent one
    of them flanks.  When the positions that changed in one step lie in
    lo..hi, that includes every reaction whose matched positions meet them:
    a reaction needs an unbound matched position in the run that holds its
    overlap, and the one nearest a changed position is either that position
    or next to the one incumbent, which lies in lo..hi when it is new.  A
    flank's toehold is next to its incumbent in the same way."""
    out: list[Reaction] = []
    left: dict[BoundStrand, list] = {}
    right: dict[BoundStrand, list] = {}

    def survey(alignments) -> None:
        for spec, offset in alignments:
            found, flank = _alignment(ix, spec, offset)
            out.extend(found)
            if flank is not None:
                inc, M, cover, is_left, is_right = flank
                if is_left:
                    left.setdefault(inc, []).append((spec, offset, M, cover))
                if is_right:
                    right.setdefault(inc, []).append((spec, offset, M, cover))

    near = _candidates(ix, sp, lo - 1, hi + 1)
    survey(near)
    # complete the flank lists of the incumbents flanked near the window
    scope = set(left) | set(right)
    if scope:
        a = min(min(ix.bound_of[inc]) for inc in scope) - 1
        b = max(max(ix.bound_of[inc]) for inc in scope) + 1
        if a < lo - 1 or b > hi + 1:
            survey(_candidates(ix, sp, a, b) - near)
    for inc in scope:
        inc_bound = ix.bound_of[inc]
        for lspec, loff, lM, lcover in left.get(inc, ()):
            for rspec, roff, rM, rcover in right.get(inc, ()):
                if lM & rM:
                    continue
                if lcover | rcover != inc_bound:
                    continue
                out.append(Cooperative(inc, lspec, loff, rspec, roff))
    return out


def _detaches(sp: _Species, groups) -> list[Detach]:
    """Detach reactions of the bound strands in ``groups``, (spec, strands)
    pairs."""
    if not sp.reverse:
        return []
    return [Detach(bs, rv) for spec, strands in groups for rv in sp.removers(spec) for bs in strands]


def applicable_reactions(
    state: RegisterState, instr: Instruction, index: _Index | None = None
) -> set:
    """All reactions the instruction's species can perform on the state.
    ``index`` is the state's occupancy index when the caller keeps one."""
    ix = _Index(state) if index is None else index
    sp = _species(instr)
    out = set(_detaches(sp, ix.by_spec.items()))
    out.update(_forward_reactions(ix, sp, 0, state.layout.total_positions - 1))
    return out


def _order_key(r: Reaction, layout: RegisterLayout) -> tuple:
    pos = min(
        min(bound_set(layout, bs.spec, bs.offset), default=0)
        for bs in r.added or r.removed
    )
    return (pos, r.rank, r.tie_break())


def apply_reaction(state: RegisterState, r: Reaction) -> RegisterState:
    """Post-state of one reaction: the state is checked in full, the
    reaction where it lands.  Raises if the reaction cannot apply (defensive,
    signals an engine bug rather than user error)."""
    index = _Index.validated(state)
    index.apply(r.removed, r.added)
    return index.state()


class _Firing:
    """One instruction's reactions on an index, fired (and, for the
    confluence search, undone) one at a time.  ``live`` maps every reaction
    that applies to the index's current state to its sort key.  A reaction
    depends only on the occupancy of its footprint: the matched positions of
    the strands it adds and the bound sets of those it removes.  After each
    step exactly the reactions whose footprint meets the changed positions
    are stale (a strand's positions change only when it leaves, and no
    reaction removes and adds one strand); only around them is searched."""

    def __init__(self, state: RegisterState, instr: Instruction, index: _Index):
        self.index = index
        self.species = _species(instr)
        self.live: dict[Reaction, tuple] = {}
        self._footprint: dict[Reaction, frozenset[int]] = {}
        self._admit(applicable_reactions(state, instr, index))

    def _admit(self, reactions) -> None:
        layout = self.index.layout
        for r in reactions:
            if r not in self.live:
                self.live[r] = _order_key(r, layout)
                self._footprint[r] = frozenset().union(
                    *(bound_set(layout, bs.spec, bs.offset) for bs in (*r.added, *r.removed))
                )

    def fire(self, r: Reaction) -> None:
        """Apply one live reaction and bring ``live`` up to date."""
        self._step(r.removed, r.added)

    def undo(self, r: Reaction) -> None:
        """Take back the reaction that led to the current state."""
        self._step(r.added, r.removed)

    def _step(self, removed, added) -> None:
        # any delta: what it changed is all a reaction can newly need or lose
        changed = self.index.apply(removed, added)
        stale = [x for x, footprint in self._footprint.items() if not changed.isdisjoint(footprint)]
        for x in stale:
            del self.live[x], self._footprint[x]
        self._admit(_forward_reactions(self.index, self.species, min(changed), max(changed)))
        self._admit(_detaches(self.species, ((bs.spec, (bs,)) for bs in added)))


def _canonical_run(firing: _Firing, state: RegisterState, label: str) -> InstructionOutcome:
    """Fire the least live reaction until none is left, from ``state``.

    Each step is a function of the register, so a run that revisits a state
    cycles for ever, and the cycle shows as its strand list coming back to
    the one it held at its last power-of-two step (Brent, BIT 20, 1980):
    one copy of the list, refreshed after steps 1, 2, 4, 8 and so on, is all
    the check keeps.  The final state is built once, and a run that fires
    nothing returns ``state`` itself."""
    index, live = firing.index, firing.live
    applied: list[Reaction] = []
    kept = index.strands.copy()
    while live:
        r = min(live.items(), key=itemgetter(1))[0]
        firing.fire(r)
        applied.append(r)
        if index.strands == kept:
            raise EngineError(_LOOP.format(label))
        if len(applied) & (len(applied) - 1) == 0:
            kept = index.strands.copy()
    return InstructionOutcome(index.state() if applied else state, tuple(applied))


def _parts(ix: _Index, sp: _Species) -> dict[int, int]:
    """Split the positions that the instruction's reactions may bind or
    free, from the index's state on, into parts that no reaction spans.
    Maps each such position to a representative of its part.

    Whether a reaction applies depends only on the occupancy of its
    footprint (its alignments' matched positions and the bound sets of the
    strands it removes), and it changes nothing else.  A forward alignment
    acts only while one of its matched positions is unbound.  So an
    alignment is live when it holds a position that may ever be unbound:
    one unbound now, or bound by a strand that may leave, which is one a
    reverse species grabs or a live alignment overlaps.  (A strand added
    later binds positions that were unbound, or freed by the strand it
    replaced.)  Every footprint is a chain of overlapping live alignments
    and strands that may leave; the parts are their connected groups."""
    layout = ix.layout
    d = layout.domains_per_cell
    covering: dict[int, list[frozenset[int]]] = {}
    for p in range(layout.total_positions):
        for spec, j in sp.by_domain.get(p % d + 1, ()):
            M = bound_set(layout, spec, p - j)
            if len(M) >= 2:  # a strand binds at least two positions
                covering.setdefault(p, []).append(M)
    may_leave = {bs for spec, group in ix.by_spec.items() if sp.removers(spec) for bs in group}
    may_free = set(ix.unbound).union(*(ix.bound_of[bs] for bs in may_leave))
    live: set[frozenset[int]] = set()
    todo = list(may_free)
    while todo:
        for M in covering.get(todo.pop(), ()):
            if M in live:
                continue
            live.add(M)
            for bs in {ix.owner[q] for q in M if q in ix.owner} - may_leave:
                may_leave.add(bs)
                fresh = ix.bound_of[bs] - may_free
                may_free |= fresh
                todo.extend(fresh)
    parent: dict[int, int] = {}

    def root(p: int) -> int:
        while parent.setdefault(p, p) != p:
            parent[p] = p = parent[parent[p]]
        return p

    for group in live | {ix.bound_of[bs] for bs in may_leave}:
        first, *rest = group
        for p in rest:
            parent[root(p)] = root(first)
    return {p: root(p) for p in parent}


def _deadlocks(state: RegisterState, firing: _Firing, max_states: int, label: str):
    """Every final state reachable from ``state``, with one reaction order
    to each, in the order found, and whether the canonical run loops.  The
    search runs depth first on ``firing``, which ends where it started.  It
    fires the least reaction first and undoes one at once if its state was
    seen, else after that subtree.  Until its first undo it is the canonical
    run: the first final state is its outcome, a state seen again its loop.

    The search is reduced with stubborn sets (Valmari 1990; Godefroid,
    LNCS 1032, 1996): a state expands only the reactions in the part
    (``_parts``) of its least reaction.  No reaction outside that part can
    enable, disable or fail to commute with one inside it, so every final
    state stays reachable, while independent reactions are taken in one
    order instead of in all of them.  The parts are drawn at the first
    state with two reactions; every state searched after it is reachable
    from it.  Raises ``StateBudgetExceededError`` past ``max_states``
    distinct states."""
    index, live = firing.index, firing.live
    parts: dict[int, int] = {}
    seen = {state}
    finals: dict[RegisterState, tuple[Reaction, ...]] = {}
    path: list[Reaction] = []
    stack: list[Reaction | None] = []  # reactions to try, the least on top; None: undo
    cur, canonical, loops = state, True, False
    while True:
        if cur is not None:  # a new state: a final one, or one to expand
            ranked = sorted(live.items(), key=itemgetter(1))
            if not ranked:
                finals[cur] = tuple(path)
            elif len(ranked) > 1:
                if not parts:
                    parts = _parts(index, firing.species)
                least = parts[ranked[0][1][0]]  # the least position a reaction binds or frees
                ranked = [item for item in ranked if parts[item[1][0]] == least]
            stack.extend(x for x, _ in reversed(ranked))
        if not stack:
            return finals, loops
        x = stack.pop()
        if x is None:
            firing.undo(path.pop())
            cur, canonical = None, False
            continue
        firing.fire(x)
        path.append(x)
        stack.append(None)
        cur = index.state()
        if cur in seen:
            loops |= canonical
            cur = None
        elif len(seen) >= max_states:
            raise StateBudgetExceededError(max_states, label)
        else:
            seen.add(cur)


# The last final state ``run_instruction`` returned, with the index it left
# at that state: {"last": (state, index)}.  ``dict.pop`` takes it in one
# step, so no two runs share an index, even across threads.
_handoff: dict[str, tuple[RegisterState, _Index]] = {}


def _take_index(state: RegisterState) -> _Index:
    """The index handed off with ``state`` itself, or else a new index of
    ``state`` once it passes the full ``validate_state``.  A handed-off
    state was built by the engine from a validated one, each delta checked
    where it landed.  The slot is emptied either way, so a run that raises
    leaves no index behind."""
    kept = _handoff.pop("last", None)
    if kept is not None and kept[0] is state:
        return kept[1]
    return _Index.validated(state)


def _hand_off(state: RegisterState, index: _Index) -> None:
    _handoff["last"] = (state, index)


def run_instruction(
    state: RegisterState, instr: Instruction, mode: Mode = Canonical()
) -> InstructionOutcome:
    """Run one instruction to its fixed point.

    The run keeps its occupancy index for the ``final_state`` object it
    returns: a call on that very object continues from the index and skips
    the full validation and the rebuild; any other state is validated and
    indexed anew.  An instruction with no reaction (``_inert``) returns
    ``state`` itself, as both modes would.  Otherwise ``VerifyConfluent``
    searches every final state; its first branch is the canonical run, which
    must end, without looping, in the unique one: the outcome."""
    index = _take_index(state)
    if _inert(index, _species(instr)):
        _hand_off(state, index)
        return InstructionOutcome(state, ())
    firing = _Firing(state, instr, index)
    if isinstance(mode, VerifyConfluent):
        finals, loops = _deadlocks(state, firing, mode.max_states, instr.label)
        if len(finals) > 1:
            (b, order_b), (a, order_a) = list(finals.items())[:2]  # b: the canonical run's
            raise NonConfluentError(a, order_a, b, order_b, instr.label)
        if loops:
            raise EngineError(_LOOP.format(instr.label))
        [(final, applied)] = finals.items()
        for r in applied:  # the search ended at ``state``
            index.apply(r.removed, r.added)
        out = InstructionOutcome(final, applied)
    else:
        out = _canonical_run(firing, state, instr.label)
    _hand_off(out.final_state, index)
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
    _hand_off(state, _take_index(state))  # checked here even when no instruction runs
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
