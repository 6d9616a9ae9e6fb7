"""Deterministic terminal and SVG views of registers and traces.

Drawing conventions: the register is a horizontal baseline with ticks per
domain and heavier marks at cell boundaries.  Bound strands sit directly
above the positions they cover; tokens that cannot pair (overhangs,
mismatches, off-register ends) are drawn diagonally in SVG and as ``/`` in
text.  Strands added by an instruction are drawn above the register at the
alignment where they act (solid) or where they would best bind (dashed, for
species that do nothing in the shown step).  The 3' end carries the
arrowhead: right for forward strands, left for reverse.
"""
from __future__ import annotations

import re
import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from . import engine
from .model import (
    Instruction,
    Match,
    RegisterLayout,
    RegisterState,
    StrandSpec,
    _expect,
    _load_json,
    bound_set,
)


@dataclass(frozen=True)
class StyleTable:
    unit_width: int = 20
    lane_height: int = 14
    margin: int = 16
    tick_height: int = 4
    cell_tick_height: int = 10
    strand_gap: int = 3
    diag_rise: int = 7
    stroke_width: int = 2
    palette: tuple[str, ...] = (
        "#1f77b4",
        "#d62728",
        "#2ca02c",
        "#9467bd",
        "#ff7f0e",
        "#17becf",
        "#8c564b",
        "#e377c2",
        "#7f7f7f",
        "#bcbd22",
    )


# what a palette entry may not hold: it is written into an SVG attribute
# in double quotes, unescaped, so no '&', '"' or '<', and no character that
# XML 1.0 forbids
_NOT_IN_ATTRIBUTE = re.compile(r'[&"<]|[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]')


def load_style(path: Optional[str] = None) -> StyleTable:
    """The default style table, or the one a JSON file at ``path`` gives.
    Raises SchemaError, naming the file, on a malformed table."""
    if not path:
        return StyleTable()
    with open(path, "rb") as fh:
        doc = _load_json(fh.read(), path)
    _expect(isinstance(doc, dict), path, "style table must be an object")
    kwargs = {}
    for key in StyleTable.__dataclass_fields__:
        if key in doc:
            value = doc[key]
            if key == "palette":
                ok = isinstance(value, list) and value and all(isinstance(c, str) for c in value)
                _expect(ok, path, "'palette' must be a nonempty array of strings")
                ok = not any(map(_NOT_IN_ATTRIBUTE.search, value))
                _expect(ok, path, "a 'palette' entry may not hold '&', '\"', '<' or a character XML forbids")
                value = tuple(value)
            else:
                ok = isinstance(value, int) and not isinstance(value, bool) and value >= 0
                _expect(ok, path, f"{key!r} must be a nonnegative integer")
            kwargs[key] = value
    return StyleTable(**kwargs)


@dataclass(frozen=True)
class PendingStrand:
    spec: StrandSpec
    offset: int
    reactive: bool


@dataclass(frozen=True)
class RenderScene:
    state: RegisterState
    pending: tuple[PendingStrand, ...] = ()
    label: str = ""


def _best_alignment(state: RegisterState, spec: StrandSpec) -> int:
    """The leftmost offset where ``spec`` binds the most positions; 0 if it
    binds none anywhere."""
    layout = state.layout
    n, neg = max(
        (len(bound_set(layout, spec, off)), -off) for off in range(-len(spec.tokens) + 1, layout.total_positions)
    )
    return -neg if n else 0


def make_scene(
    state: RegisterState,
    instr: Optional[Instruction] = None,
    outcome: Optional[engine.InstructionOutcome] = None,
    label: str = "",
) -> RenderScene:
    """Scene for a register, optionally with an instruction's species placed
    above it.  With an outcome, a species is solid exactly when it took part
    in an applied reaction; otherwise applicability on the state decides,
    and ``engine.applicable_reactions`` checks the state in full: an invalid
    register raises ``EngineError``."""
    if instr is None:
        return RenderScene(state, (), label)
    reactions = outcome.applied if outcome is not None else engine.applicable_reactions(state, instr)
    placements = {actor: True for r in reactions for actor in r.actors}
    active_specs = {spec for (spec, _off) in placements}
    for spec in instr.species:
        if spec not in active_specs:
            placements[(spec, _best_alignment(state, spec))] = False
    pending = tuple(
        PendingStrand(spec, off, hot)
        for (spec, off), hot in sorted(
            placements.items(), key=lambda kv: (kv[0][1], kv[0][0].sort_key())
        )
    )
    return RenderScene(state, pending, label)


# --- text ---------------------------------------------------------------------


def _pack_lanes(items: Sequence[tuple[int, int]]) -> list[int]:
    """Greedy first-fit lane index per (start, end) interval."""
    lanes: list[int] = []
    ends: list[int] = []
    for start, end in items:
        for i, e in enumerate(ends):
            if start > e + 1:
                lanes.append(i)
                ends[i] = end
                break
        else:
            lanes.append(len(ends))
            ends.append(end)
    return lanes


def render_text(scene: RenderScene, pictures: Optional[dict] = None) -> str:
    """Fixed-width picture under the scene's label: ruler line at the
    bottom, bound strands above it, pending instruction strands (dashed as
    dots when inert) on top.  ``pictures`` keeps the picture of each scene
    body (state and pending strands) drawn so far, so that the scenes of
    one trace draw each distinct body once."""
    pictures = {} if pictures is None else pictures
    body = (scene.state, scene.pending)
    picture = pictures.get(body)
    if picture is None:
        picture = pictures[body] = _text_picture(*body)
    return f"{scene.label}\n{picture}" if scene.label else picture


def _text_picture(state: RegisterState, pending: tuple[PendingStrand, ...]) -> str:
    """The picture of ``render_text``."""
    layout = state.layout
    d, n = layout.domains_per_cell, layout.total_positions
    bound_rows = [
        (bs.spec, bs.offset, bound_set(layout, bs.spec, bs.offset), False) for bs in state.strands
    ]
    pend_rows = [
        (ps.spec, ps.offset, bound_set(layout, ps.spec, ps.offset) if ps.spec.is_forward else frozenset(),
         not ps.reactive)
        for ps in pending
    ]

    ends = [0, n - 1]
    for spec, offset, _, _ in bound_rows + pend_rows:
        ends += [offset, offset + len(spec.tokens) - 1]
    left_pad = max(0, -min(ends))
    right_pad = max(0, max(ends) - (n - 1))
    # the column of position p is cols[left_pad + p]; a gap column precedes
    # each cell and follows the register
    beyond = left_pad + 1 + n + layout.cells
    cols = [
        *range(1, left_pad + 1),
        *(left_pad + 1 + p + p // d for p in range(n)),
        *range(beyond, beyond + right_pad),
    ]
    width = beyond + right_pad

    ruler = [" "] * width
    for p in range(n):
        ruler[cols[left_pad + p]] = str(layout.domain_at(p) % 10)
    for c in range(layout.cells):
        ruler[cols[left_pad + c * d] - 1] = "|"
    ruler[cols[left_pad + n - 1] + 1] = "|"

    def stack(strands: list[tuple[StrandSpec, int, frozenset[int], bool]]) -> list[str]:
        """Each strand written straight into its lane's row, in order, so a
        later strand overwrites an earlier one where they share a column."""
        spans = [cols[left_pad + off:left_pad + off + len(spec.tokens)] for spec, off, _, _ in strands]
        lanes = _pack_lanes([(span[0], span[-1]) for span in spans])
        grid = [[" "] * width for _ in range(max(lanes, default=-1) + 1)]
        for (spec, offset, bound, dashed), span, lane in zip(strands, spans, lanes):
            row = grid[lane]
            for p, c in enumerate(span, offset):
                row[c] = "." if dashed else "=" if p in bound else "/"
            if spec.is_forward:
                row[span[-1]] = ">"
            else:
                row[span[0]] = "<"
        return ["".join(g).rstrip() for g in reversed(grid)]

    lines = stack(pend_rows)
    lines += stack(bound_rows)
    lines.append("".join(ruler).rstrip())
    return "\n".join(lines) + "\n"


# --- SVG ----------------------------------------------------------------------


@lru_cache(maxsize=65536)
def _spec_crc(spec: StrandSpec) -> int:
    """crc32 of the spec's token key, which picks its palette color."""
    key = ";".join(
        f"m{t.domain}" if isinstance(t, Match) else f"o{t.tag}" for t in spec.tokens
    )
    return zlib.crc32(key.encode())


def _color(spec: StrandSpec, style: StyleTable) -> str:
    return style.palette[_spec_crc(spec) % len(style.palette)]


def _y_template(draw) -> tuple[str, tuple[int, ...]]:
    """SVG text with its y coordinates left open, from ``draw(at)``, in
    which ``at(dy)`` stands for the coordinate ``y + dy``: a format string
    whose field i is ``y + dys[i]``, and ``dys``.  ``draw`` doubles the
    braces of any other text it writes."""
    dys: list[int] = []

    def at(dy: int) -> str:
        if dy not in dys:
            dys.append(dy)
        return "{%d}" % dys.index(dy)

    return draw(at), tuple(dys)


def _fill(template: tuple[str, tuple[int, ...]], y: int) -> str:
    """The text of ``template`` at ``y``."""
    text, dys = template
    return text.format(*[y + dy for dy in dys])


def _num(v: float) -> str:
    """``v`` written exactly: an integral value as an integer."""
    return str(int(v)) if v == int(v) else repr(v)


def _register_template(layout: RegisterLayout, style: StyleTable, x0: int) -> tuple[str, tuple[int, ...]]:
    """The baseline, domain ticks and cell marks of a register whose
    baseline sits at the open y (see ``_y_template``)."""
    d, n, u = layout.domains_per_cell, layout.total_positions, style.unit_width

    def draw(at) -> str:
        lines = [
            f'<path class="register" stroke="#000" stroke-width="2" fill="none" '
            f'd="M {x0} {at(0)} H {x0 + n * u}"/>'
        ]
        for p in range(n + 1):
            h = style.cell_tick_height if p % d == 0 else style.tick_height
            lines.append(
                f'<line stroke="#000" stroke-width="1" x1="{x0 + p * u}" y1="{at(0)}" '
                f'x2="{x0 + p * u}" y2="{at(h)}"/>'
            )
        return "\n".join(lines)

    return _y_template(draw)


def _strand_template(
    spec: StrandSpec,
    offset: int,
    bound: frozenset[int],
    dashed: bool,
    style: StyleTable,
    x0: int,
) -> tuple[str, tuple[int, ...]]:
    """The polyline and arrowhead of a strand whose lane sits at the open y
    (see ``_y_template``)."""
    u, g = style.unit_width, style.strand_gap
    rise = style.diag_rise
    pts: list[tuple[int, int]] = []  # (x, dy)
    for j in range(len(spec.tokens)):
        p = offset + j
        xa, xb = x0 + p * u + g, x0 + (p + 1) * u - g
        if p in bound:
            pts += [(xa, 0), (xb, 0)]
        else:
            pts += [(xa, -2), (xb, -rise)]
    color = _color(spec, style).replace("{", "{{").replace("}", "}}")
    dash = ' stroke-dasharray="5 4"' if dashed else ""
    tx, ty = pts[-1] if spec.is_forward else pts[0]
    tip = tx + 6 if spec.is_forward else tx - 6

    def draw(at) -> str:
        points = " ".join(f"{x},{at(dy)}" for x, dy in pts)
        return (
            f'<polyline fill="none" stroke="{color}" stroke-width="{style.stroke_width}"{dash} points="{points}"/>\n'
            f'<path fill="{color}" d="M {tx} {at(ty - 3)} L {tip} {at(ty)} L {tx} {at(ty + 3)} Z"/>'
        )

    return _y_template(draw)


def _scene_fragment(
    scene: RenderScene, style: StyleTable, y_top: int, x0: int, templates: dict
) -> tuple[list[str], int]:
    """SVG elements for one scene drawn below y_top; returns the fragment and
    the height it takes (the baseline sits ``cell_tick_height`` above its
    bottom).  ``templates`` keeps the register and strand templates of each
    layout drawn so far, for a fixed ``style`` and ``x0``."""
    layout = scene.state.layout
    lh = style.lane_height

    items = [
        (bs.offset, bs.offset + len(bs.spec.tokens) - 1) for bs in scene.state.strands
    ]
    bound_lanes = _pack_lanes(items)
    n_bound = max(bound_lanes, default=-1) + 1
    pend_items = [
        (ps.offset, ps.offset + len(ps.spec.tokens) - 1) for ps in scene.pending
    ]
    pend_lanes = _pack_lanes(pend_items)
    n_pend = max(pend_lanes, default=-1) + 1

    top_lanes = n_bound + (n_pend + 1 if n_pend else 0)
    height = 6 + (top_lanes + 1) * lh + style.cell_tick_height
    if scene.label:
        height += lh
    y_base = y_top + height - style.cell_tick_height

    drawn = templates.get(layout)
    if drawn is None:
        drawn = templates[layout] = (_register_template(layout, style, x0), {})
    register, strands = drawn
    parts = [_fill(register, y_base)]
    # (spec, offset, dashed, pending) and the lane's y of each strand; a
    # pending reverse strand binds nowhere
    rows = [
        ((bs.spec, bs.offset, False, False), y_base - 6 - lane * lh)
        for bs, lane in zip(scene.state.strands, bound_lanes)
    ]
    rows += [
        ((ps.spec, ps.offset, not ps.reactive, True), y_base - 6 - (n_bound + 1 + lane) * lh)
        for ps, lane in zip(scene.pending, pend_lanes)
    ]
    for key, y in rows:
        template = strands.get(key)
        if template is None:
            spec, offset, dashed, pending = key
            bound = frozenset() if pending and not spec.is_forward else bound_set(layout, spec, offset)
            template = strands[key] = _strand_template(spec, offset, bound, dashed, style, x0)
        parts.append(_fill(template, y))

    if scene.label:
        ylab = y_base - 6 - (top_lanes + 0.5) * lh
        parts.append(
            f'<text x="{x0}" y="{_num(ylab)}" font-family="monospace" font-size="11" fill="#000">{_esc(scene.label)}</text>'
        )
    return parts, height


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _document(parts: list[str], width: int, height: int) -> list[str]:
    """The document around ``parts``, as the parts whose newline-join it is."""
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        *(parts or [""]),
        "</svg>",
        "",
    ]


def _extent(scene: RenderScene) -> tuple[int, int]:
    n = scene.state.layout.total_positions
    lo, hi = 0, n
    for bs in scene.state.strands:
        lo = min(lo, bs.offset)
        hi = max(hi, bs.offset + len(bs.spec.tokens))
    for ps in scene.pending:
        lo = min(lo, ps.offset)
        hi = max(hi, ps.offset + len(ps.spec.tokens))
    return lo, hi


def render_svg(scene: RenderScene, style: Optional[StyleTable] = None) -> str:
    return render_trace([scene], style=style)


def render_trace(
    scenes: Sequence[RenderScene],
    every: Optional[int] = None,
    reaction_counts: Optional[Sequence[int]] = None,
    style: Optional[StyleTable] = None,
) -> str:
    """Stacked panels.  By default panels where nothing fired are omitted
    (their instructions were inert); a stride of ``every`` forces inclusion
    of every ``every``-th panel, so ``every=1`` shows all of them."""
    return "\n".join(render_trace_parts(scenes, every, reaction_counts, style))


def render_trace_parts(
    scenes: Sequence[RenderScene],
    every: Optional[int] = None,
    reaction_counts: Optional[Sequence[int]] = None,
    style: Optional[StyleTable] = None,
) -> list[str]:
    """The SVG of ``render_trace`` as the parts whose newline-join it is, so
    that a large document can be written out without being held whole."""
    style = style or StyleTable()
    chosen: list[RenderScene] = []
    for i, scene in enumerate(scenes):
        fired = None if reaction_counts is None else reaction_counts[i]
        include = (
            fired is None
            or fired > 0
            or (every is not None and i % every == 0)
        )
        if include:
            chosen.append(scene)
    if not chosen:
        chosen = list(scenes[:1])

    extents = [_extent(s) for s in chosen]
    lo = min((e[0] for e in extents), default=0)
    hi = max((e[1] for e in extents), default=1)
    x0 = style.margin - lo * style.unit_width
    width = style.margin * 2 + (hi - lo) * style.unit_width

    parts: list[str] = []
    templates: dict = {}
    y = style.margin
    for scene in chosen:
        frag, h = _scene_fragment(scene, style, y, x0, templates)
        parts += frag
        y += h + style.margin
    return _document(parts, width, y)
