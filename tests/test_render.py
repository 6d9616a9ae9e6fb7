from __future__ import annotations

import os
import re
from pathlib import Path

from simdna import engine
from simdna.compiler import compile_tm, encode_config
from simdna.model import (
    BoundStrand,
    Instruction,
    Match,
    Ortho,
    RegisterLayout,
    RegisterState,
    fwd,
    rev,
)
from simdna.render import (
    RenderScene,
    StyleTable,
    load_style,
    make_scene,
    render_svg,
    render_text,
    render_trace,
)
from simdna.tm import TMConfig

GOLDEN = Path(__file__).resolve().parent / "golden"


def check_golden(name: str, payload: str):
    path = GOLDEN / name
    if os.environ.get("GOLDEN_REGEN"):
        path.parent.mkdir(exist_ok=True)
        path.write_text(payload, encoding="utf-8")
    assert path.read_text(encoding="utf-8") == payload, f"golden mismatch: {name}"


def empty_scene():
    return RenderScene(RegisterState(RegisterLayout(1, 2), ()))


def micro_scene():
    layout = RegisterLayout(1, 6)
    state = RegisterState(
        layout,
        (
            BoundStrand(fwd(Match(3), Match(4)), 2),
            BoundStrand(fwd(Match(5), Match(6), Ortho("tag")), 4),
        ),
    )
    instr = Instruction(
        (
            fwd(Match(1), Match(2)),  # attaches: reactive
            fwd(Match(4), Match(5)),  # straddles two incumbents: inert
            rev(Match(5), Match(6), Ortho("tag")),  # detaches: reactive
        ),
        "demo",
    )
    scene = make_scene(state, instr, label="micro")
    assert any(not p.reactive for p in scene.pending)
    return scene


def test_inert_species_sits_where_it_binds_most():
    # the leftmost of the alignments binding the most positions, or offset
    # 0 for a species that binds nowhere
    state = RegisterState(RegisterLayout(2, 4), ())
    once = fwd(Match(3), Match(1))  # binds one position at most: first at offset -1
    nowhere = fwd(Ortho("x"), Ortho("y"))
    scene = make_scene(state, Instruction((once, nowhere)))
    assert {(p.spec, p.offset, p.reactive) for p in scene.pending} == {(once, -1, False), (nowhere, 0, False)}


def test_a_scene_without_an_instruction_holds_the_register_alone():
    reg = RegisterState(RegisterLayout(2, 4), (BoundStrand(fwd(Match(1), Match(2)), 0),))
    assert make_scene(reg, label="x") == RenderScene(reg, (), "x")


def encoded_scene(increment_spec):
    cp = compile_tm(increment_spec, 3)
    reg, _ = encode_config(increment_spec, cp.scheme, TMConfig(("0", "1", "_"), 1, "a"), 3)
    return make_scene(reg, cp.program.instructions[0], label="#1 pre-plug")


def test_text_empty_register_is_ruler_only():
    out = render_text(empty_scene())
    assert out == "|12|\n"


def test_text_simple_strand_legend():
    layout = RegisterLayout(1, 6)
    state = RegisterState(layout, (BoundStrand(fwd(Match(3), Match(4)), 2),))
    out = render_text(RenderScene(state))
    lines = out.splitlines()
    assert lines[-1] == "|123456|"
    assert lines[0] == "   =>"


def test_text_reverse_arrow():
    layout = RegisterLayout(1, 6)
    state = RegisterState(layout, (BoundStrand(fwd(Match(3), Match(4), Ortho("x")), 2),))
    scene = make_scene(state, Instruction((rev(Match(3), Match(4), Ortho("x")),)))
    out = render_text(scene)
    assert "<" in out


def test_svg_empty_register_single_baseline():
    svg = render_svg(empty_scene())
    assert svg.count('class="register"') == 1
    assert "<polyline" not in svg
    assert svg.startswith('<?xml version="1.0"')


def test_svg_element_counts(increment_spec):
    scene = encoded_scene(increment_spec)
    svg = render_svg(scene)
    polylines = svg.count("<polyline")
    assert polylines == len(scene.state.strands) + len(scene.pending)
    # every strand gets exactly one arrowhead
    assert svg.count("<path fill=") == polylines


def test_svg_inert_marking_matches_engine(increment_spec):
    scene = encoded_scene(increment_spec)
    svg = render_svg(scene)
    inert = sum(1 for p in scene.pending if not p.reactive)
    assert svg.count("stroke-dasharray") == inert
    assert inert == 4  # all pre-plugs but the applicable one


def test_determinism_text_and_svg(increment_spec):
    for scene in (empty_scene(), micro_scene(), encoded_scene(increment_spec)):
        assert render_text(scene) == render_text(scene)
        assert render_svg(scene) == render_svg(scene)


def test_golden_text(increment_spec):
    check_golden("empty.txt", render_text(empty_scene()))
    check_golden("micro.txt", render_text(micro_scene()))
    check_golden("encoded.txt", render_text(encoded_scene(increment_spec)))


def test_golden_svg(increment_spec):
    check_golden("empty.svg", render_svg(empty_scene()))
    check_golden("micro.svg", render_svg(micro_scene()))
    check_golden("encoded.svg", render_svg(encoded_scene(increment_spec)))


def _trace_scenes(increment_spec):
    cp = compile_tm(increment_spec, 3)
    reg, _ = encode_config(increment_spec, cp.scheme, TMConfig(("0", "1", "_"), 1, "a"), 3)
    scenes, counts = [], []
    state = reg
    for i, instr in enumerate(cp.program.instructions):
        out = engine.run_instruction(state, instr)
        scenes.append(make_scene(state, instr, outcome=out, label=f"#{i + 1} {instr.label}"))
        counts.append(len(out.applied))
        state = out.final_state
    return scenes, counts


def test_trace_panels_skip_inert(increment_spec):
    scenes, counts = _trace_scenes(increment_spec)
    svg = render_trace(scenes, reaction_counts=counts)
    shown = [int(m) for m in re.findall(r">#(\d+) ", svg)]
    fired = [i + 1 for i, c in enumerate(counts) if c > 0]
    assert shown == fired
    # gaps in the panel numbering are exactly the inert stretches
    assert shown[0] == 1 and shown[-1] == len(counts)


def test_trace_stride_one_shows_everything(increment_spec):
    scenes, counts = _trace_scenes(increment_spec)
    svg = render_trace(scenes, every=1, reaction_counts=counts)
    shown = re.findall(r">#(\d+) ", svg)
    assert len(shown) == len(scenes)


def test_single_outcome_trace_single_panel(increment_spec):
    scenes, counts = _trace_scenes(increment_spec)
    svg = render_trace(scenes[:1], reaction_counts=counts[:1])
    assert len(re.findall(r">#(\d+) ", svg)) == 1


def test_trace_where_nothing_fired_shows_its_first_panel(increment_spec):
    scenes, counts = _trace_scenes(increment_spec)
    inert = [i for i, c in enumerate(counts) if c == 0]
    assert len(inert) > 1
    svg = render_trace([scenes[i] for i in inert], reaction_counts=[0] * len(inert))
    assert re.findall(r">#(\d+) ", svg) == [str(inert[0] + 1)]


def test_style_table_override(tmp_path, increment_spec):
    style = StyleTable(unit_width=10)
    a = render_svg(encoded_scene(increment_spec))
    b = render_svg(encoded_scene(increment_spec), style)
    assert a != b
    # a style file
    p = tmp_path / "style.json"
    p.write_text('{"unit_width": 10}')
    assert load_style(str(p)) == style
    assert load_style(None) == StyleTable()


def test_svg_coordinates_are_exact_past_a_million():
    # 20,000 panels of a 1-cell register with one strand reach y > 10^6,
    # where six significant digits no longer hold an integer
    layout = RegisterLayout(1, 4)
    state = RegisterState(layout, (BoundStrand(fwd(Match(1), Match(2)), 0),))
    scenes = [RenderScene(state, (), f"#{i}") for i in range(20_000)]
    svg = render_trace(scenes)
    coordinates = re.findall(r'(?:x|y|x1|y1|x2|y2|width|height|points|d)="([^"]*)"', svg)
    assert coordinates and not [c for c in coordinates if "e+" in c]
    st = StyleTable()
    # a panel: the strand's lane and the label's above the baseline, the
    # tick depth below it
    height = 6 + 2 * st.lane_height + st.cell_tick_height + st.lane_height
    y_base = st.margin + 19_999 * (height + st.margin) + height - st.cell_tick_height
    label_y = y_base - 6 - 1.5 * st.lane_height
    assert label_y > 10**6
    last = re.findall(r'<text x="[^"]*" y="([^"]*)"', svg)[-1]
    assert last == f"{label_y:.0f}"
    assert svg.count("<text ") == 20_000
