import math
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from lutetab import RenderConfig, compile_source, render_pars
from lutetab.errors import EmitError
from lutetab.model import ParsModel
from lutetab.svg_out import _BLOCK as BLOCK

import helpers

SVG_TEXT = "{http://www.w3.org/2000/svg}text"
FIXTURES = Path(__file__).parent / "fixtures"


def texts(svg: str) -> list[ET.Element]:
    return list(ET.fromstring(svg).iter(SVG_TEXT))


@pytest.fixture(scope="module")
def newsidler_svg(newsidler_score):
    return render_pars(newsidler_score.partes[0])


def test_graphics_match_golden_files(newsidler_svg, schlick_score):
    schlick_svg = render_pars(schlick_score.partes[0])
    for name, svg in (("newsidler", newsidler_svg), ("schlick", schlick_svg)):
        assert svg.encode("utf-8") == (FIXTURES / f"{name}.svg").read_bytes()


# the CLI's --col-spacing 13.5 --row-spacing 7.25 --stem-height 30 --font-size 9.5 --margin 0.5
_ODD_GEOMETRY = RenderConfig(13.5, 7.25, 30.0, 9.5, 0.5)


def test_graphics_match_golden_files_at_odd_geometry(newsidler_score, schlick_score):
    for name, score in (("newsidler", newsidler_score), ("schlick", schlick_score)):
        svg = render_pars(score.partes[0], _ODD_GEOMETRY)
        assert svg.encode("utf-8") == (FIXTURES / f"{name}.geometry.svg").read_bytes()


def test_well_formed_with_namespace(newsidler_svg, schlick_score):
    root = ET.fromstring(newsidler_svg)
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    ET.fromstring(render_pars(schlick_score.partes[0]))


def test_one_text_per_sonum_plus_numerus(newsidler_score, schlick_score):
    for score in (newsidler_score, schlick_score):
        pars = score.partes[0]
        svg = render_pars(pars)
        expected = sum(len(c.sona) for c in pars.columns) + len(pars.columns)
        assert len(texts(svg)) == expected


def test_numerus_labels_present(schlick_score):
    pars = schlick_score.partes[0]
    labels = {t.text for t in texts(render_pars(pars))}
    assert {"0", str(len(pars.columns) - 1)} <= labels


def test_prolongate_marker_in_label(newsidler_score):
    labels = [t.text for t in texts(render_pars(newsidler_score.partes[0]))]
    assert "4+" in labels


def test_deterministic_output(newsidler_text):
    first = render_pars(compile_source(newsidler_text).partes[0])
    second = render_pars(compile_source(newsidler_text).partes[0])
    assert first == second


def test_beam_segments_drawn(newsidler_svg):
    # five beam groups in the fixture, one thick segment each
    assert newsidler_svg.count("stroke-width='2.5'") == 5


def test_beamed_stems_reach_their_own_group_top():
    # with duratioCadens each duration sits on the free row above its
    # topmost grip, so stems of one system start at different heights
    head = "duratioCadens = est\ntbl = ( (1 a f) )\nPARS p\nbünde = tbl\n"
    durations = ["E_", "F", "_E", "T", "T_", "_F", "E"]
    v1 = {6: "a"}
    v2 = {1: "f"}
    v3 = {0: "1", 1: "a", 2: "f", 3: "1", 4: "a", 5: "f"}
    lines = helpers.system_lines(durations, v1, v2, v3)
    svg = render_pars(compile_source(head + "\n".join(lines) + "\n").partes[0])

    cfg = RenderConfig()

    def top(row: int) -> float:  # stem top for a duration on ``row``, one band
        return cfg.margin + row * cfg.row_spacing

    def x(j: int) -> float:
        return cfg.margin + j * cfg.column_spacing

    segments = [
        (*(float(el.get(k)) for k in ("x1", "y1", "x2", "y2")), el.get("stroke-width"))
        for el in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}line")
    ]
    stems = {x1: y2 for x1, _, x2, y2, _ in segments if x1 == x2}
    beams = sorted((x1, x2, y1, y2) for x1, y1, x2, y2, width in segments if width == "2.5")
    flags = sorted(x1 for x1, _, x2, _, _ in segments if x2 == x1 + 6.0)

    # group 0-2: duration rows 2, 1, 2; group 4-5: rows 2, 2
    assert top(1) != top(2)
    assert [stems[x(j)] for j in (0, 1, 2)] == [top(1)] * 3
    assert [stems[x(j)] for j in (4, 5)] == [top(2)] * 2
    assert beams == [(x(0), x(2), top(1), top(1)), (x(4), x(5), top(2), top(2))]
    # unbeamed stems keep their own tops and flags: T has one, E three
    assert stems[x(3)] == top(2) and stems[x(6)] == top(0)
    assert flags == [x(3)] + [x(6)] * 3


def test_carry_columns_render_placeholder(schlick_score):
    svg = render_pars(schlick_score.partes[0])
    assert svg.count("stroke='#999999'") == 5


def test_standalone_dots_and_dotted_stems_draw_circles():
    import helpers

    head = "tbl = ( (1 a f) )\nPARS p\nbünde = tbl\n"
    lines = helpers.system_lines([".", "..", "I."], {0: "1", 1: "a", 2: "f"})
    svg = render_pars(compile_source(head + "\n".join(lines) + "\n").partes[0])
    # 1 + 2 dots for the standalone groups, 1 for the dotted stem
    assert svg.count("<circle") == 4
    # only the dotted stem draws a stem line; flags: I has none
    assert svg.count("stroke='black'") == 1


def test_two_bands_for_two_systems(schlick_score, newsidler_score):
    two = render_pars(schlick_score.partes[0])
    one = render_pars(newsidler_score.partes[0])
    h2 = float(ET.fromstring(two).get("height"))
    h1 = float(ET.fromstring(one).get("height"))
    assert h2 > h1


@pytest.mark.parametrize("cadens", [False, True], ids=["flat", "cadens"])
def test_a_column_without_a_grip_is_refused(schlick_text, cadens):
    """Such a column has no duration row under ``duratioCadens``. The renderer
    refuses it either way, as the XML writer does, with an ``EmitError`` only."""
    pars = compile_source(schlick_text).partes[0]._replace(duratio_cadens=cadens)
    pars.columns[-1].sona.clear()
    message = f"column {len(pars.columns) - 1} holds no grip (every column needs at least one)"
    for render in (render_pars, helpers.reference_render_pars):
        with pytest.raises(EmitError) as exc:
            render(pars)
        assert exc.value.message == message


def test_empty_pars_renders_margins_only():
    empty = ParsModel("void", [], "tbl", [])
    svg = render_pars(empty)
    root = ET.fromstring(svg)
    assert root.get("width") == "40" and root.get("height") == "40"
    assert texts(svg) == []


def test_config_scaling():
    cfg = RenderConfig(column_spacing=56.0)
    assert cfg.column_spacing == 56.0


@pytest.mark.parametrize("field", ["column_spacing", "row_spacing", "stem_height", "font_size", "margin"])
def test_config_rejects_nonpositive(field):
    with pytest.raises(ValueError, match=field):
        RenderConfig(**{field: 0.0})


# 10**400: an int too large for a float, on which math.isfinite raises OverflowError
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400],
                         ids=["nan", "inf", "-inf", "10**400"])
@pytest.mark.parametrize("field", ["column_spacing", "row_spacing", "stem_height", "font_size", "margin"])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        RenderConfig(**{field: value})


@pytest.mark.parametrize("config, as_float", [
    (RenderConfig(margin=20, column_spacing=28), RenderConfig(margin=20.0, column_spacing=28.0)),
    (RenderConfig(margin=20, column_spacing=28.5), RenderConfig(margin=20.0, column_spacing=28.5)),
    (RenderConfig(28, 18, 24, 12, 20), RenderConfig(28.0, 18.0, 24.0, 12.0, 20.0)),
], ids=["int", "mixed", "all-int"])
def test_int_lengths_render_as_their_equal_floats(config, as_float):
    """An int length takes part in every x and y as it is, so each ``margin +
    j * spacing`` of the writer must work for an int and a float alike. With
    every length an int, a stem's top is an int too, a key of the same memo
    as the float ys of its flags; cadens puts the stems on rows other than 0."""
    for cadens in (False, True):
        pars = compile_source(helpers.block_source([BLOCK + 2, 1, 5], BLOCK, cadens)).partes[0]
        svg = render_pars(pars, config)
        assert len(pars.system_ranges) == 3
        assert svg == helpers.reference_render_pars(pars, config)
        assert svg == render_pars(pars, as_float)


@pytest.mark.parametrize("cadens", [False, True], ids=["flat", "cadens"])
@pytest.mark.parametrize("widths", helpers.block_widths(BLOCK), ids=str)
def test_graphics_across_block_boundaries_match_the_reference(widths, cadens):
    pars = compile_source(helpers.block_source(widths, BLOCK, cadens)).partes[0]
    svg = render_pars(pars)
    assert svg == helpers.reference_render_pars(pars)
    assert len(pars.system_ranges) == len(widths)
    if max(widths) > BLOCK + 1:  # then a beam spans the columns on both sides of a boundary
        cfg = RenderConfig()
        beams = [
            (float(line.get("x1")), float(line.get("x2")))
            for line in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}line")
            if line.get("stroke-width") == "2.5"
        ]
        boundary = cfg.margin + BLOCK * cfg.column_spacing
        assert any(x1 < boundary < x2 for x1, x2 in beams)


def test_empty_pars_matches_the_reference():
    empty = ParsModel("void", [], "tbl", [])
    assert render_pars(empty) == helpers.reference_render_pars(empty)


def test_a_column_without_a_grip_beyond_the_first_block_is_refused():
    pars = compile_source(helpers.block_source([2 * BLOCK + 1], BLOCK)).partes[0]
    pars.columns[2 * BLOCK].sona.clear()
    message = f"column {2 * BLOCK} holds no grip (every column needs at least one)"
    for render in (render_pars, helpers.reference_render_pars):
        with pytest.raises(EmitError) as exc:
            render(pars)
        assert exc.value.message == message


def test_column_x_is_finite_up_to_the_width_the_header_checks():
    """Each x is formatted unchecked, bounded by the header's width. A width
    above half the largest float renders every x finite; a spacing at which
    the last column's offset overflows is refused by the width."""
    pars = compile_source(helpers.block_source([9], BLOCK)).partes[0]
    n = len(pars.columns)
    near = RenderConfig(column_spacing=sys.float_info.max / (n - 0.5))
    width = 2 * near.margin + (n - 1) * near.column_spacing + near.font_size
    assert sys.float_info.max / 2 < width < math.inf
    svg = render_pars(pars, near)
    assert not helpers.holds_non_finite_number(svg)
    assert svg == helpers.reference_render_pars(pars, near)
    over = RenderConfig(column_spacing=sys.float_info.max / (n - 1.5))
    assert (n - 1) * over.column_spacing == math.inf
    with pytest.raises(EmitError) as exc:
        render_pars(pars, over)
    assert exc.value.message == "render geometry too large: an SVG coordinate would be inf"


def test_column_x_keeps_a_fractional_spacing_far_out():
    """At spacing 1000.5 column 1,001 stands at x = 1,001,520.5, which six
    significant digits would print as 1.00152e+06, half a unit off."""
    cfg = RenderConfig(column_spacing=1000.5)
    n = 1025
    lines = helpers.system_lines(["I"] * n, dict.fromkeys(range(n), "a"))
    source = "tbl = ( (1 a) )\nPARS p\nbünde = tbl\n" + "\n".join(lines) + "\n"
    svg = render_pars(compile_source(source).partes[0], cfg)
    assert "e+" not in svg
    numerus = [t for t in texts(svg) if t.get("fill") == "#555555"]
    assert [int(t.text) for t in numerus] == list(range(n))
    for j, text in enumerate(numerus):
        assert float(text.get("x")) == cfg.margin + j * cfg.column_spacing, j
