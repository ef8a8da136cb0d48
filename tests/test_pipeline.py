"""Whole-pipeline properties: mutated sources compile, emit, render and
validate, or fail to compile with a located ``CompileError`` whose excerpt
is the line it names; the model owns every emitted bound, so
``emit_pars`` never raises on a compiled model; and the writers, which
format each repeated fragment once, write the same bytes as the
per-element reference writers in ``helpers``. An error locates the token
it names on that token's own line."""

import re
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from lutetab import (
    CompileError,
    EmitError,
    RenderConfig,
    compile_source,
    emit_dtd,
    emit_pars,
    format_diagnostic,
    render_pars,
)
from lutetab.model import Columna, ParsModel, Sonum, duration_rows
from lutetab.prelude import MAX_POSITION
from lutetab.tempus import KLASS_CARRY, KLASS_DOTS, STEM_FLAGS, DurationToken
from lutetab.vox import EDIT_TRACK, Annotation

import dtd_validator
import helpers

FIXTURES = Path(__file__).parent / "fixtures"
SOURCES = {
    name: (FIXTURES / f"{name}.tab").read_text(encoding="utf-8")
    for name in ("newsidler", "schlick")
}
DTD = dtd_validator.parse_dtd(emit_dtd())

_EDIT_QUOTE = SOURCES["newsidler"].index('"hardly')


def _line(text: str, number: int) -> str:
    line = text.split("\n")[number - 1]
    return line[:-1] if line.endswith("\r") else line


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(SOURCES)), helpers.mutations())
# an annotation moved one column left of its grip
@example("newsidler", [("delete", _EDIT_QUOTE - 1, " ")])
def test_mutated_sources_validate_or_fail_located(name, mutations):
    partes = _compile_or_locate(helpers.mutate(SOURCES[name], mutations))
    for pars in partes:
        assert dtd_validator.validate(emit_pars(pars), DTD) == []
        render_pars(pars, RenderConfig())


def _compile_or_locate(text: str) -> list:
    """The compiled PARS, or none after checking that the error is located."""
    try:
        return compile_source(text).partes
    except CompileError as err:
        assert err.line is not None, err.message
        excerpt = format_diagnostic(err, "f.tab", text).split("\n")[1]
        assert excerpt == "  " + helpers.visible(_line(text, err.line)), err.message
        return []


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(SOURCES)), helpers.mutations(), st.integers(0, 10_000))
@example("newsidler", [], 0)
@example("schlick", [], 11)
def test_twins_share_one_value_and_a_replaced_twin_changes_its_own_lines(name, mutations, at):
    for pars in _compile_or_locate(helpers.mutate(SOURCES[name], mutations)):
        grips, spellings, carries = {}, {}, {}
        for col in pars.columns:
            duration = col.duration
            if duration.klass != KLASS_CARRY:
                assert spellings.setdefault(duration.source_text, duration) is duration
            else:
                assert carries.setdefault(duration.value, duration) is duration
            for sonum in col.sona:
                if not sonum.annotations:
                    assert grips.setdefault(sonum, sonum) is sonum

        k = at % len(pars.columns)
        col, (band_start, _) = pars.columns[k], next(r for r in pars.system_ranges if k < r[1])
        old = col.sona[0]
        xml, svg = emit_pars(pars).split("\n"), render_pars(pars).split("\n")
        col.sona[0] = new = old._replace(prolongate=not old.prolongate)
        new_xml, new_svg = emit_pars(pars).split("\n"), render_pars(pars).split("\n")

        first_sonum = 2 + sum(3 + len(c.sona) for c in pars.columns[:k]) + 2
        assert len(new_xml) == len(xml)
        assert [i for i, line in enumerate(xml) if new_xml[i] != line] == [first_sonum]
        assert ("prolongate='yes'" in new_xml[first_sonum]) == new.prolongate
        changed = [i for i, line in enumerate(svg) if new_svg[i] != line]
        assert len(new_svg) == len(svg) and len(changed) == 1
        label = [helpers._ref_escape_text(s.source + "+" * s.prolongate) for s in (old, new)]
        cfg = RenderConfig()
        x = f"{cfg.margin + (k - band_start) * cfg.column_spacing:.12g}"
        assert new_svg[changed[0]].startswith(f"<text x='{x}' ")
        assert new_svg[changed[0]] == svg[changed[0]].replace(
            f">{label[0]}</text>", f">{label[1]}</text>"
        )
        assert emit_pars(pars) == helpers.reference_emit_pars(pars)
        assert render_pars(pars) == helpers.reference_render_pars(pars)


@st.composite
def _edge_sources(draw) -> str:
    """Sources at the position bounds: up to 14x14 tables and 13 voices."""
    rows, width = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    symbols = [[f"{chr(ord('a') + r)}{c}" for c in range(width)] for r in range(rows)]
    table = " ".join(f"({' '.join(row)})" for row in symbols)
    n_columns = draw(st.integers(1, 3))
    cell = st.one_of(st.none(), st.sampled_from([s for row in symbols for s in row]))
    voices = []
    for _ in range(draw(st.integers(1, MAX_POSITION + 1))):
        grips = draw(st.lists(cell, min_size=n_columns, max_size=n_columns))
        voices.append({j: symbol for j, symbol in enumerate(grips) if symbol})
    cadens = draw(st.sampled_from(["est", "nonEst"]))
    lines = helpers.system_lines(["I"] * n_columns, *voices, names="abcdefghijklm")
    head = f"tbl = ( {table} )\nduratioCadens = {cadens}\nPARS p\nbünde = tbl\n"
    return head + "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.tuples(st.sampled_from(sorted(SOURCES)), helpers.mutations()).map(
        lambda case: helpers.mutate(SOURCES[case[0]], case[1])
    ),
    _edge_sources(),
))
def test_compiled_models_hold_every_emit_bound(text):
    for pars in _compile_or_locate(text):
        for col, row in zip(pars.columns, duration_rows(pars), strict=True):
            positions = [row]
            for sonum in col.sona:
                positions += [sonum.string, sonum.fret, sonum.ypos]
            assert all(0 <= p <= MAX_POSITION for p in positions)
        emit_pars(pars)


# Finite, strictly positive lengths: tiny (down to subnormal), non-integral and huge.
_LENGTHS = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.01, max_value=100.0),
    st.sampled_from([0.1, 1 / 3, 7.25, 13.5, 1e-7, 3.3e5, 1e12, 5e-324, 1.7e308]),
)
_GEOMETRY = st.builds(
    RenderConfig, column_spacing=_LENGTHS, row_spacing=_LENGTHS, stem_height=_LENGTHS,
    font_size=_LENGTHS, margin=_LENGTHS,
)


def _assert_render_matches_reference(pars, config=None):
    """Same bytes as the reference renderer, or an ``EmitError`` exactly when
    the reference output holds a number that is not finite."""
    expected = helpers.reference_render_pars(pars, config)
    if helpers.holds_non_finite_number(expected):
        with pytest.raises(EmitError) as exc:
            render_pars(pars, config)
        assert exc.value.line is None and exc.value.column is None
    else:
        assert render_pars(pars, config) == expected


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(SOURCES)), helpers.mutations(), _GEOMETRY)
@example("newsidler", [("insert", 0, "\n")], RenderConfig(13.5, 7.25, 30.0, 9.5, 0.5))
@example("newsidler", [], RenderConfig(column_spacing=1e308))
def test_writers_match_the_reference_writers(name, mutations, config):
    for pars in _compile_or_locate(helpers.mutate(SOURCES[name], mutations)):
        assert emit_pars(pars) == helpers.reference_emit_pars(pars)
        _assert_render_matches_reference(pars, config)
        _assert_render_matches_reference(pars)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(sorted(SOURCES)),
    st.lists(st.tuples(st.integers(0, 200), st.integers(-3, 20)), min_size=1, max_size=6),
    _GEOMETRY,
)
def test_renderer_matches_the_reference_on_hand_built_rows(name, moves, config):
    # rows a compiled model never holds: under duratioCadens a duration sits one
    # row above its first grip, so moving that grip puts it below the column's
    # other grips, or puts its duration row outside 0..MAX_POSITION, or the
    # grip's own row, which both writers refuse, naming the first such column:
    # a duration row before a grip row
    pars = compile_source(SOURCES[name]).partes[0]._replace(duratio_cadens=True)
    for at, row in moves:
        col = pars.columns[at % len(pars.columns)]
        col.sona[0] = col.sona[0]._replace(ypos=row)
    rows = [col.sona[0].ypos - 1 for col in pars.columns]
    grip_rows = [[sonum.ypos for sonum in col.sona] for col in pars.columns]
    outside = [(j, "duration", row) for j, row in enumerate(rows)
               if not 0 <= row <= MAX_POSITION]
    outside += [(j, "grip", row) for j, col_rows in enumerate(grip_rows) for row in col_rows
                if not 0 <= row <= MAX_POSITION]
    if not outside:
        _assert_render_matches_reference(pars, config)
        return
    j, what, row = outside[0]
    for write in (emit_pars, lambda pars: render_pars(pars, config)):
        with pytest.raises(EmitError) as exc:
            write(pars)
        assert exc.value.message == f"{what} ypos {row} of column {j} is outside 0..{MAX_POSITION}"


def _grip_row_source(n: int, cadens: str = "nonEst") -> str:
    lines = helpers.system_lines(["I"] * n, dict.fromkeys(range(n), "a"))
    return f"tbl = ( (1 a) )\nduratioCadens = {cadens}\nPARS p\nbünde = tbl\n" + "\n".join(lines)


def _assert_both_writers_refuse(pars, message):
    for write in (emit_pars, render_pars):
        with pytest.raises(EmitError) as exc:
            write(pars)
        assert (exc.value.message, exc.value.line, exc.value.column) == (message, None, None)


@pytest.mark.parametrize("ranges, system, span", [
    ([(0, -1)], 0, "[0, -1)"),
    ([(0, 2), (1, 3)], 1, "[1, 3)"),
    ([(0, 6)], 0, "[0, 6)"),
    ([(-2, 4)], 0, "[-2, 4)"),
    ([(0, 1), (1, 1), (1, 3)], 1, "[1, 1)"),
    ([(1, 3)], 0, "[1, 3)"),
    ([(0, 2)], 0, "[0, 2)"),
    ([(0, 1), (2, 3)], 1, "[2, 3)"),
    ([(0, 3.0)], 0, "[0, 3.0)"),
    ([], None, None),
], ids=str)
def test_system_ranges_that_do_not_tile_the_columns_are_refused(ranges, system, span):
    """A hand-built ``system_ranges`` must cover ``[0, len(columns))`` in
    order, each system at least one column: the XML writer, which does not
    read them, refuses them as the renderer does, with or without
    ``duratio_cadens``, on plain columns and on a hand-built beam group."""
    plain = compile_source(_grip_row_source(3)).partes[0]
    lines = helpers.system_lines(["T_", "I", "_T"], dict.fromkeys(range(3), "a"))
    beamed = compile_source("tbl = ( (1 a) )\nPARS p\nbünde = tbl\n" + "\n".join(lines)).partes[0]
    beamed.columns[1].duration = beamed.columns[2].duration  # T_ _T _T, as built by hand
    assert plain.system_ranges == beamed.system_ranges == [(0, 3)]
    message = (f"system {system} spans columns {span}, but the systems must tile [0, 3) "
               "in order, each holding a column" if ranges else "no system holds the 3 columns")
    for pars in (plain, beamed):
        for cadens in (False, True):
            _assert_both_writers_refuse(
                pars._replace(system_ranges=ranges, duratio_cadens=cadens), message
            )


@pytest.mark.parametrize("ypos, row", [(0, -1), (MAX_POSITION + 2, MAX_POSITION + 1)])
def test_a_duration_row_outside_the_positions_is_refused_by_both_writers(ypos, row):
    """Under ``duratioCadens`` a column's duration stands one row above its
    first grip: a grip moved by hand to row 0 or 14 puts it at -1 or 13,
    which both writers refuse."""
    pars = compile_source(_grip_row_source(3, "est")).partes[0]
    assert duration_rows(pars) == [0, 0, 0]
    pars.columns[1].sona[0] = pars.columns[1].sona[0]._replace(ypos=ypos)
    _assert_both_writers_refuse(
        pars, f"duration ypos {row} of column 1 is outside 0..{MAX_POSITION}"
    )
    if ypos == 0:  # a grip at row 0 is writable where its duration stays at row 0
        flat = pars._replace(duratio_cadens=False)
        assert emit_pars(flat) and render_pars(flat)


@pytest.mark.parametrize("ypos", [-1, MAX_POSITION + 1])
@pytest.mark.parametrize("column, grip", [(0, 0), (7, 1)])
def test_a_grip_row_outside_the_positions_is_refused_by_both_writers(ypos, column, grip):
    """A grip moved by hand to row -1 or 13, with its duration left at row
    0: the renderer refuses it as the XML writer does, naming its column,
    whichever of the column's grips it is."""
    pars = compile_source(SOURCES["newsidler"]).partes[0]
    assert not pars.duratio_cadens and len(pars.columns[column].sona) == grip + 1
    sona = pars.columns[column].sona
    sona[grip] = sona[grip]._replace(ypos=ypos)
    _assert_both_writers_refuse(
        pars, f"grip ypos {ypos} of column {column} is outside 0..{MAX_POSITION}"
    )


_POSITION = st.integers(0, MAX_POSITION)
_SONUM = st.builds(
    Sonum, st.sampled_from(["a", "1", "<&'\""]), _POSITION, _POSITION, st.booleans(), _POSITION,
    st.lists(st.builds(Annotation, st.sampled_from([EDIT_TRACK, "fg"]),
                       st.sampled_from(["x", "a<b & 'c'"]), st.integers(0, 40)),
             max_size=2).map(tuple),
)
_DURATION = st.builds(
    DurationToken, st.sampled_from(["I", "T_", "_F.", ".", "-"]),
    st.sampled_from([*STEM_FLAGS, KLASS_DOTS, KLASS_CARRY]), st.integers(0, 3), st.booleans(),
    st.booleans(), st.integers(0, 100),
)


@st.composite
def _hand_built_pars(draw) -> ParsModel:
    """A model a caller could build by hand from the records: up to three
    grips, any of any column, at or past a position bound, or columns with
    no grip; any duration and sum; and system ranges that tile the columns
    or do not."""
    n = draw(st.integers(0, 6))
    columns = [
        Columna(draw(_DURATION), draw(st.integers(0, 200)),
                draw(st.lists(_SONUM, min_size=1, max_size=3)))
        for _ in range(n)
    ]
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        col = columns[draw(st.integers(0, n - 1))]
        field = draw(st.sampled_from(["string", "fret", "ypos", None]))
        if field is None:
            col.sona.clear()
        elif col.sona:  # an earlier draw may have emptied it
            edge = draw(st.sampled_from([-1, 0, MAX_POSITION, MAX_POSITION + 1]))
            at = draw(st.integers(0, len(col.sona) - 1))
            col.sona[at] = col.sona[at]._replace(**{field: edge})
    cuts = sorted(draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=3)) if n > 1 else [])
    tiling = list(zip([0, *cuts], [*cuts, n])) if n else []
    ranges = draw(st.one_of(
        st.just(tiling),
        st.lists(st.tuples(st.integers(-2, n + 2), st.integers(-2, n + 2)), max_size=3),
    ))
    return ParsModel("p", columns, "tbl", ranges, draw(st.booleans()))


def _writable(pars, positions: tuple[str, ...]) -> bool:
    """The writers' contract, stated independently of ``duration_rows``:
    ``positions`` names the grip fields that the writer bounds."""
    n, end = len(pars.columns), 0
    for start, stop in pars.system_ranges:
        if not start == end < stop:
            return False
        end = stop
    if end != n or not all(col.sona for col in pars.columns):
        return False
    in_range = range(MAX_POSITION + 1)
    if pars.duratio_cadens and any(col.sona[0].ypos - 1 not in in_range for col in pars.columns):
        return False
    return all(
        getattr(sonum, field) in in_range
        for col in pars.columns for sonum in col.sona for field in positions
    )


@settings(max_examples=150, deadline=None)
@given(_hand_built_pars())
def test_a_hand_built_model_is_written_exactly_when_it_keeps_the_contract(pars):
    """Each writer returns a document, valid against the DTD (XML) or well
    formed (SVG), exactly when the model keeps the writers' contract, and
    raises ``EmitError`` with no location otherwise."""
    for write, positions in ((emit_pars, ("string", "fret", "ypos")), (render_pars, ("ypos",))):
        if _writable(pars, positions):
            doc = write(pars)
            if write is emit_pars:
                assert dtd_validator.validate(doc, DTD) == []
            else:
                ET.fromstring(doc)
        else:
            with pytest.raises(EmitError) as exc:
                write(pars)
            assert (exc.value.line, exc.value.column) == (None, None)


_HEAD = "tbl = ( (1 a) )\nPARS p\nbünde = tbl\n"


@pytest.mark.parametrize(
    "source,message,line,column",
    [
        ("tbl = (\n  (1 a b)\n  (2 c a)\n)\n",
         "grip symbol 'a' appears twice in table 'tbl' (first at line 2, column 6)", 3, 7),
        ("tbl = (\n  x (1 a)\n)\n", "symbol 'x' outside a table row", 2, 2),
        ("tbl = ( (1 a)\n  ((2 b))\n)\n", "table 'tbl' nests deeper than rows of symbols", 2, 3),
        ("tonus\n\n= a b\n", "expected a single value for 'tonus'", 3, 4),
        ("duratioManet\n\n  = yes\n",
         "parameter 'duratioManet' expects 'est' or 'nonEst', got 'yes'", 3, 4),
        ("PARS p\nbünde = nope\nT I\n", "PARS 'p' selects undefined grip table 'nope'", 2, 8),
        (_HEAD + "T      I  I\nVOX v  a  a+b\n",
         "misplaced '+' in grip token 'a+b' (only one, at the end)", 5, 10),
        (_HEAD + "T      I  I\nVOX v  a  z\n",
         "unknown grip symbol 'z' (not in table 'tbl')", 5, 10),
        (_HEAD + 'T           I  I\nVOX v       a  a\n    edit    "x"\n    edit        "y"\n',
         "annotation in track 'edit' does not start under any event of voice 'v'", 7, 16),
        ('PARS a\nT  I\nfoo "bar\n', "unterminated quote", 3, 4),
        ("PARS a\nT  I\n  what is this\n", "cannot classify line starting with 'what'", 3, 2),
        # the quote hides the "(" as in 'bünde = "(x"': no line below is a table's
        ('PARS p\nbünde="(x"\nT I\n', "PARS 'p' selects undefined grip table '\"(x\"'", 2, 6),
        ('PARS p\nT I\nVOX v a\nbünde="(x"\n  edit "q"\n',
         "cannot classify line starting with 'edit'", 5, 2),
        # an '=' past the track name is the track's payload, not an assignment
        (_HEAD + "T      I\nVOX v  a\n    edit  x=y\n",
         "parameter track 'edit' payload must be quoted, got 'x=y'", 6, 10),
        # a blank or comment-only line ends the run of voice and track lines
        (_HEAD + 'T      I\nVOX v  a\n\n    edit  "x"\n',
         "cannot classify line starting with 'edit'", 7, 4),
        (_HEAD + 'T      I\nVOX v  a\n  // lectio dubia\n    edit  "x"\n',
         "cannot classify line starting with 'edit'", 7, 4),
    ],
    ids=["duplicate-symbol", "symbol-outside-row", "third-level", "single-value",
         "bare-name-flag-value", "undefined-table",
         "misplaced-plus", "unknown-grip", "stray-annotation", "unterminated-quote",
         "unclassifiable", "compact-quoted-value", "compact-quoted-value-after-vox",
         "track-payload-with-equals", "blank-line-ends-tracks", "comment-line-ends-tracks"],
)
def test_errors_name_the_line_of_their_token(source, message, line, column):
    """An error stands on the line of the token it names, which may lie
    below the line that began its table, assignment or voice."""
    with pytest.raises(CompileError) as exc:
        compile_source(source)
    assert (exc.value.message, exc.value.line, exc.value.column) == (message, line, column)


@pytest.mark.parametrize(
    "source,name,line,column",
    [("tonus = a(\n", "tonus", 1, 8), ("x = a(\nfoo\n", "x", 1, 4),
     ("PARS p\nbünde = t(\nT I\n", "bünde", 2, 8)],
    ids=["end-of-file", "continued", "in-pars"],
)
def test_unquoted_paren_anywhere_in_a_value_makes_a_table(source, name, line, column):
    """The prelude reads a parenthesis as the scanner does, so the scanner's
    continuation lines are the table's, and the error is at the value."""
    with pytest.raises(CompileError) as exc:
        compile_source(source)
    assert (exc.value.message, exc.value.line, exc.value.column) == (
        f"unbalanced parentheses in table '{name}'", line, column
    )


@pytest.mark.parametrize(
    "source,message,column",
    [("t = ( (1 a) ) ( (2 b) )\n", "table 't' goes on after its closing ')'", 14),
     ("t = ( (1 a) ) ) (\n", "unmatched ')'", 14),
     ("t = ( (1 a) ) b\n", "symbol 'b' outside a table row", 14)],
    ids=["open", "close", "symbol"],
)
def test_nothing_follows_a_tables_closing_paren(source, message, column):
    with pytest.raises(CompileError) as exc:
        compile_source(source)
    assert (exc.value.message, exc.value.line, exc.value.column) == (message, 1, column)


@pytest.mark.parametrize(
    "source,message,column",
    [("t = ( )\n", "table 't' has no rows", 4),
     ("PARS a b\n", "unexpected tokens after PARS name 'a'", 7)],
    ids=["empty-table", "pars-extra-token"],
)
def test_rarely_reached_errors_are_located(source, message, column):
    with pytest.raises(CompileError) as exc:
        compile_source(source)
    assert (exc.value.message, exc.value.line, exc.value.column) == (message, 1, column)


def test_readme_python_blocks_run_on_their_own(capsys):
    """Each Python block of README runs in a fresh namespace that holds only
    its inputs; the second prints the pinned diagnostic of ``broken.tab``."""
    readme = (FIXTURES.parents[1] / "README.md").read_text(encoding="utf-8")
    library, diagnostic = re.findall(r"```python\n(.*?)```", readme, re.S)
    namespace = {"text": SOURCES["newsidler"]}
    exec(library, namespace)
    assert namespace["xml"].startswith("<?xml") and namespace["svg"].startswith("<svg")
    broken = FIXTURES / "broken.tab"
    text = broken.read_text(encoding="utf-8")
    exec(diagnostic, {"text": text, "path": "tests/fixtures/broken.tab"})
    assert capsys.readouterr().out == (FIXTURES / "broken.err").read_text(encoding="utf-8")


def test_readme_minimal_example_compiles():
    """README's first fenced block is the minimal file it describes, and it compiles."""
    readme = (FIXTURES.parents[1] / "README.md").read_text(encoding="utf-8")
    source = readme.split("```\n", 2)[1]
    (pars,) = compile_source(source).partes
    assert pars.name == "prima"
