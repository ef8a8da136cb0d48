import pytest
from hypothesis import example, given, settings, strategies as st

from lutetab import compile_source, emit_pars
from lutetab.errors import CompileError, ModelError, ParseError
from lutetab.prelude import (
    GripTable,
    Parameters,
    apply_assignment,
    build_symbol_map,
    parse_assignment,
)
from lutetab.scanner import LineKind, scan_text

import helpers

STANDARD_TABLE = """\
  Standard_1531_Newsidler_etAlii
   = ( (1 a  f  l  q  x  aa)
       (2 b  g  m  r  y  bb)
       (3 c  h  n  s  z  cc)
       (4 d  i  o  t  &  dd)
       (5 e  k  p  v  C  ee) )
"""


def parse_first(source: str):
    return parse_assignment(scan_text(source), 0)


def apply_source(source: str):
    """Fold a source of scalar assignments; return the scope and the warnings."""
    params, warnings = Parameters(), []
    lines = scan_text(source)
    i = 0
    while i < len(lines):
        if lines[i].kind.value == "blank":
            i += 1
            continue
        item, i = parse_assignment(lines, i)
        params = apply_assignment(item, params, warnings)
    return params, warnings


def test_scalar_assignment_nonest():
    params, _ = apply_source("duratioManet = nonEst\n")
    assert params.duratio_manet is False


def test_scalar_assignment_est():
    params, _ = apply_source("duratioCadens = est\n")
    assert params.duratio_cadens is True


def test_defaults_are_off():
    params = Parameters()
    assert params.duratio_manet is False and params.duratio_cadens is False


def test_bool_param_rejects_other_values():
    with pytest.raises(ParseError, match="est"):
        apply_source("duratioManet = yes\n")


def test_unrecognized_parameter_warns_and_keeps():
    params, warnings = apply_source("tonus = d\n")
    assert params == Parameters()
    assert warnings == ["unrecognized parameter 'tonus' at line 1 (ignored)"]


def test_table_selection():
    params, _ = apply_source("bünde = Standard_1531_Newsidler_etAlii\n")
    assert params.table_name == "Standard_1531_Newsidler_etAlii"


def test_every_spelling_of_an_assignment_is_one_assignment():
    """Whitespace around ``=`` is optional, and a bare name may take its ``=`` on a later line."""
    spellings = [
        "duratioManet = est", "duratioManet=est", "duratioManet= est", "duratioManet =est",
        "duratioManet\n= est", "duratioManet\n=est",
    ]
    body = "\ntbl = ( (1 a) )\nPARS p\nbünde = tbl\nT      I  -\nVOX v  a  a\n"
    xml = []
    for spelling in spellings:
        params, _ = apply_source(spelling + "\n")
        assert params == Parameters(duratio_manet=True), spelling
        (pars,) = compile_source(spelling + body).partes
        xml.append(emit_pars(pars))
    assert xml == xml[:1] * len(spellings)


def test_standard_table_shape():
    table, _ = parse_first(STANDARD_TABLE)
    assert isinstance(table, GripTable)
    assert table.name == "Standard_1531_Newsidler_etAlii"
    assert len(table.rows) == 5
    assert all(len(row) == 7 for row in table.rows)
    assert table.rows[0] == ["1", "a", "f", "l", "q", "x", "aa"]
    assert table.rows[4] == ["5", "e", "k", "p", "v", "C", "ee"]


def test_single_line_table():
    table, nxt = parse_first("tbl = ( (a b) (c) )\n")
    assert table.rows == [["a", "b"], ["c"]]
    assert nxt == 1


def test_unbalanced_table():
    with pytest.raises(ParseError, match="unbalanced"):
        parse_first("tbl = ( (a b)\n")


@pytest.mark.parametrize(
    "source",
    ["tbl = ( (a b) (b\n", "tbl = ( ((a)\n", "tbl = ( (a b)\n\n   (b\nPARS p\nT  I\n"],
)
def test_unbalanced_reported_before_row_errors(source):
    """The balance check runs ahead of the row walk, whose duplicate and nesting errors wait."""
    with pytest.raises(ParseError) as exc:
        parse_first(source)
    assert exc.value.message == "unbalanced parentheses in table 'tbl'"
    assert (exc.value.line, exc.value.column) == (1, 6)


def test_quoted_table_cell_is_one_symbol():
    """A token opening with a quote is text, parentheses and attached suffix included."""
    table, nxt = parse_first('tbl = ( (a "b)" ) ( "(" c) ( "d"!) ) )\n')
    assert table.rows == [["a", '"b)"'], ['"("', "c"], ['"d"!)']]
    assert nxt == 1


def test_duplicate_symbol_names_both_positions():
    with pytest.raises(ParseError) as exc:
        parse_first("tbl = ( (a b) (b c) )\n")
    assert "'b'" in exc.value.message
    assert "first at line 1" in exc.value.message
    assert exc.value.column is not None


def test_name_without_value():
    with pytest.raises(ParseError, match="expected '= value'"):
        apply_source("loneName\n")


@pytest.mark.parametrize(
    "source,location",
    [("x =  // note\n", (1, 3)), ("x=\n", (1, 2)), ("x\n  =   \n", (2, 3))],
    ids=["spaced", "compact", "bare-name"],
)
def test_missing_value_caret_after_last_token(source, location):
    with pytest.raises(ParseError) as exc:
        parse_first(source)
    assert exc.value.message == "missing value in assignment of 'x'"
    assert (exc.value.line, exc.value.column) == location


def test_value_without_name():
    with pytest.raises(ParseError, match="without a preceding name"):
        parse_first("= ( (a) )\n")


def test_multi_token_scalar_rejected():
    with pytest.raises(ParseError, match="single value"):
        parse_first("a = b c\n")


def test_last_assignment_wins():
    params, _ = apply_source("duratioManet = est\nduratioManet = nonEst\n")
    assert params.duratio_manet is False


def test_symbol_map_coordinates():
    table, _ = parse_first(STANDARD_TABLE)
    symbol_map = build_symbol_map(table)
    assert len(symbol_map) == 35
    assert symbol_map["f"] == (0, 2)
    assert symbol_map["e"] == (4, 1)
    assert symbol_map["3"] == (2, 0)
    assert symbol_map["aa"] == (0, 6)
    assert symbol_map["&"] == (3, 5)
    assert symbol_map["t"] == (3, 4)


def test_symbol_map_matches_every_cell():
    """Each cell of the table, written as a grip, compiles to its (string, fret)."""
    table, _ = parse_first(STANDARD_TABLE)
    assert len(build_symbol_map(table)) == sum(len(row) for row in table.rows)
    cells = [(symbol, (i, j)) for i, row in enumerate(table.rows) for j, symbol in enumerate(row)]
    columns = helpers.grid_cols(len(cells))
    source = STANDARD_TABLE + f"PARS p\nbünde = {table.name}\n" + "\n".join([
        helpers.lay("T", [(c, "I") for c in columns]),
        helpers.lay("VOX v", zip(columns, [symbol for symbol, _ in cells])),
    ]) + "\n"
    (pars,) = compile_source(source).partes
    assert [[(s.source, (s.string, s.fret)) for s in col.sona] for col in pars.columns] == [
        [cell] for cell in cells
    ]


def test_lookup_unknown_symbol():
    source = STANDARD_TABLE + (
        "PARS p\nbünde = Standard_1531_Newsidler_etAlii\nT      I  I\nVOX v  a  zz\n"
    )
    with pytest.raises(ModelError) as exc:
        compile_source(source)
    assert (exc.value.message, exc.value.line, exc.value.column) == (
        "unknown grip symbol 'zz' (not in table 'Standard_1531_Newsidler_etAlii')", 10, 10
    )


def test_table_too_many_rows():
    rows = " ".join(f"(r{i})" for i in range(13))
    with pytest.raises(ModelError) as exc:
        parse_first(f"big\n = ( {rows}\n     (r13) )\n")
    assert (exc.value.message, exc.value.line, exc.value.column) == (
        "table 'big' has more than 13 rows; string indexes beyond 12 are not encodable", 1, None
    )


def test_table_row_too_long():
    cells = " ".join(f"c{i}" for i in range(14))
    with pytest.raises(ModelError) as exc:
        parse_first(f"wide = ( (a)\n  ({cells} c0) )\n")
    assert (exc.value.message, exc.value.line, exc.value.column) == (
        "table 'wide' row 2 is longer than 13 symbols; fret indexes beyond 12 are not encodable",
        1,
        None,
    )


_OVERSIZED = "big = ( " + " ".join(f"(r{i})" for i in range(14)) + " )\n"
_SYSTEM = "T     I\nVOX v 1\n"


def test_oversized_table_comes_before_a_bad_flag_value_below_it():
    source = _OVERSIZED + "PARS p\nbünde = big\nduratioManet = x\n" + _SYSTEM
    with pytest.raises(ModelError, match="more than 13 rows") as exc:
        compile_source(source)
    assert (exc.value.line, exc.value.column) == (1, None)


def test_oversized_table_that_no_pars_selects_is_an_error():
    source = _OVERSIZED + "tbl = ( (1) )\nPARS p\nbünde = tbl\n" + _SYSTEM
    with pytest.raises(ModelError, match="more than 13 rows") as exc:
        compile_source(source)
    assert (exc.value.line, exc.value.column) == (1, None)


_PIECES = ["t", "=", "t=", " ", "(", ")", "a", '"a"', '"(a"', '")"', '"a"(']


@settings(max_examples=500, deadline=None)
@given(st.lists(st.lists(st.sampled_from(_PIECES), max_size=6).map("".join), max_size=4))
@example(["bünde=\"(x\"", "T I"])
def test_every_continuation_line_belongs_to_the_assignment_above_it(rows):
    """Where the scanner marks continuation lines, the prelude reads a table
    that takes them all, or refuses the assignment."""
    try:
        lines = scan_text("\n".join(rows) + "\n")
    except CompileError:
        return
    i = 0
    while i < len(lines):
        assert lines[i].kind is not LineKind.TABLE_CONTINUATION, i
        if lines[i].kind is not LineKind.ASSIGNMENT:
            i += 1
            continue
        try:
            _, i = parse_assignment(lines, i)
        except CompileError:
            return
