import re
import sys
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, strategies as st

from lutetab import compile_source, emit_pars
from lutetab.errors import ScanError
from lutetab.scanner import (
    LineKind,
    classify_line,
    scan_text,
    strip_comments,
    tokenize_columns,
)

import helpers


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("//eof", ""),
        ("T  I I // rest", "T  I I "),
        ("abc", "abc"),
    ],
)
def test_strip_comments(raw, expected):
    assert strip_comments(raw) == expected


def test_strip_comments_preserves_columns():
    before = tokenize_columns("T  I I")
    after = tokenize_columns(strip_comments("T  I I // rest"))
    assert after == before


def test_tokenize_columns_basic():
    assert tokenize_columns("        I I T") == (["I", "I", "T"], [8, 10, 12])


def test_tokenize_columns_empty():
    assert tokenize_columns("") == ([], [])
    assert tokenize_columns("   ") == ([], [])


def test_tokenize_columns_suffix():
    assert tokenize_columns("4+ 5") == (["4+", "5"], [0, 3])


def test_tokenize_quoted_region_is_one_token():
    assert tokenize_columns('    edit  "hardly readable"! x') == (
        ["edit", '"hardly readable"!', "x"],
        [4, 10, 29],
    )


def test_equal_token_texts_of_one_scan_are_one_string():
    """Across the lines of one scan, and within a line, equal token texts
    are one string, whatever their columns; two scans share none (but the
    one-character strings that CPython keeps one of anyway)."""
    text = "PARS p\nT  I.  E  E\nVOX v  4+  ab  ab\nT  I.  E\nVOX w  ab  4+\n"
    lines = scan_text(text)
    assert lines[1].tokens[:3] == lines[3].tokens
    assert all(a is b for a, b in zip(lines[1].tokens, lines[3].tokens))
    assert lines[1].tokens[2] is lines[1].tokens[3] == "E"
    (*_, grip, other, other_1), (*_, other_2, grip_2) = lines[2].tokens, lines[4].tokens
    assert grip is grip_2 == "4+" and other is other_1 is other_2 == "ab"
    assert lines[2].columns[2:] == [7, 11, 15] and lines[4].columns[2:] == [7, 11]
    again = scan_text(text)
    assert again == lines
    held = {id(token) for line in lines for token in line.tokens if len(token) > 1}
    assert len(held) == 5  # PARS, I., VOX, 4+, ab
    assert not held & {id(token) for line in again for token in line.tokens}


def test_tokenize_unterminated_quote():
    with pytest.raises(ScanError) as exc:
        tokenize_columns('edit "oops', line_number=3)
    assert exc.value.line == 3
    assert exc.value.column == 5


@pytest.mark.parametrize(
    "text,kind",
    [
        ("T  I I T E_", LineKind.TEMPUS),
        ("VOX v2  f f f e", LineKind.VOX),
        ("PARS sola", LineKind.PARS_HEADER),
        ("duratioManet = nonEst", LineKind.ASSIGNMENT),
        ("   = ( (1 a f) )", LineKind.ASSIGNMENT),
        ("name=value", LineKind.ASSIGNMENT),
        ("  Standard_1531_Newsidler_etAlii", LineKind.ASSIGNMENT),
        ("", LineKind.BLANK),
        ("      ", LineKind.BLANK),
    ],
)
def test_classify_stateless_cases(text, kind):
    assert classify_line(*tokenize_columns(text, 1), 0, LineKind.BLANK, 1)[0] is kind


def classify(line: str, paren_depth: int = 0, prev_kind: LineKind = LineKind.BLANK):
    return classify_line(*tokenize_columns(line, 2), paren_depth, prev_kind, 2)[0]


def test_classify_param_track_needs_preceding_vox():
    line = '    edit  "x"! \\\\'
    assert classify(line, prev_kind=LineKind.VOX) is LineKind.PARAM_TRACK
    # a second track line may follow the first
    assert classify('    fing  "y"', prev_kind=LineKind.PARAM_TRACK) is LineKind.PARAM_TRACK
    with pytest.raises(ScanError, match="cannot classify"):
        classify(line)


def test_classify_table_continuation():
    line = "       (2 b  g  m  r  y  bb)"
    assert classify(line, paren_depth=1) is LineKind.TABLE_CONTINUATION


def test_classify_rejects_unknown_shape():
    raw = "  what is this // a comment"
    with pytest.raises(ScanError) as exc:
        classify_line(*tokenize_columns(strip_comments(raw), 7), 0, LineKind.BLANK, 7)
    assert (exc.value.line, exc.value.column) == (7, 2)


@pytest.mark.parametrize("payload", ['"a = f?"', '"="', '"x=y"!', '"a" "b = c"'])
def test_classify_quoted_equals_is_no_assignment(payload):
    line = f"    edit  {payload}"
    assert classify(line, prev_kind=LineKind.VOX) is LineKind.PARAM_TRACK


def test_classify_names_whole_quoted_first_token():
    raw = '  "a = b" c'
    with pytest.raises(ScanError) as exc:
        classify(raw)
    assert exc.value.message == "cannot classify line starting with '\"a = b\"'"
    assert (exc.value.line, exc.value.column) == (2, 2)


def test_scan_reports_unterminated_quote_at_its_column():
    # lexed before it is classified: the quote, not the line, is the error
    with pytest.raises(ScanError) as exc:
        scan_text('PARS a\nfoo "bar\n')
    assert exc.value.message == "unterminated quote"
    assert (exc.value.line, exc.value.column) == (2, 4)


def test_scan_rejects_tabs():
    with pytest.raises(ScanError) as exc:
        scan_text("PARS a\nT \tI\n")
    assert exc.value.line == 2
    assert exc.value.column == 2


@pytest.mark.parametrize(
    "char", ["\x00", "\x08", "\x0b", "\x0c", "\x1f", "\ud800", "\udfff", "\ufffe", "\uffff"],
    ids=ascii,
)
def test_scan_rejects_characters_xml_cannot_hold(char):
    with pytest.raises(ScanError) as exc:
        scan_text(f"PARS a\r\nT  I // x{char}\nT  I{char}\n")
    assert exc.value.message == f"character U+{ord(char):04X} cannot appear in an XML document"
    assert (exc.value.line, exc.value.column) == (2, 9)


def test_scan_keeps_characters_xml_can_hold():
    text = "PARS a\r\nT  I // \x7f\x85\ud7ff\ue000\ufffd\U00010000\U0010ffff x\r\n"
    assert [line.kind for line in scan_text(text)] == [LineKind.PARS_HEADER, LineKind.TEMPUS]


def test_scan_reports_an_earlier_line_first():
    # the search covers the whole text, but errors still come in line order
    with pytest.raises(ScanError) as exc:
        scan_text("PARS a\nT \tI\nT  I\x01\n")
    assert exc.value.line == 2 and exc.value.message.startswith("TAB character")


def test_scan_strips_crlf():
    lines = scan_text("PARS a\r\nT  I\r\n")
    assert lines[0][2:] == (["PARS", "a"], [0, 5])
    assert lines[1].columns == [0, 3]


_LONE_CR = "CR character not at the end of a line (editors may show a line break)"


@pytest.mark.parametrize(
    "source,line,column",
    [
        ("PARS a\rT  I\n", 1, 6),  # an old Mac line break
        ('VOX v  a\n    edit "a\rb"\n', 2, 11),  # XML would read it back as a space
        ("PARS a // x\ry\n", 1, 11),  # comments included, as for TAB
        ("PARS a\r\r\n", 1, 6),  # only the last CR before the LF ends the line
    ],
    ids=["line-break", "quoted-payload", "comment", "cr-cr-lf"],
)
def test_scan_rejects_a_lone_cr(source, line, column):
    with pytest.raises(ScanError) as exc:
        scan_text(source)
    assert (exc.value.message, exc.value.line, exc.value.column) == (_LONE_CR, line, column)


def test_scan_strips_a_cr_that_ends_the_text():
    assert scan_text("PARS a\r")[0][2:] == (["PARS", "a"], [0, 5])


_COMMENT_PIECES = st.sampled_from(["\r", "\t", "\x01", "a", " "])


@given(st.lists(st.lists(_COMMENT_PIECES, max_size=8).map("".join), max_size=6))
def test_scan_refuses_in_line_order_then_leftmost(comments):
    """Comment lines scan to no line unless one holds a refused character. The first
    such line is reported, and on it the leftmost of a code point XML cannot
    hold, a TAB and a CR that does not end the line."""
    text = "".join(f"//{comment}\n" for comment in comments)
    for number, line in enumerate(text.split("\n")[:-1], start=1):
        line = line[:-1] if line.endswith("\r") else line
        refused = [column for column, char in enumerate(line) if char in "\x01\t\r"]
        if refused:
            break
    else:
        assert scan_text(text) == []
        return
    with pytest.raises(ScanError) as exc:
        scan_text(text)
    column = refused[0]
    message = {
        "\x01": "character U+0001 cannot appear in an XML document",
        "\t": "TAB character (column alignment would be ambiguous; use spaces)",
        "\r": _LONE_CR,
    }[line[column]]
    assert (exc.value.message, exc.value.line, exc.value.column) == (message, number, column)


def test_scan_kinds_for_full_fixture(newsidler_text):
    kinds = [ln.kind for ln in scan_text(newsidler_text)]
    assert kinds == [
        LineKind.ASSIGNMENT,  # duratioManet
        LineKind.ASSIGNMENT,  # duratioCadens
        LineKind.ASSIGNMENT,  # table name
        LineKind.ASSIGNMENT,  # = ( (...) opening
        LineKind.TABLE_CONTINUATION,
        LineKind.TABLE_CONTINUATION,
        LineKind.TABLE_CONTINUATION,
        LineKind.TABLE_CONTINUATION,
        LineKind.PARS_HEADER,
        LineKind.ASSIGNMENT,  # bünde
        LineKind.TEMPUS,
        LineKind.VOX,
        LineKind.VOX,
        LineKind.PARAM_TRACK,
    ]


def test_scan_leaves_out_blank_lines_and_keeps_line_numbers():
    text = "\n  // a comment\nPARS p\n\n   \nT  I\n//\nVOX v  a\n\n"
    assert [(line.line_number, line.kind) for line in scan_text(text)] == [
        (3, LineKind.PARS_HEADER),
        (6, LineKind.TEMPUS),
        (8, LineKind.VOX),
    ]


_token_text = st.text(
    alphabet=st.characters(
        codec="ascii", exclude_categories=("Zs", "Cc"), exclude_characters='"'
    ),
    min_size=1,
    max_size=6,
).filter(lambda s: "//" not in s)


@given(st.lists(st.tuples(_token_text, st.integers(1, 5)), min_size=0, max_size=10))
def test_tokenize_round_trip(layout):
    # lay tokens out with explicit gaps, then make sure the recorded columns
    # reproduce the non-whitespace content exactly
    line = ""
    for text, gap in layout:
        line += " " * gap + text
    rebuilt = [" "] * len(line)
    for text, column in zip(*tokenize_columns(line)):
        rebuilt[column : column + len(text)] = text
    assert "".join(rebuilt) == line


def _tokenize_by_characters(text: str, line_number: int) -> tuple[list[str], list[int]]:
    """Reference tokenizer: a character loop over ``str.isspace``.

    Returns the token texts and their start columns; raises ScanError at
    the opening quote of a quote that never closes, on ``line_number``.
    """
    tokens, columns = [], []
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        start = i
        if text[i] == '"':
            close = text.find('"', i + 1)
            if close < 0:
                raise ScanError("unterminated quote", line=line_number, column=start)
            i = close + 1
        while i < n and not text[i].isspace():
            i += 1
        tokens.append(text[start:i])
        columns.append(start)
    return tokens, columns


def test_pattern_whitespace_is_exactly_str_isspace():
    """``\\s``, ``\\S`` and ``str.split()``, on which the two ways of
    ``tokenize_columns`` rest, each part every code point as ``str.isspace`` does."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    spaces = "".join(filter(str.isspace, every))
    assert "".join(re.findall(r"\s", every)) == "".join(re.split(r"\S+", every)) == spaces
    assert every.split() == re.split(r"\s+", every)
    assert len(spaces) == 29  # TAB to CR, U+001C to U+001F, SPACE, NEL, NBSP and 18 more


def test_tokenize_matches_character_loop_on_every_one_byte_code_point():
    """Each Latin-1 character as a separator and inside a token. A line with
    no quote takes the byte mask, so a mask byte that disagrees with
    ``str.isspace`` shows here; the quote itself takes ``re.split``."""
    for c in map(chr, range(256)):
        for text in (f"{c}a{c}b {c} cd{c}{c}e  {c}", f"  x{c}  {c}{c}yz{c}w", c, f"{c} {c}"):
            _assert_matches_character_loop(text)


# the format's own characters, quotes, and whitespace beyond ASCII space
_SOURCE_CHARS = st.sampled_from(
    list('ITFE_.-+!=()\\/abcfgz019&C\u00fc"')
    + [" ", "\u00a0", "\u2003", "\u3000", "\x0b", "\x1c", "\x85", "\u2028", "\r"]
)


_GAPS = st.text(
    st.sampled_from([" ", "\u00a0", "\u2003", "\u3000", "\x85", "\u2028", "\x1c"]),
    min_size=1, max_size=3,
)
_WORDS = st.one_of(
    _token_text,
    st.text(st.sampled_from('ab =(\u00fc\u2003!'), max_size=5).map(lambda s: f'"{s}"'),
    st.tuples(_token_text, _token_text).map(lambda pair: f'"{pair[0]}"{pair[1]}'),
)


def _long_line(motif: list[tuple[str, str]], unterminated: bool) -> str:
    """``motif`` repeated to 3000 tokens or more, optionally ending in a quote that never closes."""
    line = "".join(gap + word for gap, word in motif) * -(-3000 // len(motif))
    return line + ' "never closed' if unterminated else line


_LONG_LINES = st.builds(_long_line, st.lists(st.tuples(_GAPS, _WORDS), min_size=1, max_size=8),
                        st.booleans())


@given(st.one_of(st.text(alphabet=st.one_of(_SOURCE_CHARS, st.characters()), max_size=40),
                 _LONG_LINES))
def test_tokenize_matches_character_loop(text):
    _assert_matches_character_loop(text)


def _assert_matches_character_loop(text: str) -> None:
    try:
        expected = _tokenize_by_characters(text, 5)
    except ScanError as err:
        with pytest.raises(ScanError) as exc:
            tokenize_columns(text, 5)
        assert (exc.value.line, exc.value.column) == (5, err.column)
        return
    got = tokenize_columns(text, 5)
    assert got == expected
    shared = {}  # as scan_text passes it: a second call meets every text again
    assert tokenize_columns(text, 5, shared) == tokenize_columns(text, 5, shared) == expected


# Quote-free annotation text that survives an XML attribute round trip:
# no control characters, no U+FFFE or U+FFFF (the scanner refuses all
# three, since no XML document can hold them), and no "//", which starts a
# comment even inside quotes.
_ANNOTATION_TEXT = st.one_of(
    st.text(st.characters(exclude_categories=("Cc", "Cs"), exclude_characters='"\ufffe\uffff')),
    st.from_regex(r"[A-Za-z_]\w* *= *[^\"\x00-\x1f/\ufffe\uffff]*", fullmatch=True),
).filter(lambda s: "//" not in s)


@given(_ANNOTATION_TEXT)
@example("=")
@example("a = f?")
@example("duratioManet = est")
def test_quoted_edit_text_compiles_verbatim(text):
    source = (
        "tbl = ( (1 a) )\nPARS p\nbünde = tbl\nT         I\nVOX v     a\n"
        f'    edit  "{text}"\n'
    )
    (pars,) = compile_source(source).partes
    (sonum,) = ET.fromstring(emit_pars(pars)).iter("sonum")
    assert sonum.get("edit") == text


# --- parentheses inside quotes ---------------------------------------------


def test_paren_split_skips_quoted_tokens():
    """Each unquoted parenthesis is a token; one opening with a quote stays whole."""
    (line,) = scan_text('x = "(" ( ")"! a) "((" (\n')
    assert line.tokens == ["x", "=", '"("', "(", '")"!', "a", ")", '"(("', "("]
    assert line.columns == [0, 2, 4, 8, 10, 15, 16, 18, 23]


@pytest.mark.parametrize("text", ["(", ")", "a)", "((x", ") (", "(b) )"])
def test_quoted_parens_change_no_line_kind(text):
    """A quoted '(' or ')' in a table cell or an edit payload leaves every kind as it was."""
    template = (
        'tbl = ( (1 a "{0}" )\n       (2 b) )\nPARS p\nbünde = tbl\n'
        'T         I\nVOX v     a\n    edit  "{0}"\n'
    )
    kinds = [ln.kind for ln in scan_text(template.format(text))]
    assert kinds == [ln.kind for ln in scan_text(template.format("x"))]
    assert kinds[:3] == [LineKind.ASSIGNMENT, LineKind.TABLE_CONTINUATION, LineKind.PARS_HEADER]
    assert kinds[-1] is LineKind.PARAM_TRACK


def test_unmatched_close_paren_located_outside_quotes():
    """The caret goes on the ``)`` that takes the depth below zero, not the line's last one,
    even where later parentheses balance the line."""
    for source, column in [
        ('x = a) ")"\n', 5), ("x = ( (1 a) ) ) ( (2 b) )\n", 14), ("x = a) (\n", 5),
        ("x = ( (1 a)) ) (\n", 13),
    ]:
        with pytest.raises(ScanError, match="unmatched") as exc:
            scan_text(source)
        assert (exc.value.line, exc.value.column) == (1, column)


def test_parentheses_before_the_equals_open_no_table():
    """Only a value's parentheses are counted; the prelude refuses such a name."""
    kinds = [line.kind for line in scan_text("t( = a\nPARS p\nu) =b\nT  I\n")]
    assert kinds == [LineKind.ASSIGNMENT, LineKind.PARS_HEADER, LineKind.ASSIGNMENT, LineKind.TEMPUS]


# --- lines directly below a voice line -------------------------------------


@pytest.mark.parametrize(
    "line,kind",
    [("    duratioManet = est", LineKind.ASSIGNMENT), ("    duratioManet=est", LineKind.ASSIGNMENT),
     ("    duratioManet =est", LineKind.ASSIGNMENT), ("    edit  x=y", LineKind.PARAM_TRACK),
     ('    edit  "a" b=c', LineKind.PARAM_TRACK), ("    edit  =y", LineKind.ASSIGNMENT)],
)
def test_equals_below_a_voice_line(line, kind):
    """Below a voice line, an ``=`` in or opening the second token makes an
    assignment; a later one is part of a track's payload."""
    lines = scan_text("PARS p\nT      I\nVOX v  a\n" + line + "\n")
    assert lines[-1].kind is kind


@pytest.mark.parametrize("line", ["    duratioManet = est", "    duratioManet=est"])
def test_assignment_below_a_voice_line_compiles(line):
    source = "tbl = ( (1 a) )\nPARS p\nbünde = tbl\nT      I\nVOX v  a\n" + line + "\n"
    (pars,) = compile_source(source).partes
    assert len(pars.columns) == 1


# --- refused characters ----------------------------------------------------

_REFUSED = ["\x00", "\x08", "\x0b", "\x0c", "\x1f", "\ud800", "\udfff", "\ufffe", "\uffff"]


@given(
    st.lists(
        st.text(
            st.one_of(
                st.sampled_from(_REFUSED + ["\x7f", "\x85", "\ufffd", "\U00010000"]),
                st.characters(exclude_characters="\t\n\r"),
            ),
            max_size=12,
        ),
        max_size=6,
    )
)
def test_refused_character_is_the_leftmost_of_the_xml_class(comments):
    """Comment lines scan to no line unless they hold a code point XML cannot hold;
    then the error names the leftmost one, where the class's search finds it."""
    text = "".join(f"//{comment}\n" for comment in comments)
    bad = helpers.NOT_XML_CHAR.search(text)
    if bad is None:
        assert scan_text(text) == []
        return
    with pytest.raises(ScanError) as exc:
        scan_text(text)
    at = bad.start()
    assert (exc.value.message, exc.value.line, exc.value.column) == (
        f"character U+{ord(bad.group()):04X} cannot appear in an XML document",
        text.count("\n", 0, at) + 1,
        at - text.rfind("\n", 0, at) - 1,
    )
