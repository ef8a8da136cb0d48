import pytest
from hypothesis import given, strategies as st

from lutetab.errors import ScanError
from lutetab.scanner import (
    LineKind,
    ScannerState,
    classify_line,
    scan_text,
    strip_comments,
    tokenize_columns,
)


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
    assert [(t.text, t.start_column) for t in after] == [
        (t.text, t.start_column) for t in before
    ]


def test_tokenize_columns_basic():
    tokens = tokenize_columns("        I I T")
    assert [(t.text, t.start_column) for t in tokens] == [("I", 8), ("I", 10), ("T", 12)]


def test_tokenize_columns_empty():
    assert tokenize_columns("") == []
    assert tokenize_columns("   ") == []


def test_tokenize_columns_suffix():
    tokens = tokenize_columns("4+ 5")
    assert [(t.text, t.start_column) for t in tokens] == [("4+", 0), ("5", 3)]


def test_tokenize_quoted_region_is_one_token():
    tokens = tokenize_columns('    edit  "hardly readable"! x')
    assert [(t.text, t.start_column) for t in tokens] == [
        ("edit", 4),
        ('"hardly readable"!', 10),
        ("x", 29),
    ]


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
    assert classify_line(text, ScannerState(), 1, text) is kind


def test_classify_param_track_needs_preceding_vox():
    after_vox = ScannerState(prev_kind=LineKind.VOX)
    line = '    edit  "x"! \\\\'
    assert classify_line(line, after_vox, 2, line) is LineKind.PARAM_TRACK
    # a second track line may follow the first
    after_track = ScannerState(prev_kind=LineKind.PARAM_TRACK)
    line = '    fing  "y"'
    assert classify_line(line, after_track, 3, line) is LineKind.PARAM_TRACK


def test_classify_table_continuation():
    inside = ScannerState(paren_depth=1)
    line = "       (2 b  g  m  r  y  bb)"
    assert classify_line(line, inside, 2, line) is LineKind.TABLE_CONTINUATION


def test_classify_rejects_unknown_shape():
    raw = "  what is this // a comment"
    with pytest.raises(ScanError) as exc:
        classify_line(strip_comments(raw), ScannerState(), 7, raw)
    assert (exc.value.line, exc.value.column, exc.value.source_line) == (7, 2, raw)


def test_scan_rejects_tabs():
    with pytest.raises(ScanError) as exc:
        scan_text("PARS a\nT \tI\n")
    assert exc.value.line == 2
    assert exc.value.column == 2


def test_scan_strips_crlf():
    lines = scan_text("PARS a\r\nT  I\r\n")
    assert lines[0].text == "PARS a"
    assert [t.start_column for t in lines[1].tokens] == [0, 3]


def test_scan_kinds_for_full_fixture(newsidler_text):
    kinds = [ln.kind for ln in scan_text(newsidler_text) if ln.kind is not LineKind.BLANK]
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
    tokens = tokenize_columns(line)
    rebuilt = [" "] * len(line)
    for tok in tokens:
        rebuilt[tok.start_column : tok.start_column + len(tok.text)] = tok.text
    assert "".join(rebuilt) == line


def _tokenize_by_characters(text: str, line_number: int) -> list[tuple[str, int, int]]:
    """Reference tokenizer: a character loop over ``str.isspace``.

    Returns ``(text, start_column, line_number)`` triples; raises ScanError
    at the opening quote of a quote that never closes.
    """
    tokens = []
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
        tokens.append((text[start:i], start, line_number))
    return tokens


# the format's own characters, quotes, and whitespace beyond ASCII space
_SOURCE_CHARS = st.sampled_from(
    list('ITFE_.-+!=()\\/abcfgz019&C\u00fc"')
    + [" ", "\u00a0", "\u2003", "\u3000", "\x0b", "\x1c", "\x85", "\u2028", "\r"]
)


@given(st.text(alphabet=st.one_of(_SOURCE_CHARS, st.characters()), max_size=40))
def test_tokenize_matches_character_loop(text):
    try:
        expected = _tokenize_by_characters(text, 5)
    except ScanError as err:
        with pytest.raises(ScanError) as exc:
            tokenize_columns(text, 5)
        assert (exc.value.line, exc.value.column) == (5, err.column)
        return
    got = tokenize_columns(text, 5)
    assert [(t.text, t.start_column, t.line_number) for t in got] == expected
