import pytest
from hypothesis import given, settings, strategies as st

from lutetab import compile_source
from lutetab.errors import CompileError, ModelError, ParseError
from lutetab.scanner import LineKind, SourceLine, scan_text, tokenize_columns
from lutetab.vox import parse_param_track, parse_vox_line

import helpers


def vox_line(text: str) -> SourceLine:
    (line,) = scan_text(text)
    assert line.kind is LineKind.VOX
    return line


def track_line(text: str) -> SourceLine:
    tokens = tokenize_columns(text, 1)
    return SourceLine(1, LineKind.PARAM_TRACK, tokens)


def voice_sona(*grips: str) -> list[tuple[str, bool]]:
    """Compile one voice holding ``grips`` and return each Sonum's (source, prolongate)."""
    cells = " ".join(sorted({g.removesuffix("+") for g in grips}))
    head = f"tbl = ( ({cells}) )\nPARS p\nbünde = tbl\n"
    lines = helpers.system_lines(["I"] * len(grips), dict(enumerate(grips)))
    (pars,) = compile_source(head + "\n".join(lines) + "\n").partes
    return [(sonum.source, sonum.prolongate) for col in pars.columns for sonum in col.sona]


def test_parse_vox_basic():
    line = vox_line("VOX v2  f f f e+")
    name, grips = parse_vox_line(line)
    assert name == "v2"
    # the grips are the scanner's own tokens, suffix and all
    assert grips == line.tokens[2:]
    assert grips == [("f", 8), ("f", 10), ("f", 12), ("e+", 14)]


def test_parse_vox_prolongate():
    assert voice_sona("&", "4", "4+") == [("&", False), ("4", False), ("4", True)]


def test_parse_vox_prolongate_letter():
    assert voice_sona("n+") == [("n", True)]


def test_vox_missing_name():
    with pytest.raises(ParseError, match="voice name"):
        parse_vox_line(vox_line("VOX"))


def compile_error(*voices: str) -> tuple[type, str, int, int]:
    """Compile one system, a voice per ``voices`` entry laid out as written
    below ``T I I I``; return the error's class, message, line and column."""
    head = "tbl = ( (1 a) )\nPARS p\nbünde = tbl\nT      I  I  I\n"
    with pytest.raises(CompileError) as exc:
        compile_source(head + "".join(f"VOX v{i} {v}\n" for i, v in enumerate(voices, 1)))
    err = exc.value
    return type(err), err.message, err.line, err.column


def test_bare_plus_rejected():
    assert compile_error("+  a") == (
        ParseError, "bare '+' is not a grip (the marker suffixes a symbol)", 5, 7
    )


def test_internal_plus_rejected():
    assert compile_error("a  a+a") == (
        ParseError, "misplaced '+' in grip token 'a+a' (only one, at the end)", 5, 10
    )


def test_plus_defect_in_a_later_voice_comes_after_an_earlier_grip_error():
    """Grip errors come in reading order: an unknown grip in voice 1 is
    reported before a ``+`` defect in voice 2 of the same system."""
    assert compile_error("a  z  a", "a  a++") == (
        ModelError, "unknown grip symbol 'z' (not in table 'tbl')", 5, 10
    )


@pytest.mark.parametrize(
    "voice,error",
    [("a +", (ParseError, "bare '+' is not a grip (the marker suffixes a symbol)", 5, 9)),
     ("a +a", (ParseError, "misplaced '+' in grip token '+a' (only one, at the end)", 5, 9)),
     ("a z", (ModelError, "grip 'z' in voice 'v1' does not start under any duration "
                          "symbol of its system", 5, 9)),
     ("a  z", (ModelError, "unknown grip symbol 'z' (not in table 'tbl')", 5, 10))],
    ids=["bare-plus-off-column", "misplaced-plus-off-column", "unknown-off-column", "unknown"],
)
def test_a_grips_own_checks_run_plus_rule_column_table(voice, error):
    assert compile_error(voice) == error


_SPELLING_SYMBOLS = ("", "1", "a", "aa", "&")
_SPELLING_TABLE = "tbl = ( (1 a aa) (2 &) )\nPARS p\nbünde = tbl\n"


@st.composite
def _spelling(draw) -> str:
    """A table symbol with ``+`` signs at random places; never empty."""
    spelling = draw(st.sampled_from(_SPELLING_SYMBOLS))
    for _ in range(draw(st.integers(0 if spelling else 1, 2))):
        at = draw(st.integers(0, len(spelling)))
        spelling = spelling[:at] + "+" + spelling[at:]
    return spelling


def _spelling_is_valid(spelling: str) -> bool:
    """The rule, stated apart from the compiler: at most one ``+``, and only
    at the end of a non-empty symbol."""
    symbol = spelling[:-1] if spelling.endswith("+") else spelling
    return bool(symbol) and "+" not in symbol


@settings(deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(_spelling(), min_size=n, max_size=n), min_size=1, max_size=3)
))
def test_random_plus_placement_raises_at_the_first_invalid_spelling(voices):
    """Exactly the invalid spellings are refused, and the error names the
    first of them in reading order: voice by voice, left to right."""
    cols = [7 + 6 * j for j in range(len(voices[0]))]
    lines = [helpers.lay("T", [(c, "I") for c in cols])]
    lines += [helpers.lay(f"VOX v{i}", zip(cols, voice)) for i, voice in enumerate(voices)]
    source = _SPELLING_TABLE + "\n".join(lines) + "\n"
    invalid = [
        (4 + i, col, spelling)
        for i, voice in enumerate(voices, 1)
        for col, spelling in zip(cols, voice)
        if not _spelling_is_valid(spelling)
    ]
    if not invalid:
        (pars,) = compile_source(source).partes
        assert [[s.source + "+" * s.prolongate for s in col.sona] for col in pars.columns] == [
            list(column) for column in zip(*voices)
        ]
        return
    line, column, spelling = invalid[0]
    message = (
        "bare '+' is not a grip (the marker suffixes a symbol)" if spelling == "+"
        else f"misplaced '+' in grip token '{spelling}' (only one, at the end)"
    )
    with pytest.raises(ParseError) as exc:
        compile_source(source)
    assert (exc.value.message, exc.value.line, exc.value.column) == (message, line, column)


@given(
    st.text(alphabet="abcxyz123&C", min_size=1, max_size=3),
    st.booleans(),
)
def test_suffix_stripping_is_reversible(symbol, prolongate):
    text = symbol + ("+" if prolongate else "")
    ((source, prolongated),) = voice_sona(text)
    assert source + ("+" if prolongated else "") == text


def test_param_track_fig_line():
    text = '    edit                      "hardly readable, could be a \'1\'"! \\\\'
    track, annotations = parse_param_track(track_line(text))
    assert track == "edit"
    assert len(annotations) == 1
    ann = annotations[0]
    assert ann.text == "hardly readable, could be a '1'!"
    assert ann.start_column == 30
    assert ann.track == "edit"


def test_param_track_empty_payload():
    track, annotations = parse_param_track(track_line("    edit"))
    assert track == "edit" and annotations == []


def test_param_track_marker_only():
    _, annotations = parse_param_track(track_line("    edit \\\\"))
    assert annotations == []


def test_param_track_single_backslash_marker():
    _, annotations = parse_param_track(track_line('    edit "x" \\'))
    assert len(annotations) == 1


def test_param_track_rejects_unquoted_payload():
    with pytest.raises(ParseError, match="quoted"):
        parse_param_track(track_line("    edit oops"))
