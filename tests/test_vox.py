import pytest
from hypothesis import given, strategies as st

from lutetab import compile_source
from lutetab.errors import ParseError
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


def test_bare_plus_rejected():
    with pytest.raises(ParseError, match="bare '\\+'"):
        parse_vox_line(vox_line("VOX v1 + f"))


def test_internal_plus_rejected():
    with pytest.raises(ParseError, match="misplaced"):
        parse_vox_line(vox_line("VOX v1 a+b"))


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
