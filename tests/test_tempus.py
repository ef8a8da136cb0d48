from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lutetab.errors import ModelError, ParseError
from lutetab.prelude import Parameters
from lutetab.scanner import LineKind, SourceLine, scan_text
from lutetab.tempus import (
    DurationToken,
    KLASS_CARRY,
    KLASS_DOTS,
    parse_tempus_line,
    validate_beams,
)

from helpers import as_fraction

PLAIN = Parameters()
MANET = Parameters(duratio_manet=True)


def parse_one(text: str, params: Parameters = PLAIN, prev: DurationToken | None = None):
    """The value of one T-line symbol standing at column 0."""
    (tok,) = parse_tempus_line(SourceLine(1, LineKind.TEMPUS, ["T", text], [0, 0]), params, prev)
    return tok


def parse_line(text: str, params: Parameters = PLAIN, prev: DurationToken | None = None):
    (line,) = scan_text(text)
    return parse_tempus_line(line, params, prev)


def check_beams(text: str, params: Parameters = PLAIN) -> None:
    (line,) = scan_text(text)
    validate_beams(line, parse_tempus_line(line, params))


def test_plain_quarter():
    tok = parse_one("I")
    assert tok.klass == "I"
    assert as_fraction(tok.value) == Fraction(1, 4)
    assert not tok.beam_begin and not tok.beam_end and tok.dot_count == 0


def test_beam_begin_thirtysecond():
    tok = parse_one("E_")
    assert tok.klass == "E"
    assert as_fraction(tok.value) == Fraction(1, 32)
    assert tok.beam_begin and not tok.beam_end


def test_dotted_eighth():
    tok = parse_one("T.")
    assert tok.dot_count == 1
    assert as_fraction(tok.value) == Fraction(3, 16)


def test_standalone_dots():
    assert as_fraction(parse_one(".").value) == Fraction(1, 2)
    assert as_fraction(parse_one("..").value) == Fraction(3, 4)
    assert as_fraction(parse_one("...").value) == Fraction(1, 1)
    tok = parse_one("..")
    assert tok.klass == KLASS_DOTS and tok.dot_count == 2
    assert not tok.beam_begin and not tok.beam_end


def test_carry_copies_previous():
    prev = parse_one("I")
    tok = parse_one("-", MANET, prev)
    assert tok.klass == KLASS_CARRY
    assert as_fraction(tok.value) == Fraction(1, 4)


def test_carry_requires_manet():
    with pytest.raises(ParseError, match="duratioManet"):
        parse_one("-", PLAIN, parse_one("I"))


def test_carry_requires_predecessor():
    with pytest.raises(ParseError, match="preceding"):
        parse_one("-", MANET, None)


@pytest.mark.parametrize("text", ["-_", "_-", "-.", "--"])
def test_carry_takes_no_decorations(text):
    with pytest.raises(ParseError):
        parse_one(text, MANET, parse_one("I"))


@pytest.mark.parametrize("text", ["I..", "X", "_", "....", "I_.", "E._I", "i"])
def test_rejects_non_grammar_tokens(text):
    with pytest.raises(ParseError) as exc:
        parse_one(text, MANET, parse_one("I"))
    assert exc.value.column == 0


def test_double_marker_token_parses():
    tok = parse_one("_E_")
    assert tok.beam_begin and tok.beam_end


def test_halving_law():
    values = {k: parse_one(k).value for k in "ITFE"}
    assert values["T"] == values["I"] / 2
    assert values["F"] == values["T"] / 2
    assert values["E"] == values["F"] / 2


@pytest.mark.parametrize("letter", list("ITFE"))
def test_dot_law(letter):
    assert parse_one(letter + ".").value == parse_one(letter).value * Fraction(3, 2)


def test_parse_line_single():
    tokens = parse_line("T  I")
    assert len(tokens) == 1 and as_fraction(tokens[0].value) == Fraction(1, 4)
    assert tokens[0] is parse_one("I")  # one shared value per spelling


def test_parse_line_beam_group():
    tokens = parse_line("T  E_ E _E")
    assert [as_fraction(t.value) for t in tokens] == [Fraction(1, 32)] * 3
    assert tokens[0].beam_begin and tokens[2].beam_end
    assert not tokens[1].beam_begin and not tokens[1].beam_end


def test_parse_line_empty():
    with pytest.raises(ParseError, match="no duration symbols"):
        parse_line("T   ")


def test_carry_fixpoint_along_line():
    tokens = parse_line("T  I - - T - .. -", MANET)
    for left, right in zip(tokens, tokens[1:]):
        if right.klass == KLASS_CARRY:
            assert right.value == left.value


def test_carry_threads_across_lines():
    first = parse_line("T  F", MANET)
    second = parse_line("T  - I", MANET, prev=first[-1])
    assert as_fraction(second[0].value) == Fraction(1, 16)


def test_validate_beams_accepts_matched():
    check_beams("T  E_ E _E")
    check_beams("T  I F_ _F I E_ _E")
    check_beams("T  E_ _E - .. T_ F _T -", MANET)  # carry, dots between groups


def test_validate_beams_unclosed():
    with pytest.raises(ModelError, match="unclosed") as exc:
        check_beams("T  E_ E")
    assert exc.value.column == 3


def test_validate_beams_end_without_begin():
    with pytest.raises(ModelError, match="without a beam begin") as exc:
        check_beams("T  _E")
    assert exc.value.column == 3


def test_validate_beams_rejects_close_and_reopen_marker():
    # the output records one trabes value per stem
    with pytest.raises(ModelError, match="'_E_' both ends and begins a beam group") as exc:
        check_beams("T  E_ _E_ _E")
    assert (exc.value.line, exc.value.column) == (1, 6)


def test_validate_beams_nested_begin():
    with pytest.raises(ModelError, match="inside an open beam group"):
        check_beams("T  E_ E_ _E")


@pytest.mark.parametrize("inner", [".", "..", "...", "-"])
def test_validate_beams_rejects_dots_and_carry_inside_group(inner):
    # beams replace flags; dot groups and the carry token have none
    with pytest.raises(ModelError, match="beams join stems only") as exc:
        check_beams(f"T  I E_ {inner} _E", MANET)
    assert (exc.value.line, exc.value.column) == (1, 8)


# --- grammar fuzz ------------------------------------------------------

# independent re-statement of the token grammar, structured differently
# from the parser's regex on purpose
def grammar_legal(text: str) -> bool:
    if text in (".", "..", "...", "-"):
        return True
    t = text
    if t.startswith("_"):
        t = t[1:]
    if not t or t[0] not in "ITFE":
        return False
    t = t[1:]
    if t.startswith("."):
        t = t[1:]
    if t.startswith("_"):
        t = t[1:]
    return t == ""


@given(st.text(alphabet="ITFE_.-", min_size=1, max_size=5))
def test_grammar_fuzz(text):
    prev = parse_one("I")
    if grammar_legal(text):
        tok = parse_one(text, MANET, prev)
        assert tok.source_text == text
        assert tok.value > 0
    else:
        with pytest.raises(ParseError):
            parse_one(text, MANET, prev)
