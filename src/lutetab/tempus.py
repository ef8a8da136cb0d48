"""Duration line parsing: stems, dots, beams and the carry operator.

A ``T`` line holds one duration symbol per score column. The stem letters
I, T, F, E mean zero to three flags and are read the modern way as 1/4,
1/8, 1/16, 1/32; a suffixed dot multiplies by 3/2. Standalone dot groups
are the longer values 1/2, 3/4 and 1/1. Underscores replace flags with
beams: a trailing ``_`` opens a beam group, a leading one closes it. The
carry token ``-`` repeats the previous duration and is only legal when the
prelude enables it with ``duratioManet = est``. All these values, and so
all their sums, are exact integer ticks of 1/64 whole note.
"""

from __future__ import annotations

import re

from .errors import ModelError, ParseError
from .prelude import Parameters
from .records import Record
from .scanner import SourceLine, Token

KLASS_DOTS = "dots"
KLASS_CARRY = "carry"
STEM_FLAGS = {"I": 0, "T": 1, "F": 2, "E": 3}

TICKS_PER_WHOLE = 64
_STEM_VALUES = {k: TICKS_PER_WHOLE // (4 << f) for k, f in STEM_FLAGS.items()}
_DOTTED_STEM_VALUES = {k: v * 3 // 2 for k, v in _STEM_VALUES.items()}
_DOT_GROUP_VALUES = {"." * n: TICKS_PER_WHOLE * (n + 1) // 4 for n in (1, 2, 3)}  # 1/2, 3/4, 1/1

_STEM_RE = re.compile(r"^(_?)([ITFE])(\.?)(_?)$")


class DurationToken(Record):
    """One parsed T-line symbol; slotted, as one is built per score column."""

    __slots__ = (
        "source_text", "klass", "dot_count", "beam_begin", "beam_end", "value",
        "start_column", "line_number",
    )

    def __init__(
        self, source_text: str, klass: str, dot_count: int, beam_begin: bool, beam_end: bool,
        value: int, start_column: int, line_number: int,
    ) -> None:
        self.source_text = source_text
        self.klass = klass  # "I" | "T" | "F" | "E" | "dots" | "carry"
        self.dot_count = dot_count
        self.beam_begin = beam_begin
        self.beam_end = beam_end
        self.value = value  # in ticks of 1/64 whole note
        self.start_column = start_column
        self.line_number = line_number


def parse_duration_token(
    token: Token, params: Parameters, prev: DurationToken | None
) -> DurationToken:
    """Parse one symbol of a T line, resolving its value in ticks."""
    text = token.text

    if text == "-":
        if not params.duratio_manet:
            raise ParseError(
                "carry token '-' requires the prelude parameter 'duratioManet = est'",
                line=token.line_number,
                column=token.start_column,
            )
        if prev is None:
            raise ParseError(
                "carry token '-' has no preceding duration to repeat",
                line=token.line_number,
                column=token.start_column,
            )
        return DurationToken(
            text, KLASS_CARRY, 0, False, False, prev.value, token.start_column, token.line_number
        )

    value = _DOT_GROUP_VALUES.get(text)
    if value is not None:
        return DurationToken(
            text, KLASS_DOTS, len(text), False, False, value, token.start_column, token.line_number
        )

    m = _STEM_RE.match(text)
    if m is None:
        if "-" in text:
            msg = f"carry token '-' takes no dots or beam markers: '{text}'"
        else:
            msg = f"invalid duration token '{text}'"
        raise ParseError(msg, line=token.line_number, column=token.start_column)

    end_mark, letter, dot, begin_mark = m.groups()
    return DurationToken(
        text,
        letter,
        1 if dot else 0,
        bool(begin_mark),
        bool(end_mark),
        (_DOTTED_STEM_VALUES if dot else _STEM_VALUES)[letter],
        token.start_column,
        token.line_number,
    )


def parse_tempus_line(
    line: SourceLine, params: Parameters, prev: DurationToken | None = None
) -> list[DurationToken]:
    """Parse all duration tokens of one T line, threading carry state.

    ``prev`` seeds the carry chain, so a line that continues an earlier
    system of the same PARS may begin with ``-``.
    """
    assert line.tokens and line.tokens[0].text == "T"
    body = line.tokens[1:]
    if not body:
        raise ParseError(
            "time line has no duration symbols",
            line=line.line_number,
            column=line.tokens[0].start_column,
        )
    out: list[DurationToken] = []
    for tok in body:
        prev = parse_duration_token(tok, params, prev)
        out.append(prev)
    return out


def validate_beams(tokens: list[DurationToken]) -> None:
    """Check beam markers pair up left to right within one system.

    Each stem carries at most one marker: the output records one ``trabes``
    value per stem, so ``_X_`` (closing one group and opening the next on
    the same stem) is rejected. Beams replace the flags of stems, so a dot
    group or a carry token, which have none, may not sit inside a beam
    group.
    """
    open_at: DurationToken | None = None
    for tok in tokens:
        if open_at is not None and tok.klass not in STEM_FLAGS:
            raise ModelError(
                f"'{tok.source_text}' inside the beam group begun at "
                f"'{open_at.source_text}'; beams join stems only",
                line=tok.line_number,
                column=tok.start_column,
            )
        if tok.beam_end:
            if open_at is None:
                raise ModelError(
                    f"beam end without a beam begin: '{tok.source_text}'",
                    line=tok.line_number,
                    column=tok.start_column,
                )
            if tok.beam_begin:
                raise ModelError(
                    f"'{tok.source_text}' both ends and begins a beam group; the output "
                    "format records only one marker per stem, so write the boundary on "
                    "two neighboring stems instead",
                    line=tok.line_number,
                    column=tok.start_column,
                )
            open_at = None
        if tok.beam_begin:
            if open_at is not None:
                raise ModelError(
                    f"beam begin inside an open beam group: '{tok.source_text}'",
                    line=tok.line_number,
                    column=tok.start_column,
                )
            open_at = tok
    if open_at is not None:
        raise ModelError(
            f"unclosed beam group (begun at '{open_at.source_text}')",
            line=open_at.line_number,
            column=open_at.start_column,
        )
