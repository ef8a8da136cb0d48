"""Duration line parsing: stems, dots, beams and the carry operator.

A ``T`` line holds one duration symbol per score column. The stem letters
I, T, F, E mean zero to three flags and are read the modern way as 1/4,
1/8, 1/16, 1/32; a suffixed dot multiplies by 3/2. Standalone dot groups
are the longer values 1/2, 3/4 and 1/1. Underscores replace flags with
beams: a trailing ``_`` opens a beam group, a leading one closes it. The
carry token ``-`` repeats the previous duration and is only legal when the
prelude enables it with ``duratioManet = est``. All these values, and so
all their sums, are exact integer ticks of 1/64 whole note.

A ``DurationToken`` is a value: what a spelling means, not where it
stands. Each of the 35 spellings other than the carry is parsed once, at
import; a T line finds each of its symbols among them with one dict
lookup, and every column that holds a spelling shares its one record. A
symbol that misses is a carry or an error: ``parse_tempus_line`` makes a
record for each carry, with the value of the duration before it, so each
carry column holds its own. ``model.build_system`` seeds the chain with
the last column of its PARS, so a carry may open a later system. The
column (``model.Columna``) keeps the position. A T line's symbols are the
scanner's ``(text, column)`` pairs, and errors take their line number from
the T line's ``SourceLine``.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import ModelError, ParseError
from .prelude import Parameters
from .scanner import SourceLine

KLASS_DOTS = "dots"
KLASS_CARRY = "carry"
STEM_FLAGS = {"I": 0, "T": 1, "F": 2, "E": 3}

TICKS_PER_WHOLE = 64


DurationToken = namedtuple("DurationToken", [
    "source_text",
    "klass",  # "I" | "T" | "F" | "E" | "dots" | "carry"
    "dot_count",
    "beam_begin",
    "beam_end",
    "value",  # in ticks of 1/64 whole note
])
DurationToken.__doc__ = (
    "The meaning of one T-line symbol; columns with the same spelling but ``-`` share one."
)


# Every spelling but the carry, parsed once: a stem letter with an optional
# dot, leading ``_`` (beam end) and trailing ``_`` (beam begin); a dot group.
_SPELLINGS = {
    token.source_text: token
    for token in [
        *(
            DurationToken(
                "_" * end + letter + "." * dot + "_" * begin, letter, dot, bool(begin),
                bool(end), TICKS_PER_WHOLE // (4 << flags) * (2 + dot) // 2,
            )
            for letter, flags in STEM_FLAGS.items()
            for dot in (0, 1) for end in (0, 1) for begin in (0, 1)
        ),
        *(  # 1/2, 3/4, 1/1
            DurationToken("." * n, KLASS_DOTS, n, False, False, TICKS_PER_WHOLE * (n + 1) // 4)
            for n in (1, 2, 3)
        ),
    ]
}


def parse_tempus_line(
    line: SourceLine, params: Parameters, prev: DurationToken | None = None
) -> list[DurationToken]:
    """Parse all duration tokens of one T line, threading carry state.

    ``prev`` seeds the carry chain, so a line that continues an earlier
    system of the same PARS may begin with ``-``.
    """
    (head, head_column), *body = line.tokens
    assert head == "T"
    if not body:
        raise ParseError(
            "time line has no duration symbols", line=line.line_number, column=head_column
        )
    spelling = _SPELLINGS.get
    out: list[DurationToken] = []
    for text, column in body:
        if (token := spelling(text)) is None:  # a carry, or an error
            if out:
                prev = out[-1]
            if text != "-":
                message = (f"carry token '-' takes no dots or beam markers: '{text}'"
                           if "-" in text else f"invalid duration token '{text}'")
            elif not params.duratio_manet:
                message = "carry token '-' requires the prelude parameter 'duratioManet = est'"
            elif prev is None:
                message = "carry token '-' has no preceding duration to repeat"
            else:
                out.append(DurationToken(text, KLASS_CARRY, 0, False, False, prev.value))
                continue
            raise ParseError(message, line=line.line_number, column=column)
        out.append(token)
    return out


def validate_beams(tempus: SourceLine, tokens: list[DurationToken]) -> None:
    """Check beam markers pair up left to right within one system.

    ``tokens`` are the durations parsed from the T line ``tempus``, whose
    tokens give each one's position. Each stem carries at most one marker:
    the output records one ``trabes`` value per stem, so ``_X_`` (closing
    one group and opening the next on the same stem) is rejected. Beams
    replace the flags of stems, so a dot group or a carry token, which have
    none, may not sit inside a beam group.
    """
    open_at = 0  # the 1-based index of the stem that opened the current group, or 0
    for i, tok in enumerate(tokens, 1):
        if open_at and tok.klass not in STEM_FLAGS:
            message = (f"'{tok.source_text}' inside the beam group begun at "
                       f"'{tokens[open_at - 1].source_text}'; beams join stems only")
            break
        if tok.beam_end:
            if not open_at:
                message = f"beam end without a beam begin: '{tok.source_text}'"
                break
            if tok.beam_begin:
                message = (f"'{tok.source_text}' both ends and begins a beam group; the output "
                           "format records only one marker per stem, so write the boundary "
                           "on two neighboring stems instead")
                break
            open_at = 0
        if tok.beam_begin:
            if open_at:
                message = f"beam begin inside an open beam group: '{tok.source_text}'"
                break
            open_at = i
    else:
        if not open_at:
            return
        i, message = open_at, f"unclosed beam group (begun at '{tokens[open_at - 1].source_text}')"
    _, column = tempus.tokens[i]  # tempus.tokens[0] is the line's "T"
    raise ModelError(message, line=tempus.line_number, column=column)
