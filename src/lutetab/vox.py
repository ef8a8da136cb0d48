"""Voice lines and their parameter tracks.

A ``VOX`` line names a voice and lists grip events; a trailing ``+`` on an
event means laissez vibrer (let the string ring on). Indented lines
directly below a voice line add per-event parameter tracks such as
editorial remarks:

    VOX v2  f f f e  f 1 f ...
        edit              "hardly readable, could be a '1'"!

Track payloads are quoted and attach to the event of the preceding voice
line that starts in the same column. A payload may hold any text but a
double quote or ``//``, which starts a comment even inside quotes. Only
the ``edit`` track is emitted; the model warns about any other.

A grip stays the scanner's ``Token``: ``parse_vox_line`` only checks the
``+`` suffix. ``model.build_system`` looks its ``(text, ypos)`` up among its
PARS's grips and builds a ``Sonum`` only for a new one or an annotated one.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ParseError
from .scanner import SourceLine, Token

PROLONGATE_SUFFIX = "+"
EDIT_TRACK = "edit"


class Annotation(NamedTuple):
    track: str
    text: str  # quote content plus any attached suffix, verbatim
    start_column: int
    line_number: int


def parse_vox_line(line: SourceLine) -> tuple[str, list[Token]]:
    """Return the voice name and its grip tokens, whose ``+`` suffix is checked."""
    assert line.tokens and line.tokens[0].text == "VOX"
    if len(line.tokens) < 2:
        raise ParseError(
            "VOX line is missing a voice name",
            line=line.line_number,
            column=line.tokens[0].start_column + len("VOX"),
        )
    grips = line.tokens[2:]
    for tok in grips:
        symbol = tok.text.removesuffix(PROLONGATE_SUFFIX)
        if not symbol:
            raise ParseError(
                "bare '+' is not a grip (the marker suffixes a symbol)",
                line=tok.line_number,
                column=tok.start_column,
            )
        if PROLONGATE_SUFFIX in symbol:
            raise ParseError(
                f"misplaced '+' in grip token '{tok.text}' (only one, at the end)",
                line=tok.line_number,
                column=tok.start_column,
            )
    return line.tokens[1].text, grips


def parse_param_track(line: SourceLine) -> tuple[str, list[Annotation]]:
    """Parse one parameter-track line into (track name, annotations).

    A terminal backslash token is an end-of-track marker, not a payload.
    """
    assert line.tokens
    track = line.tokens[0].text
    payload = list(line.tokens[1:])
    if payload and set(payload[-1].text) == {"\\"}:
        payload.pop()
    annotations: list[Annotation] = []
    for tok in payload:
        if not tok.text.startswith('"'):
            raise ParseError(
                f"parameter track '{track}' payload must be quoted, got '{tok.text}'",
                line=tok.line_number,
                column=tok.start_column,
            )
        close = tok.text.index('"', 1)  # guaranteed by the scanner
        text = tok.text[1:close] + tok.text[close + 1 :]
        annotations.append(Annotation(track, text, tok.start_column, tok.line_number))
    return track, annotations
