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

A grip stays the scanner's ``(text, column)`` pair: ``parse_vox_line`` only
checks the ``+`` suffix, and errors and annotations take their line number
from the ``SourceLine``. ``model.build_system`` looks a grip's
``(text, ypos)`` up among its PARS's grips and builds a ``Sonum`` only for
a new one or an annotated one.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ParseError
from .scanner import SourceLine

PROLONGATE_SUFFIX = "+"
EDIT_TRACK = "edit"


class Annotation(NamedTuple):
    track: str
    text: str  # quote content plus any attached suffix, verbatim
    start_column: int
    line_number: int


def parse_vox_line(line: SourceLine) -> tuple[str, list[tuple[str, int]]]:
    """Return the voice name and its grip tokens, whose ``+`` suffix is checked."""
    tokens = line.tokens
    head, head_column = tokens[0]
    assert head == "VOX"
    if len(tokens) < 2:
        raise ParseError(
            "VOX line is missing a voice name",
            line=line.line_number,
            column=head_column + len("VOX"),
        )
    name, _ = tokens[1]
    grips = tokens[2:]
    for text, column in grips:
        symbol = text.removesuffix(PROLONGATE_SUFFIX)
        if not symbol:
            raise ParseError(
                "bare '+' is not a grip (the marker suffixes a symbol)",
                line=line.line_number,
                column=column,
            )
        if PROLONGATE_SUFFIX in symbol:
            raise ParseError(
                f"misplaced '+' in grip token '{text}' (only one, at the end)",
                line=line.line_number,
                column=column,
            )
    return name, grips


def parse_param_track(line: SourceLine) -> tuple[str, list[Annotation]]:
    """Parse one parameter-track line into (track name, annotations).

    A terminal backslash token is an end-of-track marker, not a payload.
    """
    (track, _), *payload = line.tokens
    if payload and set(payload[-1][0]) == {"\\"}:
        payload.pop()
    annotations: list[Annotation] = []
    for text, column in payload:
        if not text.startswith('"'):
            raise ParseError(
                f"parameter track '{track}' payload must be quoted, got '{text}'",
                line=line.line_number,
                column=column,
            )
        close = text.index('"', 1)  # guaranteed by the scanner
        annotations.append(
            Annotation(track, text[1:close] + text[close + 1 :], column, line.line_number)
        )
    return track, annotations
