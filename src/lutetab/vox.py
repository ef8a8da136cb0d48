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

This module owns the shape of the lines: a voice line's head and name, a
track line's quoted payloads. It reads no grip spelling. A voice line's
grips stay the scanner's texts beside their columns, an annotation keeps
its track, text and column, and errors take their line number from the
``SourceLine``.
``model.build_system`` calls both parsers as it walks a system's lines in
order, places each annotation on its grip, and owns every rule about a
spelling: the ``+`` rule (one ``+``, at the end, after a symbol),
stripping it, and looking the symbol up in the PARS's table.
"""

from collections import namedtuple

from .errors import ParseError
from .scanner import SourceLine

EDIT_TRACK = "edit"


Annotation = namedtuple("Annotation", [
    "track",
    "text",  # quote content plus any attached suffix, verbatim
    "start_column",
])


def parse_vox_line(line: SourceLine) -> tuple[str, list[str], list[int]]:
    """Return the voice name, its grip texts, spelled as written, and their columns."""
    tokens = line.tokens
    assert tokens[0] == "VOX"
    if len(tokens) < 2:
        raise ParseError(
            "VOX line is missing a voice name",
            line=line.line_number,
            column=line.columns[0] + len("VOX"),
        )
    return tokens[1], tokens[2:], line.columns[2:]


def parse_param_track(line: SourceLine) -> tuple[str, list[Annotation]]:
    """Parse one parameter-track line into (track name, annotations).

    A terminal backslash token is an end-of-track marker, not a payload.
    """
    track, *payload = line.tokens
    if payload and set(payload[-1]) == {"\\"}:
        payload.pop()
    annotations: list[Annotation] = []
    for text, column in zip(payload, line.columns[1:]):
        if not text.startswith('"'):
            raise ParseError(
                f"parameter track '{track}' payload must be quoted, got '{text}'",
                line=line.line_number,
                column=column,
            )
        close = text.index('"', 1)  # guaranteed by the scanner
        annotations.append(Annotation(track, text[1:close] + text[close + 1 :], column))
    return track, annotations
