"""Source scanner: classified, column-indexed lines and tokens.

The input format is column-sensitive: vertical alignment of token start
columns carries the meaning, so the scanner's one hard job is to preserve
exact 0-based start columns (counted in Unicode scalars). TAB characters
are rejected outright because their expansion width is ambiguous and a
silently shifted column would corrupt the score.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .errors import ScanError


class LineKind(Enum):
    BLANK = "blank"
    ASSIGNMENT = "assignment"
    TABLE_CONTINUATION = "tableContinuation"
    PARS_HEADER = "parsHeader"
    TEMPUS = "tempusLine"
    VOX = "voxLine"
    PARAM_TRACK = "paramTrackLine"


class Token(NamedTuple):
    text: str
    start_column: int  # 0-based scalar offset from line start
    line_number: int  # 1-based


@dataclass
class SourceLine:
    line_number: int  # 1-based
    text: str  # comment-stripped
    raw: str  # as read, for diagnostics
    kind: LineKind
    tokens: list[Token] = field(default_factory=list)


@dataclass
class ScannerState:
    """Carries the little context classification needs between lines."""

    paren_depth: int = 0
    prev_kind: LineKind = LineKind.BLANK


def strip_comments(raw_line: str) -> str:
    """Drop ``//`` and everything after it; earlier characters unchanged."""
    i = raw_line.find("//")
    return raw_line if i < 0 else raw_line[:i]


# A quoted run (to the closing quote, plus any attached suffix) or a plain
# non-whitespace run; ``\s`` matches exactly the characters ``str.isspace``
# accepts. A match opening with ``"`` but without group 1 is a quote that
# never closes.
_TOKEN_RE = re.compile(r'("[^"]*"\S*)|\S+')


def tokenize_columns(text: str, line_number: int = 0, raw: str | None = None) -> list[Token]:
    """Split into maximal non-whitespace runs annotated with start columns.

    A token opening with a double quote runs to the closing quote and then
    swallows any directly attached suffix characters (the source format
    writes ``"..."!``), so quoted annotations with internal spaces stay one
    token. The opening quote's column is the token's column.
    """
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        tok = m.group()
        if tok[0] == '"' and m.lastindex is None:
            raise ScanError(
                "unterminated quote",
                line=line_number,
                column=m.start(),
                source_line=raw if raw is not None else text,
            )
        tokens.append(Token(tok, m.start(), line_number))
    return tokens


def classify_line(text: str, state: ScannerState, line_number: int, raw: str) -> LineKind:
    """Decide a comment-stripped line's kind, given the scanner state.

    Deterministic in (text, state): open parenthesis groups turn any line
    into a table continuation; otherwise the first token decides; a lone
    identifier starts an assignment whose ``= value`` follows on the next
    line; an indented identifier line directly below a voice line is a
    parameter track. An unclassifiable line is reported at ``line_number``
    with the ``raw`` line as read.
    """
    parts = text.split()
    if not parts:
        return LineKind.BLANK
    if state.paren_depth > 0:
        return LineKind.TABLE_CONTINUATION
    first = parts[0]
    if first == "PARS":
        return LineKind.PARS_HEADER
    if first == "T":
        return LineKind.TEMPUS
    if first == "VOX":
        return LineKind.VOX
    if "=" in parts or "=" in first:
        return LineKind.ASSIGNMENT
    if (
        state.prev_kind in (LineKind.VOX, LineKind.PARAM_TRACK)
        and text[0].isspace()
        and first.isidentifier()
    ):
        return LineKind.PARAM_TRACK
    if len(parts) == 1 and first.isidentifier():
        # Bare name; the prelude expects "= value" on a following line.
        return LineKind.ASSIGNMENT
    raise ScanError(
        f"cannot classify line starting with {first!r}",
        line=line_number,
        column=len(text) - len(text.lstrip()),
        source_line=raw,
    )


def scan_text(text: str) -> list[SourceLine]:
    """Scan a whole source text into classified, tokenized lines."""
    raw_lines = text.split("\n")
    if raw_lines and raw_lines[-1] == "":
        raw_lines.pop()

    state = ScannerState()
    lines: list[SourceLine] = []
    for idx, raw in enumerate(raw_lines, start=1):
        if raw.endswith("\r"):
            raw = raw[:-1]
        tab_at = raw.find("\t")
        if tab_at >= 0:
            raise ScanError(
                "TAB character (column alignment would be ambiguous; use spaces)",
                line=idx,
                column=tab_at,
                source_line=raw,
            )
        stripped = strip_comments(raw)
        kind = classify_line(stripped, state, idx, raw)
        tokens = [] if kind is LineKind.BLANK else tokenize_columns(stripped, idx, raw)
        if kind in (LineKind.ASSIGNMENT, LineKind.TABLE_CONTINUATION):
            state.paren_depth += stripped.count("(") - stripped.count(")")
            if state.paren_depth < 0:
                raise ScanError(
                    "unmatched ')'",
                    line=idx,
                    column=stripped.rfind(")"),
                    source_line=raw,
                )
        state.prev_kind = kind
        lines.append(SourceLine(idx, stripped, raw, kind, tokens))
    return lines
