"""Source scanner: classified, column-indexed lines and tokens.

The input format is column-sensitive: vertical alignment of token start
columns carries the meaning, so the scanner's one hard job is to preserve
exact 0-based start columns (counted in Unicode scalars). TAB characters
are rejected outright because their expansion width is ambiguous and a
silently shifted column would corrupt the score. So is every code point
that XML 1.0 cannot hold (C0 controls but TAB, LF and CR; surrogates;
U+FFFE and U+FFFF), since the text reaches the XML and SVG documents.

Each line is lexed once: ``tokenize_columns`` splits it, and
``classify_line`` decides its kind from those tokens, so a quoted token
is one token whatever it contains: an ``=`` inside quotes makes no
assignment, and a parenthesis inside quotes opens or closes no table.
``//`` starts a comment everywhere, inside quotes too. An assignment line
splits further at its first unquoted ``=``, into its name tokens, a lone
``=`` token and its value tokens, so ``x=y``, ``x =y`` and ``x = y`` give
the same tokens. In a value or a table continuation line, each unquoted
``(`` and ``)`` becomes a token of its own, and only those tokens open
and close tables. The prelude and the model read these tokens and line
kinds and work none out again.

A scanned line keeps its number, kind and tokens, not its text: an error
names a line and column, and ``errors.format_diagnostic`` shows the line.
A token is a plain ``(text, start column)`` pair; its line number is the
``SourceLine``'s, and every stage reads it from there.
"""

from __future__ import annotations

import re
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


class SourceLine(NamedTuple):
    line_number: int  # 1-based
    kind: LineKind
    tokens: list[tuple[str, int]]  # (text, 0-based scalar start column)


def strip_comments(raw_line: str) -> str:
    """Drop ``//`` and everything after it; earlier characters unchanged."""
    i = raw_line.find("//")
    return raw_line if i < 0 else raw_line[:i]


# A quoted run (to the closing quote, plus any attached suffix) or a plain
# non-whitespace run; ``\s`` matches exactly the characters ``str.isspace``
# accepts. A match opening with ``"`` but without group 1 is a quote that
# never closes.
_TOKEN_RE = re.compile(r'("[^"]*"\S*)|\S+')


def tokenize_columns(text: str, line_number: int = 0) -> list[tuple[str, int]]:
    """Split into maximal non-whitespace runs, each a ``(text, start column)`` pair.

    A token opening with a double quote runs to the closing quote and then
    swallows any directly attached suffix characters (the source format
    writes ``"..."!``), so quoted annotations with internal spaces stay one
    token. The opening quote's column is the token's column; ``line_number``
    only locates the unterminated-quote error.
    """
    # Not ``finditer``: each call of it makes a new "search" string, which
    # the interpreter's method cache may keep alive. Kept among the token
    # pairs, such strings stop the pairs' memory from being reused for the
    # output once the scanned lines are dropped.
    tokens = []
    m = _TOKEN_RE.search(text)
    while m:
        tok = m.group()
        if tok[0] == '"' and m.lastindex is None:
            raise ScanError("unterminated quote", line=line_number, column=m.start())
        tokens.append((tok, m.start()))
        m = _TOKEN_RE.search(text, m.end())
    return tokens


def _split_assignment(tokens: list[tuple[str, int]]) -> tuple[list, list]:
    """Split an assignment line at its first unquoted ``=``: name tokens and ``=``, and value.

    A bare name line holds no ``=`` and is all name.
    """
    for k, (text, column) in enumerate(tokens):
        if text[0] != '"' and "=" in text:
            name, _, value = text.partition("=")
            at = column + len(name)
            head = [*tokens[:k], (name, column)] if name else tokens[:k]
            tail = [(value, at + 1)] if value else []
            return [*head, ("=", at)], [*tail, *tokens[k + 1 :]]
    return tokens, []


_PARENS = re.compile("([()])")


def _split_parens(tokens: list[tuple[str, int]], depth: int, line_number: int) -> tuple[list, int]:
    """Split each ``(`` and ``)`` off as a token; return the tokens and the depth after them.

    A token that opens with a quote is text, parentheses included. ``depth``
    counts the groups open before ``tokens``; a ``)`` taking it below zero
    is an error.
    """
    split = []
    for text, column in tokens:
        if text[0] == '"' or ("(" not in text and ")" not in text):
            split.append((text, column))
            continue
        for piece in _PARENS.split(text):
            if piece == "(":
                depth += 1
            elif piece == ")":
                depth -= 1
                if depth < 0:
                    raise ScanError("unmatched ')'", line=line_number, column=column)
            if piece:
                split.append((piece, column))
                column += len(piece)
    return split, depth


def classify_line(
    tokens: list[tuple[str, int]], paren_depth: int, prev_kind: LineKind, line_number: int
) -> LineKind:
    """Decide a line's kind from its tokens, the open parenthesis depth and the previous kind.

    Open parenthesis groups turn any line into a table continuation;
    otherwise ``PARS``, ``T`` or ``VOX`` as the first token decides; an
    unquoted ``=`` in any token makes an assignment; a lone identifier
    starts an assignment whose ``= value`` follows on the next line; an
    indented identifier line directly below a voice line is a parameter
    track.
    """
    if not tokens:
        return LineKind.BLANK
    if paren_depth > 0:
        return LineKind.TABLE_CONTINUATION
    first, column = tokens[0]
    if first == "PARS":
        return LineKind.PARS_HEADER
    if first == "T":
        return LineKind.TEMPUS
    if first == "VOX":
        return LineKind.VOX
    if any(text[0] != '"' and "=" in text for text, _ in tokens):
        return LineKind.ASSIGNMENT
    if first.isidentifier():
        if prev_kind in (LineKind.VOX, LineKind.PARAM_TRACK) and column > 0:
            return LineKind.PARAM_TRACK
        if len(tokens) == 1:
            # Bare name; the prelude expects "= value" on a following line.
            return LineKind.ASSIGNMENT
    raise ScanError(
        f"cannot classify line starting with {first!r}", line=line_number, column=column
    )


# Code points outside XML 1.0's ``Char`` production, which no emitted
# document may hold; TAB is legal XML but has its own refusal below.
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def scan_text(text: str) -> list[SourceLine]:
    """Scan a whole source text into classified, tokenized lines."""
    raw_lines = text.split("\n")
    if raw_lines and raw_lines[-1] == "":
        raw_lines.pop()
    # One search over the whole text; its line is worked out only on a hit.
    bad = _NOT_XML_CHAR.search(text)
    bad_line = text.count("\n", 0, bad.start()) + 1 if bad else 0

    paren_depth = 0
    kind = LineKind.BLANK
    lines: list[SourceLine] = []
    for idx, raw in enumerate(raw_lines, start=1):
        if raw.endswith("\r"):
            raw = raw[:-1]
        if idx == bad_line:
            raise ScanError(
                f"character U+{ord(bad.group()):04X} cannot appear in an XML document",
                line=idx,
                column=bad.start() - text.rfind("\n", 0, bad.start()) - 1,
            )
        tab_at = raw.find("\t")
        if tab_at >= 0:
            raise ScanError(
                "TAB character (column alignment would be ambiguous; use spaces)",
                line=idx,
                column=tab_at,
            )
        tokens = tokenize_columns(strip_comments(raw), idx)
        kind = classify_line(tokens, paren_depth, kind, idx)
        if kind is LineKind.ASSIGNMENT:
            name, value = _split_assignment(tokens)
            value, paren_depth = _split_parens(value, paren_depth, idx)
            tokens = name + value
        elif kind is LineKind.TABLE_CONTINUATION:
            tokens, paren_depth = _split_parens(tokens, paren_depth, idx)
        lines.append(SourceLine(idx, kind, tokens))
    return lines
