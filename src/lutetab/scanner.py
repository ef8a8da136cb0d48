"""Source scanner: classified, column-indexed lines and tokens.

The input format is column-sensitive: vertical alignment of token start
columns carries the meaning, so the scanner's one hard job is to preserve
exact 0-based start columns (counted in Unicode scalars). TAB characters
are rejected outright because their expansion width is ambiguous and a
silently shifted column would corrupt the score. So is a CR anywhere but
at the end of a line, which many editors show as a line break (the CLI
reads its input with universal newlines, so there it is one). So is
every code point that XML 1.0 cannot hold (C0 controls but TAB, LF and
CR; surrogates; U+FFFE and U+FFFF), since the text reaches the XML and
SVG documents.

Each line is lexed once, by ``tokenize_columns``, and one call of
``classify_line`` finishes it from those tokens: its kind and its final
tokens. A line with no ``"`` that encodes as Latin-1, which every T and
VOX line of a usual source is, takes its texts from ``str.split()`` and
its columns from a byte mask of its spaces, both in C; every other line
is split by one ``re.split``, which makes no ``Match`` object per token.
Both split at exactly the characters ``str.isspace`` accepts, so both
give the same tokens and columns wherever both apply. A quoted token,
which only the ``re.split`` meets, is one token whatever it contains: an
``=`` inside quotes makes no assignment, and a parenthesis inside quotes
opens or closes no table. ``//`` starts a comment everywhere, inside quotes
too. An assignment line splits further at its first unquoted ``=``,
found once, into its name tokens, a lone ``=`` token and its value
tokens, so ``x=y``, ``x =y`` and ``x = y`` give the same tokens. In a
value or a table continuation line, each unquoted ``(`` and ``)``
becomes a token of its own, and only those tokens open and close
tables. The prelude and the model read these tokens and line kinds and
work none out again.

``scan_text`` returns no blank or comment-only line. Such a line only
ends a run of voice and track lines: an indented line below it is no
track.

A scanned line keeps its number, kind and tokens, not its text: an error
names a line and column, and ``errors.format_diagnostic`` shows the line.
Its tokens are two parallel lists, ``tokens`` of the texts and
``columns`` of their 0-based start columns; its line number is the
``SourceLine``'s, and every stage reads it from there. Within one scan,
``tokenize_columns`` gives one string per distinct token text, so the
lines of a source of repeated grips in aligned columns hold each text
only once; only the texts that an assignment line or a table line splits
further are new.
"""

import re
from collections import namedtuple
from enum import Enum
from itertools import accumulate, repeat
from operator import add

from .errors import ScanError


class LineKind(Enum):
    BLANK = "blank"
    ASSIGNMENT = "assignment"
    TABLE_CONTINUATION = "tableContinuation"
    PARS_HEADER = "parsHeader"
    TEMPUS = "tempusLine"
    VOX = "voxLine"
    PARAM_TRACK = "paramTrackLine"


SourceLine = namedtuple("SourceLine", [
    "line_number",  # 1-based
    "kind",  # a LineKind
    "tokens",  # [token text]
    "columns",  # [0-based scalar start column], one per token
])


def strip_comments(raw_line: str) -> str:
    """Drop ``//`` and everything after it; earlier characters unchanged."""
    i = raw_line.find("//")
    return raw_line if i < 0 else raw_line[:i]


# The separators and the tokens of a line, alternately: a token is a quoted
# run (to the closing quote, plus any attached suffix) or a plain
# non-whitespace run; ``\s`` matches exactly the characters ``str.isspace``
# accepts. A token that opens with ``"`` and holds no second one is a quote
# that never closes.
_SPLIT = re.compile(r'("[^"]*"\S*|\S+)')
# Per byte of a Latin-1 text: 0 where ``str.isspace`` accepts its character
# (TAB to CR, U+001C to U+001F, SPACE, NEL U+0085 and NO-BREAK SPACE U+00A0),
# 1 elsewhere. A constant expression, which the compiler folds: no import work.
_MASK = (b"\1" * 9 + b"\0" * 5 + b"\1" * 14 + b"\0" * 5 + b"\1" * 100 + b"\0" + b"\1" * 26
         + b"\0" + b"\1" * 95)


def tokenize_columns(
    text: str, line_number: int = 0, shared: dict | None = None
) -> tuple[list[str], list[int]]:
    """Split into maximal non-whitespace runs: their texts and their start columns.

    A token opening with a double quote runs to the closing quote and then
    swallows any directly attached suffix characters (the source format
    writes ``"..."!``), so quoted annotations with internal spaces stay one
    token. The opening quote's column is the token's column; ``line_number``
    only locates the unterminated-quote error.

    ``shared`` maps each token text met so far to its first copy, so the
    calls that pass one dict give one string for equal texts.

    A line with no quote that encodes as Latin-1 skips the ``re.split``:
    ``str.split()`` gives its texts, and its columns come from the encoded
    line translated through ``_MASK``, 0 for a space, 1 for any other
    character. With a 0 put in front, each ``0 1`` step marks the start of
    one ``str.split()`` text, its 0 standing at that text's column: both
    split at the characters ``str.isspace`` accepts, and in Latin-1 one
    byte is one character, so the columns stay exact. Splitting at the
    steps leaves pieces whose lengths, with 2 for each step, sum to the
    columns.
    """
    if shared is None:
        shared = {}
    if '"' not in text:
        try:
            steps = (b"\0" + text.encode("latin-1").translate(_MASK)).split(b"\0\1")
        except UnicodeEncodeError:
            pass
        else:
            texts = text.split()
            n = len(texts)
            columns = [0] * n  # filled in place, so that it holds exactly n slots
            # Token k starts after the pieces up to k and the k steps between them.
            columns[:] = map(add, accumulate(map(len, steps)), range(0, 2 * n, 2))
            return list(map(shared.setdefault, texts, texts)), columns
    parts = _SPLIT.split(text)  # separator, token, separator, ..., separator
    texts = parts[1::2]
    tokens = list(map(shared.setdefault, texts, texts))
    # Token k's start is the length of the parts before it, parts[2k + 1].
    columns = list(accumulate(map(len, parts)))[:-1:2]
    if '"' in text:
        for tok, column in zip(tokens, columns):
            if tok[0] == '"' and tok.find('"', 1) < 0:
                raise ScanError("unterminated quote", line=line_number, column=column)
    return tokens, columns


def _first_equals(tokens: list[str]) -> int:
    """The index of the first token holding an unquoted ``=``, or -1."""
    return next((k for k, text in enumerate(tokens) if text[0] != '"' and "=" in text), -1)


_PARENS = re.compile("([()])")


def _split_parens(
    tokens: list[str], columns: list[int], depth: int, line_number: int
) -> tuple[list[str], list[int], int]:
    """Split each ``(`` and ``)`` off as a token; return the tokens, their
    columns and the depth after them.

    A token that opens with a quote is text, parentheses included. ``depth``
    counts the groups open before ``tokens``; a ``)`` taking it below zero
    is an error.
    """
    split: list[str] = []
    at: list[int] = []
    for text, column in zip(tokens, columns):
        if text[0] == '"' or ("(" not in text and ")" not in text):
            split.append(text)
            at.append(column)
        else:
            for piece in filter(None, _PARENS.split(text)):  # each "(", ")" and run between
                if piece == "(":
                    depth += 1
                elif piece == ")":
                    depth -= 1
                    if depth < 0:
                        raise ScanError("unmatched ')'", line=line_number, column=column)
                split.append(piece)
                at.append(column)
                column += len(piece)
    return split, at, depth


def classify_line(
    tokens: list[str], columns: list[int], paren_depth: int, prev_kind: LineKind,
    line_number: int,
) -> tuple[LineKind, list[str], list[int], int]:
    """Finish one line: its kind, its final tokens and their columns, and the
    parenthesis depth after it.

    ``prev_kind`` is the kind of the line above, a blank one included. A
    line with no tokens is ``BLANK``. Open parenthesis groups turn any
    other line into a table continuation; otherwise ``PARS``, ``T`` or
    ``VOX`` as the first token decides. An indented identifier line
    directly below a voice or track line is a parameter track, unless its
    first unquoted ``=`` stands in its first token or opens its second
    (``name = value``, ``name=value``): that makes an assignment, and a
    later ``=`` is part of the track's payload. Elsewhere an unquoted
    ``=`` in any token makes an assignment, and a lone identifier starts
    one whose ``= value`` follows on the next line that has tokens.
    An assignment is split where that ``=`` stands, and the parentheses
    of its value or of a table continuation line are split off.
    """
    if not tokens:
        return LineKind.BLANK, tokens, columns, paren_depth
    if paren_depth > 0:
        return LineKind.TABLE_CONTINUATION, *_split_parens(tokens, columns, paren_depth, line_number)
    first, column = tokens[0], columns[0]
    if first == "PARS":
        return LineKind.PARS_HEADER, tokens, columns, 0
    if first == "T":
        return LineKind.TEMPUS, tokens, columns, 0
    if first == "VOX":
        return LineKind.VOX, tokens, columns, 0
    track = (
        column > 0 and prev_kind in (LineKind.VOX, LineKind.PARAM_TRACK) and first.isidentifier()
    )
    k = _first_equals(tokens)
    if k >= 0 and (not track or k == 0 or (k == 1 and tokens[1][0] == "=")):
        name, _, value = tokens[k].partition("=")
        column = columns[k]
        at = column + len(name)
        head, head_at = ([name, "="], [column, at]) if name else (["="], [at])
        rest, rest_at, depth = _split_parens(
            [value, *tokens[k + 1 :]] if value else tokens[k + 1 :],
            [at + 1, *columns[k + 1 :]] if value else columns[k + 1 :], 0, line_number,
        )
        return LineKind.ASSIGNMENT, tokens[:k] + head + rest, columns[:k] + head_at + rest_at, depth
    if track:
        return LineKind.PARAM_TRACK, tokens, columns, 0
    if len(tokens) == 1 and first.isidentifier():
        # Bare name; the prelude expects "= value" on a following line.
        return LineKind.ASSIGNMENT, tokens, columns, 0
    raise ScanError(
        f"cannot classify line starting with {first!r}", line=line_number, column=column
    )


# The characters a source may not hold: the code points outside XML 1.0's
# ``Char`` production, which no emitted document may hold, TAB, and a CR that
# ends no line. The class reaches past U+00FF, so compiling it builds a large
# charset: ``re`` compiles it, and caches it, only for a text that holds a
# refused character.
_REFUSED = "[\x00-\x08\t\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]|\r(?!\n|\\Z)"
_C0_REFUSED = bytes(range(0x20)).translate(None, b"\n\r")
_REFUSAL = {
    "\t": "TAB character (column alignment would be ambiguous; use spaces)",
    "\r": "CR character not at the end of a line (editors may show a line break)",
}


def _first_refused_char(text: str) -> re.Match | None:
    """The leftmost character of ``text`` that a source may not hold, if any.

    Four cheap tests clear a text first: UTF-8 encoding refuses a
    surrogate, ``in`` finds U+FFFE and U+FFFF, deleting the C0 controls
    from the encoded text shortens it only if it holds one, and every CR
    ends a line if each stands before an LF or at the text's end.
    """
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError:
        pass
    else:
        if (
            "\ufffe" not in text and "\uffff" not in text
            and len(data.translate(None, _C0_REFUSED)) == len(data)
            and text.count("\r") == text.count("\r\n") + text.endswith("\r")
        ):
            return None
    return re.search(_REFUSED, text)


def scan_text(text: str) -> list[SourceLine]:
    """Scan a whole source text into classified, tokenized lines, blank ones left out.

    A line that holds no token, blank or comment-only, is not returned.
    One dict for the call shares equal token texts across lines (see
    ``tokenize_columns``), and each raw line is dropped once it is
    scanned. ``model.build_score`` empties the list it builds from, so to
    build twice, scan twice.
    """
    raw_lines = text.split("\n")
    if raw_lines and raw_lines[-1] == "":
        raw_lines.pop()
    # Last line first, so that each line leaves the list as it is read (the
    # pops run in C, in the loop's ``map``): the raw lines and the tokens
    # made of them are never both held whole.
    raw_lines.reverse()
    # One test of the whole text; its line is worked out only on a hit.
    bad = _first_refused_char(text)
    bad_line = text.count("\n", 0, bad.start()) + 1 if bad else 0

    depth = 0  # the parenthesis groups open
    kind = LineKind.BLANK
    shared: dict[str, str] = {}  # one string per token text
    lines: list[SourceLine] = []
    for idx, raw in enumerate(map(raw_lines.pop, repeat(-1, len(raw_lines))), start=1):
        if raw.endswith("\r"):
            raw = raw[:-1]
        if idx == bad_line:
            char = bad.group()
            raise ScanError(
                _REFUSAL.get(char, f"character U+{ord(char):04X} cannot appear in an XML document"),
                line=idx,
                column=bad.start() - text.rfind("\n", 0, bad.start()) - 1,
            )
        tokens, columns = tokenize_columns(strip_comments(raw), idx, shared)
        kind, tokens, columns, depth = classify_line(tokens, columns, depth, kind, idx)
        if tokens:
            lines.append(SourceLine(idx, kind, tokens, columns))
    return lines
