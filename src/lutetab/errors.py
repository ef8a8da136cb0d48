"""Error types shared by all compiler stages, plus diagnostic rendering.

Every error that stems from the user's source text carries a location
only: a 1-based line number and, when it names one, a 0-based column.
Column numbers are shown 1-based in rendered diagnostics.

The excerpt has one owner: ``format_diagnostic`` takes the source text and
shows the line an error names, with a caret under its column. No stage
keeps or threads line text for a diagnostic.

Diagnostics are safe to print to a terminal: ``visible`` shows each control
character in them as one printable scalar, so the caret stays in place.
"""

import re


class CompileError(Exception):
    """Base class for everything the compiler can reject."""

    def __init__(
        self,
        message: str,
        *,
        line: int | None = None,
        column: int | None = None,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column


class ScanError(CompileError):
    """Malformed raw input: tabs, unterminated quotes, unclassifiable lines."""


class ParseError(CompileError):
    """A token or line violates the syntax of its construct."""


class ModelError(CompileError):
    """The parsed pieces do not form a valid score model."""


class EmitError(CompileError):
    """A model value cannot be represented in the output format."""


def visible(text: str) -> str:
    """``text`` with each C0 control and DEL as its Control Pictures glyph, and
    each C1 control and surrogate as U+FFFD: one scalar for one."""
    return re.sub(r"[\x00-\x1f\x7f-\x9f\ud800-\udfff]", _picture, text)


def _picture(match: re.Match) -> str:
    code = ord(match.group())
    return chr(0x2400 + code) if code < 0x20 else "\u2421" if code == 0x7F else "\ufffd"


def format_diagnostic(err: CompileError, path: str, text: str) -> str:
    """Render a gcc-style ``path:line:col: error: ...`` message, through ``visible``.

    When ``err.line`` is a line of ``text``, appends that line, one trailing
    ``\\r`` stripped as ``scanner.scan_text`` strips it, and a caret under
    the offending column when the error names one.
    """
    loc = path
    parts = []
    if err.line is not None:
        loc += f":{err.line}"
        if err.column is not None:
            loc += f":{err.column + 1}"
        lines = text.split("\n", err.line)
        if 0 < err.line <= len(lines):
            source = lines[err.line - 1]
            parts.append("  " + (source[:-1] if source.endswith("\r") else source))
            if err.column is not None:
                parts.append("  " + " " * err.column + "^")
    return "\n".join(map(visible, [f"{loc}: error: {err.message}", *parts]))
