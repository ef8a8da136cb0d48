"""Error types shared by all compiler stages, plus diagnostic rendering.

Every error that stems from the user's source text carries a location
only: a 1-based line number and, when it names one, a 0-based column.
Column numbers are shown 1-based in rendered diagnostics.

The excerpt has one owner: ``format_diagnostic`` takes the source text and
shows the line an error names, with a caret under its column. No stage
keeps or threads line text for a diagnostic.
"""

from __future__ import annotations


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


def format_diagnostic(err: CompileError, path: str, text: str) -> str:
    """Render a gcc-style ``path:line:col: error: ...`` message.

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
    return "\n".join([f"{loc}: error: {err.message}", *parts])
