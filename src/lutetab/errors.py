"""Error types shared by all compiler stages, plus diagnostic rendering.

Every error that stems from the user's source text carries a 1-based line
number, a 0-based column and the offending line, so the CLI can print a
caret excerpt. Column numbers are shown 1-based in rendered diagnostics.

The excerpt has two owners. The scanner, which holds the raw text, sets
``source_line`` when it raises. The later stages raise errors located by
line and column only, and ``model.build_score`` fills in the raw text of
the line such an error names.
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
        source_line: str | None = None,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column
        self.source_line = source_line


class ScanError(CompileError):
    """Malformed raw input: tabs, unterminated quotes, unclassifiable lines."""


class ParseError(CompileError):
    """A token or line violates the syntax of its construct."""


class ModelError(CompileError):
    """The parsed pieces do not form a valid score model."""


class EmitError(CompileError):
    """A model value cannot be represented in the output format."""


def format_diagnostic(err: CompileError, path: str) -> str:
    """Render a gcc-style ``path:line:col: error: ...`` message.

    Appends the source line and a caret marking the offending column when
    the error carries them.
    """
    loc = path
    if err.line is not None:
        loc += f":{err.line}"
        if err.column is not None:
            loc += f":{err.column + 1}"
    parts = [f"{loc}: error: {err.message}"]
    if err.source_line is not None:
        parts.append("  " + err.source_line)
        if err.column is not None:
            parts.append("  " + " " * err.column + "^")
    return "\n".join(parts)
