"""Compiler for plain-text German lute tablature.

Parses the column-aligned source format (duration lines, voice lines,
grip tables in the prelude) into a score model whose time positions are
exact integer ticks of 1/64 whole note, and emits an XML document per
PARS plus an SVG control graphic.

The writers' names (``RenderConfig``, ``render_pars``, ``emit_pars``,
``emit_dtd``) load their module, ``svg_out`` or ``xml_out``, on first use.
"""

__version__ = "0.1.0"

from .errors import (
    CompileError,
    EmitError,
    ModelError,
    ParseError,
    ScanError,
    format_diagnostic,
)
from .model import Columna, ParsModel, ScoreModel, Sonum, build_score
from .scanner import scan_text

__all__ = [
    "CompileError",
    "Columna",
    "EmitError",
    "ModelError",
    "ParsModel",
    "ParseError",
    "RenderConfig",
    "ScanError",
    "ScoreModel",
    "Sonum",
    "build_score",
    "compile_source",
    "emit_dtd",
    "emit_pars",
    "format_diagnostic",
    "render_pars",
    "scan_text",
]


def compile_source(text: str) -> ScoreModel:
    """Scan and build a full score model from source text."""
    return build_score(scan_text(text))


_SVG_NAMES = ("RenderConfig", "render_pars")
_XML_NAMES = ("emit_dtd", "emit_pars")


def __getattr__(name: str):
    if name in _SVG_NAMES:
        from . import svg_out as writer
    elif name in _XML_NAMES:
        from . import xml_out as writer
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(writer, name)


def __dir__() -> list[str]:
    return [*globals(), *_SVG_NAMES, *_XML_NAMES]
