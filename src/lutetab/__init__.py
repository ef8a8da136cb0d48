"""Compiler for plain-text German lute tablature.

Parses the column-aligned source format (duration lines, voice lines,
grip tables in the prelude) into a score model whose time positions are
exact integer ticks of 1/64 whole note, and emits an XML document per
PARS plus an SVG control graphic.
"""

from __future__ import annotations

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
from .svg_out import RenderConfig, render_pars
from .xml_out import emit_dtd, emit_pars

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
