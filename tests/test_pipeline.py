"""Whole-pipeline property: mutated sources compile, emit, render and
validate, or fail with a located ``CompileError`` whose excerpt is the
line it names."""

from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from lutetab import CompileError, RenderConfig, compile_source, emit_dtd, emit_pars, render_pars

import dtd_validator
import helpers

FIXTURES = Path(__file__).parent / "fixtures"
SOURCES = {
    name: (FIXTURES / f"{name}.tab").read_text(encoding="utf-8")
    for name in ("newsidler", "schlick")
}
DTD = dtd_validator.parse_dtd(emit_dtd())

_EDIT_QUOTE = SOURCES["newsidler"].index('"hardly')


def _line(text: str, number: int) -> str:
    line = text.split("\n")[number - 1]
    return line[:-1] if line.endswith("\r") else line


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(SOURCES)), helpers.MUTATIONS)
# an annotation moved one column left of its grip
@example("newsidler", [("delete", _EDIT_QUOTE - 1, " ")])
def test_mutated_sources_validate_or_fail_located(name, mutations):
    text = helpers.mutate(SOURCES[name], mutations)
    try:
        partes = compile_source(text).partes
        documents = [emit_pars(pars) for pars in partes]
        for pars in partes:
            render_pars(pars, RenderConfig())
    except CompileError as err:
        assert err.line is not None, err.message
        assert err.source_line == _line(text, err.line), err.message
        return
    for document in documents:
        assert dtd_validator.validate(document, DTD) == []
