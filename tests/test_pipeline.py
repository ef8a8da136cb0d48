"""Whole-pipeline property: mutated sources compile, emit, render and
validate, or fail with a located ``CompileError`` whose excerpt is the
line it names."""

from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from lutetab import CompileError, RenderConfig, compile_source, emit_dtd, emit_pars, render_pars

import dtd_validator

FIXTURES = Path(__file__).parent / "fixtures"
SOURCES = {
    name: (FIXTURES / f"{name}.tab").read_text(encoding="utf-8")
    for name in ("newsidler", "schlick")
}
DTD = dtd_validator.parse_dtd(emit_dtd())

# The format's alphabet: duration and structure characters, grip letters,
# digits, line breaks and the two line openers.
_PIECES = (
    list('ITFE._-+"()= ')
    + list("abcdefghiklmnopqrstvxyz&C")
    + list("0123456789")
    + ["\n", "\r\n", "VOX ", "T "]
)
_EDIT_QUOTE = SOURCES["newsidler"].index('"hardly')

_mutation = st.tuples(
    st.sampled_from(("insert", "delete", "replace")),
    st.integers(min_value=0, max_value=2000),
    st.sampled_from(_PIECES),
)


def _mutate(text: str, mutations) -> str:
    for op, at, piece in mutations:
        at %= len(text) + 1
        if op == "insert":
            text = text[:at] + piece + text[at:]
        elif op == "delete":
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + piece + text[at + 1 :]
    return text


def _line(text: str, number: int) -> str:
    line = text.split("\n")[number - 1]
    return line[:-1] if line.endswith("\r") else line


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(SOURCES)), st.lists(_mutation, min_size=1, max_size=4))
# an annotation moved one column left of its grip
@example("newsidler", [("delete", _EDIT_QUOTE - 1, " ")])
def test_mutated_sources_validate_or_fail_located(name, mutations):
    text = _mutate(SOURCES[name], mutations)
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
