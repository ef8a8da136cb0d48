"""The benchmark's oracle, run in process on the three budget corpora.

``perfbench/corpus.py`` knows the attributes of every element it expects
in each PARS's XML, and the beam lines and texts of its SVG;
``perfbench/oracle.py`` compares output texts with them. Both are loaded
by path, as ``test_budget.py`` loads the corpus, on the corpora that test
weighs: scale 0.25, seed 7. Their quoted annotations take the
``re.split`` of ``scanner.tokenize_columns`` and every other line its byte
mask, ``bünde`` lines included, so both ways run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from lutetab import compile_source, emit_dtd, emit_pars, render_pars

import dtd_validator

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("flat_check", "wide_beams_svg", "many_pars_write")
SEED, SCALE = 7, 0.25


def _load(name: str, monkeypatch):
    """``perfbench/<name>.py``, imported as ``name`` for this test alone:
    ``oracle`` imports ``corpus`` by that name, and a dataclass looks its
    module up in ``sys.modules``."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_pars_of_a_budget_corpus_is_written_as_the_oracle_expects(workload, monkeypatch):
    corpus = _load("corpus", monkeypatch).generate(workload, SEED, ROOT, SCALE)
    oracle = _load("oracle", monkeypatch)
    partes = compile_source(corpus.text).partes
    assert [pars.name for pars in partes] == [expected.name for expected in corpus.partes]
    dtd = dtd_validator.parse_dtd(emit_dtd())
    problems = []
    for pars, expected in zip(partes, corpus.partes):
        problems += oracle.check_xml(emit_pars(pars), expected, dtd, dtd_validator)
        problems += oracle.check_svg(render_pars(pars), expected)
    assert problems == []
