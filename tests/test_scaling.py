"""Every stage grows linearly with the source: counted, not timed.

Each shape is laid out at n and 2n, and ``helpers.stage_costs`` takes
the events and the ``tracemalloc`` data peak of ``scan_text``,
``build_score``, ``emit_pars`` and ``render_pars`` on it; the helper's
docstrings hold the measuring rules. The events are every Python call,
generator resumption included, every call into C and every line, so the
turns of a Python loop that calls nothing count too. Both figures are
deterministic, so a slow or busy host cannot make the test flaky, and a
stage that scales linearly at most about doubles its count when its
input doubles. ``format_diagnostic`` is counted the same way, for an
error on the last line of a long file.

A known blind spot: quadratic work done inside one C call per element
counts once per element. For example ``text.count("\\n", 0, pos)`` once per
line, ``list.insert(0, ...)``, ``columns = columns + new`` once per system,
or a tuple that grows by concatenation once per track line. Counts cannot
see these; only timings can. The data peak sees memory that grows
quadratically, as a copy of a growing list kept once per system would,
whatever the number of calls that made it."""

import functools
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lutetab import compile_source
from lutetab.errors import CompileError, format_diagnostic

from helpers import STAGES, Cost, count_events, lay, stage_costs

HEAD = "t = ( (1 a b c) )\nPARS p\nbünde = t\n"
STEP = 4  # columns between duration symbols, room for a quoted "x" and a space


def _system(n: int, tracks: list[list[int]], stems: list[str] | None = None) -> str:
    """One system of ``n`` stems (``stems``, or each ``I``), one voice with a
    grip under each, and one ``edit`` track line per entry of ``tracks``,
    annotating those grips."""
    cols = [10 + STEP * k for k in range(n)]
    stems = stems or ["I"] * n
    lines = [lay("T", list(zip(cols, stems))), lay("VOX v", [(c, "a") for c in cols])]
    lines += [lay("    edit", [(cols[k], '"x"') for k in track]) for track in tracks]
    return "\n".join(lines) + "\n"


# Each shape returns its source, its number of columns and its number of warnings.


def wide_system(n: int) -> tuple[str, int, int]:
    return HEAD + _system(n, [list(range(n))]), n, 0


def _beam_group(size: int) -> list[str]:
    return ["E_"] + ["E"] * (size - 2) + ["_E"]


def wide_beamed_system(n: int) -> tuple[str, int, int]:
    """One system of ``n`` stems, ``n`` a multiple of 8: beam groups of 4 over
    the first half, one beam group over the second."""
    stems = [stem for _ in range(n // 8) for stem in _beam_group(4)] + _beam_group(n // 2)
    return HEAD + _system(n, [list(range(n))], stems), n, 0


def many_systems(n: int) -> tuple[str, int, int]:
    return HEAD + _system(1, [[0]]) * n, n, 0


def many_tracks(n: int) -> tuple[str, int, int]:
    return HEAD + _system(n, [[k] for k in range(n)]), n, 0


def many_partes(n: int) -> tuple[str, int, int]:
    """``n`` PARS, each selecting a table of its own defined inside it."""
    return "".join(
        f"PARS p{k}\nt{k} = ( (1 a b c) )\nbünde = t{k}\n" + _system(1, [[0]]) for k in range(n)
    ), n, 0


def many_unknown_parameters(n: int) -> tuple[str, int, int]:
    """``n`` assignments to parameters lutetab does not know, each a warning."""
    return HEAD + "".join(f"u{k} = 1\n" for k in range(n)) + _system(1, [[0]]), 1, n


SHAPES = [
    (wide_system, 300),
    (wide_beamed_system, 200),
    (many_systems, 300),
    (many_tracks, 100),
    (many_partes, 100),
    (many_unknown_parameters, 200),
]


@functools.cache
def _costs(shape, size: int) -> tuple[int, dict[str, Cost]]:
    """The source's length and each stage's cost on ``shape`` laid out at ``size``."""
    text, columns, warnings = shape(size)
    score = compile_source(text)
    assert sum(len(pars.columns) for pars in score.partes) == columns
    assert len(score.warnings) == warnings
    assert all(col.sona[0].annotations for pars in score.partes for col in pars.columns)
    return len(text), stage_costs(text)


def _ratios(shape, n: int, figure: str) -> tuple[float, dict[str, float]]:
    """How much the source and each stage's ``figure`` grow from ``n`` to ``2n``."""
    (length_n, costs_n), (length_2n, costs_2n) = _costs(shape, n), _costs(shape, 2 * n)
    return length_2n / length_n, {
        stage: getattr(costs_2n[stage], figure) / getattr(costs_n[stage], figure)
        for stage in STAGES
    }


@pytest.mark.parametrize("shape,n", SHAPES)
def test_scan_and_build_work_at_most_doubles_when_the_source_doubles(shape, n):
    _, ratios = _ratios(shape, n, "events")
    assert ratios["scan_text"] <= 2.2, ratios
    assert ratios["build_score"] <= 2.2, ratios


@pytest.mark.parametrize("shape,n", SHAPES)
def test_emit_and_render_work_at_most_doubles_when_the_source_doubles(shape, n):
    _, ratios = _ratios(shape, n, "events")
    assert ratios["emit_pars"] <= 2.2, ratios
    assert ratios["render_pars"] <= 2.2, ratios


@pytest.mark.parametrize("shape,n", SHAPES)
def test_each_stage_data_peak_grows_linearly_with_the_source(shape, n):
    """Each peak grows at most 1.25 times as fast as the source text (2.5x when it
    doubles; ``many_tracks``' text grows about 3.8x). Linear code reads up to 1.043
    here on CPython 3.11 to 3.13: ints below 257 are cached, not allocated, and
    lists and dicts grow in steps. A peak that grows quadratically reads about 2."""
    growth, ratios = _ratios(shape, n, "peak_bytes")
    ratios = {stage: round(ratio / growth, 3) for stage, ratio in ratios.items()}
    assert all(ratio <= 1.25 for ratio in ratios.values()), ratios


def test_a_collector_callback_changes_no_figure():
    """hypothesis keeps a callback in ``gc.callbacks``, which every collection
    runs; one that allocates and keeps what it allocates must change no count,
    peak or held figure."""
    text, _, _ = many_systems(100)
    alone = stage_costs(text)
    kept = []

    def callback(phase, info):
        kept.append(dict(info))

    gc.callbacks.append(callback)
    try:
        beside_a_callback = stage_costs(text)
    finally:
        gc.callbacks.remove(callback)
    assert beside_a_callback == alone


_TESTS = Path(__file__).resolve().parent
_TWO_CALLS = """\
import json, sys
from helpers import stage_costs
text = sys.stdin.read()
print(json.dumps([stage_costs(text), stage_costs(text)]))
"""


def test_the_first_call_in_a_process_reads_the_figures_of_the_second():
    """A fresh process calls ``stage_costs`` twice on one text: both calls read
    the same events, peaks and held bytes, so no figure depends on whether
    something was measured earlier in the process."""
    text, _, _ = many_systems(10)
    path = os.pathsep.join(
        [str(_TESTS.parent / "src"), str(_TESTS), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    child = subprocess.run(
        [sys.executable, "-c", _TWO_CALLS], input=text, capture_output=True,
        encoding="utf-8", env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    first, second = json.loads(child.stdout)
    assert first == second


def _diagnostic_events(n: int) -> int:
    """Events of ``format_diagnostic`` for an error on the last line of ``n`` systems."""
    text = HEAD + _system(1, [[0]]) * n + "T  x\n"
    with pytest.raises(CompileError) as exc:
        compile_source(text)
    assert exc.value.line == text.count("\n")
    format_diagnostic(exc.value, "f.tab", text)  # the first call compiles visible's pattern
    count, diagnostic = count_events(lambda err: format_diagnostic(err, "f.tab", text), exc.value)
    assert diagnostic.split("\n")[1] == "  T  x"
    return count


def test_format_diagnostic_work_at_most_doubles_when_the_source_doubles():
    assert _diagnostic_events(600) / _diagnostic_events(300) <= 2.2
