"""Every stage grows linearly with the source: counted, not timed.

Each shape is laid out at n and 2n, and ``scan_text``, ``build_score``,
``emit_pars`` and ``render_pars`` (the writers over every PARS) run under
``sys.setprofile``, which sees every Python call, generator resumption
included, and every call into C (``call`` and ``c_call`` events), and
under ``sys.settrace``, whose ``line`` events see the turns of a Python
loop that calls nothing. The counts are deterministic, so a
slow or busy host cannot make the test flaky, and a stage that scales
linearly at most about doubles its count when its input doubles.
``format_diagnostic`` is counted the same way, for an error on the last
line of a long file.

A known blind spot: quadratic work done inside one C call per element
counts once per element. For example ``text.count("\\n", 0, pos)`` once per
line, ``list.insert(0, ...)``, ``columns = columns + new`` once per system,
or a tuple that grows by concatenation once per track line. Counts cannot
see these; only timings can.

Each stage's ``tracemalloc`` data peak is checked against the growth of
the source text too, with the collector off, so it is deterministic. It
sees memory that grows quadratically, as a copy of a growing list kept
once per system would, whatever the number of calls that made it."""

import functools
import gc
import sys
import tracemalloc

import pytest

from lutetab import build_score, compile_source, emit_pars, render_pars, scan_text
from lutetab.errors import CompileError, format_diagnostic

from helpers import lay

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


def emit_all(score) -> list[str]:
    return [emit_pars(pars) for pars in score.partes]


def render_all(score) -> list[str]:
    return [render_pars(pars) for pars in score.partes]


def _events(stage, arg) -> tuple[int, object]:
    """Run ``stage(arg)``; count its calls, into Python and into C, and its Python lines."""
    count = 0

    def profile(frame, event, _):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    def trace(frame, event, _):
        nonlocal count
        count += event == "line"
        return trace

    sys.setprofile(profile)
    sys.settrace(trace)
    try:
        result = stage(arg)
    finally:
        sys.settrace(None)
        sys.setprofile(None)
    return count, result


SHAPES = [
    (wide_system, 300),
    (wide_beamed_system, 200),
    (many_systems, 300),
    (many_tracks, 100),
    (many_partes, 100),
    (many_unknown_parameters, 200),
]


@functools.cache
def _stage_events(shape, size: int) -> tuple[int, int, int, int]:
    """Events of scan, build, emit and render on ``shape`` laid out at ``size``."""
    text, columns, warnings = shape(size)
    scan_events, lines = _events(scan_text, text)
    build_events, score = _events(build_score, lines)
    assert sum(len(pars.columns) for pars in score.partes) == columns
    assert len(score.warnings) == warnings
    assert all(col.sona[0].annotations for pars in score.partes for col in pars.columns)
    emit_events, _ = _events(emit_all, score)
    render_events, _ = _events(render_all, score)
    return scan_events, build_events, emit_events, render_events


def _ratios(shape, n: int) -> dict[str, float]:
    stages = ("scan", "build", "emit", "render")
    events_n, events_2n = _stage_events(shape, n), _stage_events(shape, 2 * n)
    return {stage: b / a for stage, a, b in zip(stages, events_n, events_2n)}


@pytest.mark.parametrize("shape,n", SHAPES)
def test_scan_and_build_work_at_most_doubles_when_the_source_doubles(shape, n):
    ratios = _ratios(shape, n)
    assert ratios["scan"] <= 2.2, ratios
    assert ratios["build"] <= 2.2, ratios


@pytest.mark.parametrize("shape,n", SHAPES)
def test_emit_and_render_work_at_most_doubles_when_the_source_doubles(shape, n):
    ratios = _ratios(shape, n)
    assert ratios["emit"] <= 2.2, ratios
    assert ratios["render"] <= 2.2, ratios


@functools.cache
def _stage_peaks(shape, size: int) -> tuple[int, list[int]]:
    """The source's length, and the data peaks of scan, build, emit and render on
    ``shape`` laid out at ``size``: the most memory ``tracemalloc`` saw held during
    each stage, above what was held before the scan, in bytes."""
    text, _, _ = shape(size)
    peaks = []

    def stage(run, arg):
        tracemalloc.reset_peak()
        result = run(arg)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return result

    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        score = stage(build_score, stage(scan_text, text))
        stage(emit_all, score)
        stage(render_all, score)
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    return len(text), peaks


@pytest.mark.parametrize("shape,n", SHAPES)
def test_each_stage_data_peak_grows_linearly_with_the_source(shape, n):
    """Each peak grows at most 1.25 times as fast as the source text (2.5x when it
    doubles; ``many_tracks``' text grows about 3.8x). Linear code reads up to about
    1.16 here on CPython 3.10 to 3.13: ints below 257 are cached, not allocated, and
    lists and dicts grow in steps. A peak that grows quadratically reads about 2."""
    length_n, peaks_n = _stage_peaks(shape, n)
    length_2n, peaks_2n = _stage_peaks(shape, 2 * n)
    growth = length_2n / length_n
    ratios = {stage: round(b / a / growth, 3)
              for stage, a, b in zip(("scan", "build", "emit", "render"), peaks_n, peaks_2n)}
    assert all(ratio <= 1.25 for ratio in ratios.values()), ratios


def _diagnostic_events(n: int) -> int:
    """Events of ``format_diagnostic`` for an error on the last line of ``n`` systems."""
    text = HEAD + _system(1, [[0]]) * n + "T  x\n"
    with pytest.raises(CompileError) as exc:
        compile_source(text)
    assert exc.value.line == text.count("\n")
    format_diagnostic(exc.value, "f.tab", text)  # the first call compiles visible's pattern
    count, diagnostic = _events(lambda err: format_diagnostic(err, "f.tab", text), exc.value)
    assert diagnostic.split("\n")[1] == "  T  x"
    return count


def test_format_diagnostic_work_at_most_doubles_when_the_source_doubles():
    assert _diagnostic_events(600) / _diagnostic_events(300) <= 2.2
