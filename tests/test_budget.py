"""Each stage's exact work and data peak stay within a recorded budget.

``tests/work_budget.json`` holds, per Python minor version, per
benchmark workload and per stage, two figures:

- ``events``: the ``call``, ``c_call`` and ``line`` events that
  ``helpers.count_events`` counts while the stage runs;
- ``peak_bytes``: the stage's data peak, the most memory ``tracemalloc``
  saw held during the stage above what was held before the scan, as
  ``test_scaling.py`` measures it. So the build's peak counts the lines
  it consumes and the model it makes.

The collector is off while both are taken. Before each stage a full
collection empties CPython's free lists, whose reuse ``tracemalloc``
cannot see, so a stage's peak does not depend on what the stage before
it left there.

The stages are ``scan_text``, ``build_score``, and ``emit_pars`` and
``render_pars`` over every PARS, keeping one document at a time as the
CLI does. The corpus is the three ``perfbench/corpus.py`` workloads at
scale 0.25, seed 7, run from that file without importing its package.

Both figures are exact for one Python build, so a slow or busy host
cannot make this test flaky, and unlike the n/2n ratios of
``test_scaling.py`` they see a constant-factor rise. Each workload runs
once untraced first, so caches that fill on first use are full.

A figure above its record fails. A figure below it passes and is
printed: a change that lowers a figure records it again, so the diff
of the JSON is the change's exact cost. A Python minor version with no
record skips. To record the running version's figures, run

    PYTHONPATH=src python tests/test_budget.py
"""

from __future__ import annotations

import gc
import json
import runpy
import sys
import tracemalloc
from pathlib import Path

import pytest

from lutetab import build_score, emit_pars, render_pars, scan_text

from helpers import count_events

ROOT = Path(__file__).resolve().parent.parent
BUDGET = Path(__file__).with_name("work_budget.json")
VERSION = f"{sys.version_info.major}.{sys.version_info.minor}"
WORKLOADS = ("flat_check", "wide_beams_svg", "many_pars_write")
SEED, SCALE = 7, 0.25


def emit_all(score) -> int:
    return sum(len(emit_pars(pars)) for pars in score.partes)


def render_all(score) -> int:
    return sum(len(render_pars(pars)) for pars in score.partes)


def _measure(workload: str) -> dict[str, dict[str, int]]:
    """The events and data peak of each stage on ``workload``'s corpus."""
    generate = runpy.run_path(str(ROOT / "perfbench" / "corpus.py"))["generate"]
    text = generate(workload, SEED, ROOT, SCALE).text
    score = build_score(scan_text(text))
    emit_all(score)
    render_all(score)

    events, peaks = {}, {}

    def stage(name, run, arg):
        gc.collect()
        tracemalloc.reset_peak()
        result = run(arg)
        peaks[name] = tracemalloc.get_traced_memory()[1] - base
        return result

    # Other code keeps callbacks in ``gc.callbacks`` (hypothesis keeps one);
    # each collection would run them, and count and allocate, in the stages.
    callbacks = gc.callbacks[:]
    gc.callbacks.clear()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        events["scan_text"], lines = count_events(scan_text, text)
        events["build_score"], score = count_events(build_score, lines)
        events["emit_pars"], _ = count_events(emit_all, score)
        events["render_pars"], _ = count_events(render_all, score)
        del score
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            score = stage("build_score", build_score, stage("scan_text", scan_text, text))
            stage("emit_pars", emit_all, score)
            stage("render_pars", render_all, score)
        finally:
            tracemalloc.stop()
    finally:
        gc.callbacks[:] = callbacks
        if enabled:
            gc.enable()
    return {name: {"events": events[name], "peak_bytes": peaks[name]} for name in events}


def _record() -> dict:
    return json.loads(BUDGET.read_text(encoding="utf-8")).get(VERSION, {})


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_stage_stays_within_its_recorded_work_and_peak(workload):
    budget = _record().get(workload)
    if budget is None:
        pytest.skip(f"no work budget recorded for Python {VERSION} on {workload}")
    figures = _measure(workload)
    over = {}
    for stage, recorded in budget.items():
        for key, limit in recorded.items():
            value = figures[stage][key]
            if value > limit:
                over[f"{stage}.{key}"] = (limit, value)
            elif value < limit:
                print(f"{workload} {stage}.{key}: {value} (recorded {limit})")
    assert not over, f"above the recorded budget, (recorded, now): {over}"


if __name__ == "__main__":
    budget = json.loads(BUDGET.read_text(encoding="utf-8")) if BUDGET.exists() else {}
    budget[VERSION] = {workload: _measure(workload) for workload in WORKLOADS}
    BUDGET.write_text(json.dumps(budget, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(budget[VERSION], indent=2))
