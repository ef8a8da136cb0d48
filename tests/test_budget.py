"""Each stage's exact work and data peak stay within a recorded budget.

``tests/work_budget.json`` holds, per Python minor version, per
benchmark workload and per stage, two figures:

- ``events``: the ``call``, ``c_call`` and ``line`` events that
  ``helpers.count_events`` counts while the stage runs;
- ``peak_bytes``: the stage's data peak above what was held before the
  scan. So the build's peak counts the lines it consumes and the model it
  makes.

Both are taken by ``helpers.stage_costs``, whose docstrings hold the
rules: the collector, the warm-up run and the writers.

The corpus is the three ``perfbench/corpus.py`` workloads at scale 0.25,
seed 7, run from that file without importing its package.

Both figures are exact for one Python build, so a slow or busy host
cannot make this test flaky, and unlike the n/2n ratios of
``test_scaling.py`` they see a constant-factor rise.

A figure above its record fails. A figure below it passes and is
printed: a change that lowers a figure records it again, so the diff
of the JSON is the change's exact cost. A Python minor version with no
record skips. To record the running version's figures, run

    PYTHONPATH=src python tests/test_budget.py
"""

import json
import runpy
import sys
from pathlib import Path

import pytest

from helpers import stage_costs

ROOT = Path(__file__).resolve().parent.parent
BUDGET = Path(__file__).with_name("work_budget.json")
VERSION = f"{sys.version_info.major}.{sys.version_info.minor}"
WORKLOADS = ("flat_check", "wide_beams_svg", "many_pars_write")
SEED, SCALE = 7, 0.25


def _figures(workload: str) -> dict[str, dict[str, int]]:
    """The recorded figures of each stage on ``workload``'s corpus."""
    generate = runpy.run_path(str(ROOT / "perfbench" / "corpus.py"))["generate"]
    costs = stage_costs(generate(workload, SEED, ROOT, SCALE).text)
    return {stage: {"events": cost.events, "peak_bytes": cost.peak_bytes}
            for stage, cost in costs.items()}


def _record() -> dict:
    return json.loads(BUDGET.read_text(encoding="utf-8")).get(VERSION, {})


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_stage_stays_within_its_recorded_work_and_peak(workload):
    budget = _record().get(workload)
    if budget is None:
        pytest.skip(f"no work budget recorded for Python {VERSION} on {workload}")
    figures = _figures(workload)
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
    budget[VERSION] = {workload: _figures(workload) for workload in WORKLOADS}
    BUDGET.write_text(json.dumps(budget, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(budget[VERSION], indent=2))
