"""Importing the CLI stays within a recorded start-up budget.

``tests/startup_budget.json`` holds, per Python minor version, two
figures of ``import lutetab.cli`` in a fresh ``python -S`` with
``PYTHONDONTWRITEBYTECODE=1`` and ``PYTHONHASHSEED=0``, so with no
``site`` module, every source compiled afresh and a fixed hash seed:

- ``modules``: the sorted names that the import adds to ``sys.modules``.
  ``gc``, which the child imports to turn the collector off, is loaded
  before it counts;
- ``events``: the ``call``, ``c_call`` and ``line`` events of the import,
  counted as ``helpers.count_events`` counts them, with the collector off.
  The child cannot use ``helpers`` itself, which imports the compiler.

The child's ``sys.path`` is the checkout's ``src`` and the interpreter's
own directories, and it inherits no ``PYTHON*`` variable, so both
figures are exact for one Python build.

A new module or more events fail. A module that is no longer loaded, or
fewer events, pass and are printed: the change that makes the fall
records it again, so the diff of the JSON is its exact effect on
start-up. A Python minor version with no record skips. To record the
figures of the running interpreter, or of the one named, run

    python tests/test_startup.py [PYTHON]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
BUDGET = Path(__file__).with_name("startup_budget.json")
VERSION = f"{sys.version_info.major}.{sys.version_info.minor}"

_CHILD = """\
import gc, sys
gc.disable()
sys.path[0] = sys.argv[1]
before = set(sys.modules)
count = 0

def profile(frame, event, _):
    global count
    if event == "call" or event == "c_call":
        count += 1

def trace(frame, event, _):
    global count
    count += event == "line"
    return trace

sys.setprofile(profile)
sys.settrace(trace)
import lutetab.cli
sys.settrace(None)
sys.setprofile(None)
modules = sorted(set(sys.modules) - before)
version = "%d.%d" % sys.version_info[:2]
import json
print(json.dumps({"version": version, "events": count, "modules": modules}))
"""


def startup_figures(python: str = sys.executable) -> dict:
    """The child's figures for ``import lutetab.cli``: version, events and modules."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    child = subprocess.run(
        [python, "-S", "-c", _CHILD, str(SRC)],
        env=env, capture_output=True, encoding="utf-8", check=True,
    )
    return json.loads(child.stdout)


def test_importing_the_cli_stays_within_its_recorded_modules_and_events():
    budget = json.loads(BUDGET.read_text(encoding="utf-8")).get(VERSION)
    if budget is None:
        pytest.skip(f"no start-up budget recorded for Python {VERSION}")
    figures = startup_figures()
    new = sorted(set(figures["modules"]) - set(budget["modules"]))
    gone = sorted(set(budget["modules"]) - set(figures["modules"]))
    if gone or figures["events"] < budget["events"]:
        print(f"no longer loaded: {gone}; events {figures['events']} (recorded {budget['events']})")
    assert not new, f"modules the recorded start-up does not load: {new}"
    assert figures["events"] <= budget["events"], (budget["events"], figures["events"])


if __name__ == "__main__":
    figures = startup_figures(*sys.argv[1:])
    budget = json.loads(BUDGET.read_text(encoding="utf-8")) if BUDGET.exists() else {}
    budget[figures.pop("version")] = figures
    BUDGET.write_text(json.dumps(budget, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(figures, indent=2))
