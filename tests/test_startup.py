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

The same kind of child also shows which writer modules a run loads: each
is loaded only by a run that writes its output.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "newsidler.tab"
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


def _run_child(python: str, code: str, *args: str, cwd=None) -> str:
    """Run ``code`` in a fresh ``python -S`` with ``argv[1:]`` = ``SRC, *args``; return stdout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    child = subprocess.run(
        [python, "-S", "-c", code, str(SRC), *args],
        env=env, cwd=cwd, capture_output=True, encoding="utf-8", check=True,
    )
    return child.stdout


def startup_figures(python: str = sys.executable) -> dict:
    """The child's figures for ``import lutetab.cli``: version, events and modules."""
    return json.loads(_run_child(python, _CHILD))


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


_WRITERS_LOADED = """\
import sys
sys.path[0] = sys.argv[1]
import lutetab
if len(sys.argv) > 2:
    import lutetab.cli
    assert lutetab.cli.main(sys.argv[2:]) == 0
print(*sorted({"lutetab.svg_out", "lutetab.xml_out"} & set(sys.modules)))
"""


@pytest.mark.parametrize(
    "flags,loaded",
    [
        (None, []),
        (["--check"], []),
        (["--xml", "out"], ["lutetab.xml_out"]),
        (["--dtd"], ["lutetab.xml_out"]),
        (["--svg", "out"], ["lutetab.svg_out"]),
    ],
)
def test_a_run_loads_only_the_writers_its_flags_ask_for(tmp_path, flags, loaded):
    args = [] if flags is None else [str(FIXTURE), *flags]
    stdout = _run_child(sys.executable, _WRITERS_LOADED, *args, cwd=tmp_path)
    assert stdout.split() == loaded


if __name__ == "__main__":
    figures = startup_figures(*sys.argv[1:])
    budget = json.loads(BUDGET.read_text(encoding="utf-8")) if BUDGET.exists() else {}
    budget[figures.pop("version")] = figures
    BUDGET.write_text(json.dumps(budget, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(figures, indent=2))
