"""``BENCH_exact.json`` is the exact trajectory: one row per PR, each the
work budget, the start-up budget and the line count of ``src/lutetab`` as
they stood after that PR.

Its last row must hold the current records, so a change that records a
budget again, or adds or removes a line of ``src/lutetab``, appends its
own row, and the diff of the JSON is that change's exact cost. The test
reads three JSON files and counts lines: no stage runs.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_the_last_row_holds_the_current_records():
    trajectory = _load(ROOT / "BENCH_exact.json")
    version, rows = trajectory["python"], trajectory["rows"]
    numbers = [row["pr"] for row in rows]
    assert numbers == sorted(set(numbers)), numbers
    # Only the newest row may leave its commit out: no commit can name itself.
    assert all(row["commit"] for row in rows[:-1])

    last = rows[-1]
    assert last["work"] == _load(TESTS / "work_budget.json")[version]
    startup = _load(TESTS / "startup_budget.json")[version]
    assert last["startup"] == {"events": startup["events"], "modules": len(startup["modules"])}
    lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in (ROOT / "src" / "lutetab").rglob("*.py"))
    assert last["src_lines"] == lines
