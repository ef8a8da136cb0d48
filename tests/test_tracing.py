"""The benchmark's tracer still finds and counts every stage it wraps.

``perfbench/tracing.py`` patches named functions of ``lutetab.cli`` and
``lutetab.model`` and reads work counts from their arguments and
results. A rename or a changed result shape would make it report a
metric as missing or count the wrong thing, which only the benchmark's
own smoke run would show. This test runs the CLI on a fixture under a
counting tracer, loaded by path as ``test_budget.py`` loads the corpus,
and checks each count against one taken independently from the golden
XML of that fixture.
"""

import re
import runpy
from pathlib import Path

from lutetab import cli, model

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures"
# The tokens that the scan of newsidler.tab gives; a change of the token
# rules that moves it moves ``scanner.tokens`` in every benchmark run.
NEWSIDLER_TOKENS = 119


def test_traced_counts_match_the_golden_xml(tmp_path):
    tracing = runpy.run_path(str(ROOT / "perfbench" / "tracing.py"))
    tracer = tracing["Tracer"](counting=True)
    argv = [str(FIXTURES / "newsidler.tab"), "--xml", str(tmp_path / "xml"),
            "--svg", str(tmp_path / "svg")]
    with tracing["instrument"]({"cli": cli, "model": model}, tracer):
        assert cli.main(argv) == 0
    assert tracer.missing == []
    # A stage no longer called through the patched name would read 0 calls.
    assert {key for key, (calls, _, _) in tracer.stats.items() if not calls} == set()

    golden = (FIXTURES / "newsidler.xml").read_text(encoding="utf-8")
    (written,) = (tmp_path / "xml").iterdir()
    assert written.read_text(encoding="utf-8") == golden
    columns = len(re.findall(r"<columna>", golden))
    assert columns == 23
    counts = tracer.counts
    assert counts["columns"] == counts["durations"] == columns
    assert counts["grips"] == len(re.findall(r"<sonum\b", golden))
    assert counts["beam_groups"] == len(re.findall(r"trabes='initialis'", golden))
    assert counts["tokens"] == NEWSIDLER_TOKENS
    assert counts["partes"] == 1 and counts["svg_bytes"] > 0
