"""lutetab benchmark: seeded corpora, the checkout's own CLI, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload flat_check --seed 1 --seconds 30 --trace 0

The load is a closed loop with one client: each invocation is a fresh
``python -m lutetab.cli`` child process (``PYTHONPATH=src``, no bytecode
written), started only after the previous one has ended and its output
has been checked. Children are started and timed by a small helper
process (``spawner.py``), so their peak RSS is their own. Times are
scaled to a reference CPU speed by a calibration the helper times
around each child (see ``scaled``). ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` additionally runs
``cli.main`` in-process with timing wrappers (``tracing.py``) and reports
the per-layer metrics. All scratch files live in ``.perfbench_tmp/`` in
the checkout and are removed on exit. The last line of stdout is one JSON
object with the result.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import corpus  # noqa: E402
import oracle  # noqa: E402

SETUP_RUNS = 15  # least number of fresh interpreters timed for setup_s
INPROCESS_REPS = 3  # traced and untraced in-process runs, each size
CHILD_TIMEOUT_S = 30
SPAWNER = Path(__file__).resolve().parent / "spawner.py"
TMP_DIR = ".perfbench_tmp"
CHILD_METRICS = ("cli.user_s", "cli.sys_s", "cli.wall_s_tail")
# Seconds that spawner.calibrate() takes at the reference CPU speed: the
# usual speed of the 2.0 GHz Xeon vCPUs the benchmark was tuned on.
CAL_REF_S = 0.0055
REQUIRED = ("BENCHMARK.json", "src/lutetab/cli.py", "tests/dtd_validator.py",
            str(corpus.FIXTURE))


@dataclass
class Invocation:
    wall_s: float
    user_s: float
    sys_s: float
    maxrss_mb: float
    cal_s: float
    problems: list[str]

    @property
    def scaled_s(self) -> float:
        return scaled(self.wall_s, self.cal_s)


def scaled(seconds: float, cal_s: float) -> float:
    """``seconds`` at the reference CPU speed.

    The vCPUs of a shared host change speed by up to 2x in phases from a
    tenth of a second to minutes long. The calibration timed right before
    and after a child slows down by about the same factor, so the ratio of
    the two removes most of that swing. It cannot remove a change of speed
    in the middle of a child; medians over many children take care of the
    rest. The calibration does not depend on the program, so a change to
    the program moves the scaled time as much as the unscaled one.
    """
    return seconds * CAL_REF_S / cal_s


def tail(samples: list[float]) -> tuple[float, int] | None:
    """Highest percentile with at least ten samples beyond it, and its rank."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    k = len(ordered) - 11
    return ordered[k], round(100 * (k + 1) / len(ordered))


class Bench:
    def __init__(self, root: Path, tmp: Path, workload: str) -> None:
        self.root = root
        self.tmp = tmp
        self.args = corpus.WORKLOADS[workload][1]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.env = dict(os.environ)
        for name in ("PYTHONSTARTUP", "PYTHONINSPECT", "PYTHONOPTIMIZE", "PYTHONPYCACHEPREFIX"):
            self.env.pop(name, None)
        self.env.update(
            PYTHONPATH=str(root / "src"),
            PYTHONDONTWRITEBYTECODE="1",
            PYTHONHASHSEED="0",
            TMPDIR=str(tmp),
        )
        self.validator = oracle.load_dtd_validator(root)
        self._runs = 0
        self.spawner = subprocess.Popen(
            [sys.executable, str(SPAWNER)], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env=self.env, cwd=tmp,
        )

    def close(self) -> None:
        """Stop the spawner and wait for it."""
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()

    # --- bookkeeping --------------------------------------------------------

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems += problems[:3]

    def out_dirs(self) -> tuple[Path, Path]:
        self._runs += 1
        out = self.tmp / f"out{self._runs}"
        return out / "xml", out / "svg"

    def argv(self, source: Path, xml: Path, svg: Path, args: list[str]) -> list[str]:
        return [str(source)] + [a.format(xml=xml, svg=svg) for a in args]

    # --- child processes ----------------------------------------------------

    def spawn(self, argv: list[str]) -> Invocation:
        """Run one child to completion, with its wall time and rusage."""
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        request = {"argv": [sys.executable, *argv], "cwd": str(self.tmp),
                   "stdout": str(out_path), "stderr": str(err_path), "timeout": CHILD_TIMEOUT_S}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        return Invocation(reply["wall_s"], reply["user_s"], reply["sys_s"],
                          reply["maxrss_kb"] / 1024, reply["cal_s"],
                          oracle.check_process(reply["returncode"], stdout, stderr))

    def setup_time(self) -> Invocation:
        """A fresh interpreter that imports ``lutetab.cli``."""
        inv = self.spawn(["-c", "import lutetab.cli"])
        if inv.problems:
            self.record(inv.problems)
        return inv

    def verify(self, source: Path, expected: corpus.Corpus) -> dict[str, str]:
        """One untimed run writing every output, checked in full by the oracle.

        A ``--check`` workload writes nothing, so this run writes XML, SVG
        and the DTD from the same input. Returns the digests of its files,
        against which every later run of the same input is compared.
        """
        xml, svg = self.out_dirs()
        args = [a for a in self.args if a != "--check"]
        if "--xml" not in args:
            args += ["--xml", "{xml}", "--svg", "{svg}"]
        if "--dtd" not in args:
            args.append("--dtd")
        inv = self.spawn(["-m", "lutetab.cli", *self.argv(source, xml, svg, args)])
        problems = inv.problems or oracle.check_outputs(expected, source.stem, xml, svg,
                                                        self.validator)
        self.record(problems)
        digests = oracle.digests(xml, svg)
        shutil.rmtree(xml.parent)
        if "--dtd" not in self.args:
            digests.pop(f"xml/{oracle.DTD_FILENAME}", None)
        if "--check" in self.args:
            digests = {}
        return digests

    def closed_loop(self, source: Path, digests: dict[str, str], seconds: float,
                    min_runs: int) -> tuple[list[Invocation], list[Invocation]]:
        """Invoke the CLI back to back for ``seconds``; check each run's output.

        A set-up probe follows each invocation, so that the set-up times are
        sampled across the same stretch of time as the invocations.
        """
        runs: list[Invocation] = []
        setup: list[Invocation] = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(runs) < min_runs:
            xml, svg = self.out_dirs()
            inv = self.spawn(["-m", "lutetab.cli", *self.argv(source, xml, svg, self.args)])
            if not inv.problems and oracle.digests(xml, svg) != digests:
                inv.problems.append("output differs from the checked output of the same input")
            shutil.rmtree(xml.parent, ignore_errors=True)
            self.record(inv.problems)
            runs.append(inv)
            setup.append(self.setup_time())
        while len(setup) < SETUP_RUNS:
            setup.append(self.setup_time())
        return runs, setup


# --- traced in-process run ---------------------------------------------------


def traced_run(bench: Bench, source: Path, half_source: Path, digests: dict[str, str],
               child_runs: list[Invocation]):
    """Per-layer numbers from ``cli.main`` run in-process with wrappers."""
    import tracing

    sys.path.insert(0, str(bench.root / "src"))
    from lutetab import cli, model

    modules = {"cli": cli, "model": model}

    def once(src: Path, tracer, keys=tracing.WRAPPED) -> tuple[dict, int]:
        xml, svg = bench.out_dirs()
        argv = bench.argv(src, xml, svg, bench.args)
        gc.collect()
        try:
            with tracing.instrument(modules, tracer, keys):
                code = cli.main(argv)
        except Exception as err:  # a crash of the program counts as a failed run
            code = f"with {type(err).__name__}: {err}"
        problems = [] if code == 0 else [f"in-process run exited {code}"]
        written = oracle.digests(xml, svg)
        if src == source and written != digests:
            problems.append("in-process output differs from the checked output")
        shutil.rmtree(xml.parent, ignore_errors=True)
        bench.record(problems)
        return tracer.stats, len(written)

    counter = tracing.Tracer(counting=True)
    _, files_written = once(source, counter)
    root_only = {("cli", "run"): None}
    untraced = [once(source, tracing.Tracer(), root_only)[0] for _ in range(INPROCESS_REPS)]
    full = [once(source, tracing.Tracer())[0] for _ in range(INPROCESS_REPS)]
    half = [once(half_source, tracing.Tracer())[0] for _ in range(INPROCESS_REPS)]
    return tracing.TraceResults(
        full=full,
        half=half,
        counts=counter.counts,
        missing=set(counter.missing),
        # unused (and absent) when cli.run is missing: its metrics are dropped
        untraced_run_s=statistics.median(s.get("cli.run", [0, 0.0])[1] for s in untraced),
        files_written=files_written,
        child_user_s=statistics.median(r.user_s for r in child_runs),
        child_sys_s=statistics.median(r.sys_s for r in child_runs),
        child_wall_tail=tail([r.scaled_s for r in child_runs])[0],
    )


def stress_lines(results) -> list[str]:
    """What the trace says about the layer this workload was chosen for."""
    selfs = {k: statistics.median(r[k][2] for r in results.full) for k in results.full[0]}
    top = max(selfs, key=selfs.get)
    build = results.total("cli.build_score")
    share = results.total("model.parse_assignment") / build if build else 0.0
    return [
        f"largest self time: {top} ({selfs[top]:.4f} s)",
        f"parse_assignment share of build_score: {share:.3f}",
        f"render_pars calls: {results.calls('cli.render_pars')}",
    ]


# --- report ------------------------------------------------------------------


def end_to_end(work: corpus.Corpus, runs: list[Invocation],
               setup: list[Invocation]) -> list[tuple]:
    """``(metric, value, unit, samples)`` of the untraced invocations."""
    walls = [r.scaled_s for r in runs]
    wall = statistics.median(walls)
    n = len(runs)
    t = tail(walls)
    raw = statistics.median(r.wall_s for r in runs)
    raw_setup = statistics.median(r.wall_s for r in setup)
    speed = statistics.median(CAL_REF_S / r.cal_s for r in runs)
    print(f"unscaled: wall {raw:.4f} s, setup {raw_setup:.4f} s; "
          f"CPU at {speed:.3f} of reference speed (median)")
    return [
        ("wall_s", wall, "s", f"median of {n} invocations, scaled"
         + (f"; p{t[1]} {t[0]:.4f} s" if t else "")),
        ("cols_per_s", work.columns / wall, "cols/s", f"{work.columns} columns / wall_s"),
        ("peak_rss_mb", statistics.median(r.maxrss_mb for r in runs), "MB",
         f"median of {n} invocations"),
        ("setup_s", statistics.median(r.scaled_s for r in setup), "s",
         f"median of {len(setup)} interpreters, scaled"),
    ]


def per_layer(bench: Bench, workload: str, seed: int, source: Path, digests: dict[str, str],
              runs: list[Invocation]) -> tuple[list[tuple], list[str]]:
    """``(metric, value, unit, samples)`` of the traced run, and missing metrics."""
    import tracing

    half = bench.tmp / "half.tab"
    half.write_text(corpus.generate(workload, seed, bench.root, scale=0.5).text,
                    encoding="utf-8")
    results = traced_run(bench, source, half, digests, runs)
    values, missing = tracing.per_layer_metrics(results)
    lines = []
    for layer, moves, _ in tracing.LAYERS:
        print(f"[{layer}] moves {moves}")
        for name, (value, unit, lay) in values.items():
            if lay != layer:
                continue
            if name in CHILD_METRICS:
                note = f"from {len(runs)} invocations"
            elif unit in ("count", "bytes"):
                note = "counting pass"
            else:
                note = f"median of {INPROCESS_REPS} traced in-process runs"
            print(f"  {name:34s} {value:14.6g} {unit:6s} {note}")
            lines.append((name, value, unit, note))
    for line in missing:
        print(f"MISSING {line}")
    if not missing:
        for line in stress_lines(results):
            print(f"check: {line}")
    return lines, missing


def measure(bench: Bench, workload: str, seed: int, seconds: float, trace: bool,
            spec: dict) -> dict:
    work = corpus.generate(workload, seed, bench.root)
    source = bench.tmp / "corpus.tab"
    source.write_text(work.text, encoding="utf-8")
    print(f"workload {workload}, seed {seed}: {len(work.partes)} PARS, {work.columns} columns, "
          f"{len(work.text.encode())} bytes of source")

    digests = bench.verify(source, work)
    runs, setup = bench.closed_loop(source, digests, seconds, 11 if trace else 3)
    lines = end_to_end(work, runs, setup)
    for name, value, unit, note in lines:
        print(f"{name:12s} {value:12.6g} {unit:7s} {note}")
    wanted, missing = spec["end_to_end"], []
    if trace:
        lines, missing = per_layer(bench, workload, seed, source, digests, runs)
        wanted = spec["per_layer"]
    print(f"failed_ratio {bench.failed / bench.attempted:12.6g} ratio   "
          f"{bench.failed} of {bench.attempted} attempted")
    for problem in bench.problems:
        print(f"FAILED: {problem}")

    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in lines}
    names = sorted(m["name"] for m in wanted)
    if names != sorted(metrics) and not missing:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {names}")
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    absent = [p for p in REQUIRED if not (root / p).is_file()]
    if absent:
        print(f"run from the root of a lutetab checkout; missing: {', '.join(absent)}",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))

    base = root / TMP_DIR
    base.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=base))
    try:
        bench = Bench(root, tmp, args.workload)
        try:
            result = measure(bench, args.workload, args.seed, args.seconds, bool(args.trace),
                             spec)
        finally:
            bench.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
