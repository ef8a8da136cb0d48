"""Timing wrappers for the traced run, and the per-layer metrics they feed.

Only the traced run imports this module; the untraced end-to-end runs
start the CLI as a child process and never touch it.

A wrapper replaces a public function in the namespace of the module that
calls it (``cli`` for the four stages, ``model`` for the functions that
build a PARS), records calls, total seconds and self seconds (the span
minus the spans of wrapped functions called inside it), and on a counting
pass adds work counts taken from the arguments and result. A name that is
missing after a refactor is reported, and every metric that needs it is
reported as missing rather than as zero.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field


def _beamed_columns(pars) -> int:
    """Columns from a beam begin to its beam end, inclusive."""
    total, inside = 0, False
    for col in pars.columns:
        if col.trabes == "initialis":
            inside = True
        total += inside
        if col.trabes == "terminalis":
            inside = False
    return total


def _count_scan(c: Counter, lines, args) -> None:
    c["lines"] += len(lines)
    c["tokens"] += sum(len(line.tokens) for line in lines)


def _count_assignment(c: Counter, result, args) -> None:
    c["tables"] += hasattr(result[0], "rows")


def _count_tempus(c: Counter, tokens, args) -> None:
    c["durations"] += len(tokens)
    c["beam_groups"] += sum(t.beam_begin for t in tokens)


def _count_score(c: Counter, score, args) -> None:
    c["partes"] += len(score.partes)
    c["columns"] += sum(len(p.columns) for p in score.partes)


def _count_svg(c: Counter, svg: str, args) -> None:
    c["svg_bytes"] += len(svg.encode())
    c["beamed_columns"] += _beamed_columns(args[0])


# (module, function) -> counter; the module is the one whose namespace is
# patched, i.e. the caller's.
WRAPPED = {
    ("cli", "run"): None,
    ("cli", "scan_text"): _count_scan,
    ("cli", "build_score"): _count_score,
    ("cli", "emit_pars"): lambda c, xml, args: c.update(xml_bytes=len(xml.encode())),
    ("cli", "render_pars"): _count_svg,
    ("model", "parse_assignment"): _count_assignment,
    ("model", "apply_assignment"): None,
    ("model", "build_symbol_map"): None,
    ("model", "parse_tempus_line"): _count_tempus,
    ("model", "validate_beams"): None,
    ("model", "parse_vox_line"): lambda c, r, args: c.update(grips=len(r[1])),
    ("model", "parse_param_track"): lambda c, r, args: c.update(annotations=len(r[1])),
    ("model", "build_system"): None,
    ("model", "compute_summa"): None,
}


@dataclass
class Tracer:
    counting: bool = False
    stats: dict[str, list] = field(default_factory=dict)  # key -> [calls, total s, self s]
    counts: Counter = field(default_factory=Counter)
    missing: list[str] = field(default_factory=list)
    _stack: list[float] = field(default_factory=list)  # child seconds of each open span

    def wrap(self, key: str, fn, counter):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                child = stack.pop()
                stat[0] += 1
                stat[1] += span
                stat[2] += span - child
                if stack:
                    stack[-1] += span
            if self.counting and counter is not None:
                counter(self.counts, result, args)
            return result

        return traced


@contextmanager
def instrument(modules: dict, tracer: Tracer, keys=WRAPPED):
    """Patch the wrappers for ``keys`` into ``modules``; restore on exit."""
    saved = []
    try:
        for mod_name, fn_name in keys:
            module = modules[mod_name]
            fn = getattr(module, fn_name, None)
            if fn is None:
                tracer.missing.append(f"{mod_name}.{fn_name}")
                continue
            saved.append((module, fn_name, fn))
            wrapper = tracer.wrap(f"{mod_name}.{fn_name}", fn, keys[mod_name, fn_name])
            setattr(module, fn_name, wrapper)
        yield tracer
    finally:
        for module, fn_name, fn in saved:
            setattr(module, fn_name, fn)


# --- per-layer metrics -------------------------------------------------------


@dataclass
class TraceResults:
    """What the traced run measured; ``full``/``half`` are per-rep stats."""

    full: list[dict[str, list]]
    half: list[dict[str, list]]
    counts: Counter
    missing: set[str]
    untraced_run_s: float
    files_written: int
    child_user_s: float
    child_sys_s: float
    child_wall_tail: float

    def total(self, key: str, reps=None) -> float:
        return statistics.median(r[key][1] for r in (reps or self.full))

    def self_s(self, key: str) -> float:
        return statistics.median(r[key][2] for r in self.full)

    def calls(self, key: str) -> int:
        return self.full[0][key][0]

    def scale_ratio(self, key: str) -> float:
        half = self.total(key, self.half)
        return self.total(key) / half if half > 0 else 0.0


def _per_s(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


_CLI_STAGES = ("cli.scan_text", "cli.build_score", "cli.emit_pars", "cli.render_pars")
_MODEL_CALLS = tuple(f"model.{name}" for mod, name in WRAPPED if mod == "model")

# (layer, what it should move, [(metric, unit, wrappers it needs, value)]).
LAYERS = [
    ("scanner", "wall_s on flat_check; barely on wide_beams_svg", [
        ("scanner.scan_text.s", "s", ["cli.scan_text"], lambda r: r.total("cli.scan_text")),
        ("scanner.lines", "count", ["cli.scan_text"], lambda r: r.counts["lines"]),
        ("scanner.tokens", "count", ["cli.scan_text"], lambda r: r.counts["tokens"]),
        ("scanner.tokens_per_s", "1/s", ["cli.scan_text"],
         lambda r: _per_s(r.counts["tokens"], r.total("cli.scan_text"))),
        ("scanner.scale_ratio", "ratio", ["cli.scan_text"],
         lambda r: r.scale_ratio("cli.scan_text")),
    ]),
    ("prelude", "wall_s on many_pars_write only", [
        ("prelude.parse_assignment.s", "s", ["model.parse_assignment"],
         lambda r: r.total("model.parse_assignment")),
        ("prelude.parse_assignment.calls", "count", ["model.parse_assignment"],
         lambda r: r.calls("model.parse_assignment")),
        ("prelude.build_symbol_map.s", "s", ["model.build_symbol_map"],
         lambda r: r.total("model.build_symbol_map")),
        ("prelude.build_symbol_map.calls", "count", ["model.build_symbol_map"],
         lambda r: r.calls("model.build_symbol_map")),
        ("prelude.tables", "count", ["model.parse_assignment"], lambda r: r.counts["tables"]),
    ]),
    ("tempus", "wall_s and peak_rss_mb on flat_check", [
        ("tempus.parse_tempus_line.s", "s", ["model.parse_tempus_line"],
         lambda r: r.total("model.parse_tempus_line")),
        ("tempus.validate_beams.s", "s", ["model.validate_beams"],
         lambda r: r.total("model.validate_beams")),
        ("tempus.durations", "count", ["model.parse_tempus_line"],
         lambda r: r.counts["durations"]),
        ("tempus.beam_groups", "count", ["model.parse_tempus_line"],
         lambda r: r.counts["beam_groups"]),
    ]),
    ("vox", "wall_s and peak_rss_mb on flat_check", [
        ("vox.parse_vox_line.s", "s", ["model.parse_vox_line"],
         lambda r: r.total("model.parse_vox_line")),
        ("vox.parse_param_track.s", "s", ["model.parse_param_track"],
         lambda r: r.total("model.parse_param_track")),
        ("vox.grips", "count", ["model.parse_vox_line"], lambda r: r.counts["grips"]),
        ("vox.annotations", "count", ["model.parse_param_track"],
         lambda r: r.counts["annotations"]),
    ]),
    ("model", "wall_s on flat_check and many_pars_write", [
        ("model.build_score.s", "s", ["cli.build_score"], lambda r: r.total("cli.build_score")),
        ("model.build_score.self_s", "s", ["cli.build_score", *_MODEL_CALLS],
         lambda r: r.self_s("cli.build_score")),
        ("model.build_system.s", "s", ["model.build_system"],
         lambda r: r.total("model.build_system")),
        ("model.compute_summa.s", "s", ["model.compute_summa"],
         lambda r: r.total("model.compute_summa")),
        ("model.partes", "count", ["cli.build_score"], lambda r: r.counts["partes"]),
        ("model.systems", "count", ["model.build_system"],
         lambda r: r.calls("model.build_system")),
        ("model.columns", "count", ["cli.build_score"], lambda r: r.counts["columns"]),
        ("model.scale_ratio", "ratio", ["cli.build_score"],
         lambda r: r.scale_ratio("cli.build_score")),
    ]),
    ("xml_out", "wall_s on all three workloads", [
        ("xml_out.emit_pars.s", "s", ["cli.emit_pars"], lambda r: r.total("cli.emit_pars")),
        ("xml_out.emit_pars.calls", "count", ["cli.emit_pars"],
         lambda r: r.calls("cli.emit_pars")),
        ("xml_out.bytes", "bytes", ["cli.emit_pars"], lambda r: r.counts["xml_bytes"]),
        ("xml_out.cols_per_s", "1/s", ["cli.emit_pars", "cli.build_score"],
         lambda r: _per_s(r.counts["columns"], r.total("cli.emit_pars"))),
        ("xml_out.scale_ratio", "ratio", ["cli.emit_pars"],
         lambda r: r.scale_ratio("cli.emit_pars")),
    ]),
    ("svg_out", "render_pars.s: wall_s on wide_beams_svg; render_pars.calls on flat_check: "
     "wall_s and peak_rss_mb there (SVG nobody asked for)", [
        ("svg_out.render_pars.s", "s", ["cli.render_pars"],
         lambda r: r.total("cli.render_pars")),
        ("svg_out.render_pars.calls", "count", ["cli.render_pars"],
         lambda r: r.calls("cli.render_pars")),
        ("svg_out.bytes", "bytes", ["cli.render_pars"], lambda r: r.counts["svg_bytes"]),
        ("svg_out.beamed_columns", "count", ["cli.render_pars"],
         lambda r: r.counts["beamed_columns"]),
        ("svg_out.scale_ratio", "ratio", ["cli.render_pars"],
         lambda r: r.scale_ratio("cli.render_pars")),
    ]),
    ("cli", "run.s and run.self_s: wall_s on many_pars_write", [
        ("cli.run.s", "s", ["cli.run"], lambda r: r.total("cli.run")),
        ("cli.run.self_s", "s", ["cli.run", *_CLI_STAGES], lambda r: r.self_s("cli.run")),
        ("cli.files_written", "count", [], lambda r: r.files_written),
        ("cli.user_s", "s", [], lambda r: r.child_user_s),
        ("cli.sys_s", "s", [], lambda r: r.child_sys_s),
        ("cli.wall_s_tail", "s", [], lambda r: r.child_wall_tail),
    ]),
    ("bench", "nothing: the cost of tracing itself", [
        ("bench.trace_overhead_s", "s", ["cli.run"],
         lambda r: r.total("cli.run") - r.untraced_run_s),
    ]),
]


def per_layer_metrics(results: TraceResults) -> tuple[dict[str, tuple], list[str]]:
    """``{metric: (value, unit, layer)}`` plus one line per missing metric.

    If any wrapper a layer's metrics need is missing, all of that layer's
    metrics are missing.
    """
    values, missing = {}, []
    for layer, _, metrics in LAYERS:
        lost = sorted({key for _, _, needs, _ in metrics for key in needs} & results.missing)
        for name, unit, _, value in metrics:
            if lost:
                missing.append(f"{name}: wrapped function lutetab.{', lutetab.'.join(lost)} "
                               "not found")
            else:
                values[name] = (value(results), unit, layer)
    return values, missing
