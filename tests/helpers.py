"""Shared test utilities: independent token counting, XML re-reading,
source mutation, and the one harness that counts and weighs the stages.
The oracles here deliberately avoid the compiler's own code paths."""

from __future__ import annotations

import contextlib
import gc
import re
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from array import array
from fractions import Fraction
from typing import NamedTuple

from lutetab import build_score, emit_pars, render_pars, scan_text
from lutetab.errors import EmitError
from lutetab.model import TRABES_INITIALIS, TRABES_TERMINALIS
from lutetab.prelude import MAX_POSITION
from lutetab.svg_out import SVG_NS, RenderConfig
from lutetab.tempus import KLASS_CARRY, KLASS_DOTS, STEM_FLAGS, TICKS_PER_WHOLE
from lutetab.vox import EDIT_TRACK
from lutetab.xml_out import _DENOMINATOR, _XML_DECLARATION, escape_attr


def visible(text: str) -> str:
    """What a diagnostic shows for ``text``: C0 controls and DEL as Control
    Pictures, C1 controls and surrogates as U+FFFD, one scalar for one."""
    shown = []
    for char in text:
        if char < " ":
            char = chr(0x2400 + ord(char))
        elif char == "\x7f":
            char = "\u2421"
        elif "\x80" <= char <= "\x9f" or "\ud800" <= char <= "\udfff":
            char = "\ufffd"
        shown.append(char)
    return "".join(shown)


# The scanner's refusal as one regular expression over the whole text: the
# code points outside XML 1.0's ``Char`` production but TAB, which has its
# own refusal. The scanner clears a text with cheaper tests first.
NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def count_t_line_tokens(source: str) -> int:
    """Whitespace-token count over all T lines, minus the leading T each.

    Independent of the scanner: plain split after chopping at '//'.
    """
    total = 0
    for line in source.split("\n"):
        parts = line.split("//")[0].split()
        if parts and parts[0] == "T" and not line[:1].isspace():
            total += len(parts) - 1
    return total


def read_pars_xml(text: str) -> list[dict]:
    """Re-read an emitted document into plain comparable dicts."""
    root = ET.fromstring(text)
    assert root.tag == "tabulatura"
    columns = []
    for columna in root.findall("columna"):
        duratio = columna.find("duratio")
        columns.append(
            {
                "numerus": int(duratio.get("numerus")),
                "source": duratio.get("source"),
                "ypos": int(duratio.get("ypos")),
                "trabes": duratio.get("trabes"),
                "duration": Fraction(
                    int(duratio.get("duratio.num")), int(duratio.get("duratio.den"))
                ),
                "summa": Fraction(
                    int(duratio.get("summaPraecedentium.num")),
                    int(duratio.get("summaPraecedentium.den")),
                ),
                "sona": [
                    {
                        "source": s.get("source"),
                        "string": int(s.get("string")),
                        "fret": int(s.get("fret")),
                        "prolongate": s.get("prolongate") == "yes",
                        "ypos": int(s.get("ypos")),
                    }
                    for s in columna.findall("sonum")
                ],
            }
        )
    return columns


def column_numbers(pars) -> tuple[list[int], list[int]]:
    """Each column's number as the XML writes it (``numerus``) and as the SVG
    labels it under the column (the grey text)."""
    xml = [col["numerus"] for col in read_pars_xml(emit_pars(pars))]
    svg = [
        int(text.text)
        for text in ET.fromstring(render_pars(pars)).iter(f"{{{SVG_NS}}}text")
        if text.get("fill") == "#555555"
    ]
    return xml, svg


def as_fraction(ticks: int) -> Fraction:
    """A model time value (integer ticks) as a fraction of a whole note."""
    return Fraction(ticks, TICKS_PER_WHOLE)


def model_as_dicts(pars) -> list[dict]:
    """The same shape as read_pars_xml, taken from the in-memory model."""
    return [
        {
            "numerus": numerus,
            "source": col.duration.source_text,
            "ypos": _ref_duration_row(pars, col),
            "trabes": col.trabes,
            "duration": as_fraction(col.duration.value),
            "summa": as_fraction(col.summa_praecedentium),
            "sona": [
                {
                    "source": s.source,
                    "string": s.string,
                    "fret": s.fret,
                    "prolongate": s.prolongate,
                    "ypos": s.ypos,
                }
                for s in col.sona
            ],
        }
        for numerus, col in enumerate(pars.columns)
    ]


GRID_START = 7  # first event column, clear of the "VOX x " prefix
GRID_STEP = 4


def lay(prefix: str, items) -> str:
    """Place (column, text) items on one line, padding with spaces."""
    line = prefix
    for col, text in sorted(items):
        line += " " * (col - len(line)) + text
    return line


@contextlib.contextmanager
def quiet_collector():
    """Turn the collector off and empty ``gc.callbacks``; restore both after.

    A collection inside a counted or weighed call would run the callbacks
    (hypothesis keeps one there), and their calls and memory would count
    as the call's. Every count and peak in the tests is taken inside this.
    """
    callbacks, enabled = gc.callbacks[:], gc.isenabled()
    gc.callbacks.clear()
    gc.disable()
    try:
        yield
    finally:
        gc.callbacks[:] = callbacks
        if enabled:
            gc.enable()


def count_events(stage, arg) -> tuple[int, object]:
    """Run ``stage(arg)`` with the collector quiet; count its calls, into Python
    and into C, and its Python lines."""
    count = 0

    def profile(frame, event, _):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    def trace(frame, event, _):
        nonlocal count
        count += event == "line"
        return trace

    with quiet_collector():
        sys.setprofile(profile)
        sys.settrace(trace)
        try:
            result = stage(arg)
        finally:
            sys.settrace(None)
            sys.setprofile(None)
    return count, result


STAGES = ("scan_text", "build_score", "emit_pars", "render_pars")


class Cost(NamedTuple):
    """A stage's events, as ``count_events`` counts them, and its data peak
    and what it leaves held, in bytes above what was held before the scan."""

    events: int
    peak_bytes: int
    held_bytes: int


# The writers as stages: over every PARS, one document held at a time, as the CLI does.
def _emit_each(score) -> int:
    return sum(len(emit_pars(pars)) for pars in score.partes)


def _render_each(score) -> int:
    return sum(len(render_pars(pars)) for pars in score.partes)


def _run_stages(text: str, stage) -> None:
    """The ``STAGES`` on ``text``, each run as ``stage(name, run, arg)``."""
    score = stage("build_score", build_score, stage("scan_text", scan_text, text))
    stage("emit_pars", _emit_each, score)
    stage("render_pars", _render_each, score)


def stage_costs(text: str) -> dict[str, Cost]:
    """Each stage's ``Cost`` on ``text``.

    A plain run comes first, so that caches which fill on first use are
    full. A second run counts the events. A third, without the event
    hooks, which allocate, takes the memory with ``tracemalloc`` and the
    collector quiet. Before each stage a full collection empties CPython's
    free lists, whose reuse ``tracemalloc`` cannot see, so a stage's peak
    does not depend on what ran before it. What the heap holds before the
    weighing is frozen first, so those collections walk only what the stages
    made: a full collection still empties the free lists whatever is frozen,
    and late in a test session the heap holds tens of thousands of objects.
    All that ``measure`` uses is made before tracing starts; of what it
    allocates, a later stage's peak counts only the int it puts in
    ``peaks``, as ``held`` is an array.

    One function both counts and weighs, so its code has run before the
    weighing starts. CPython keeps memory on a code object the first time
    it runs it (3.10 keeps a frame for reuse) or the first time after
    ``sys.settrace`` was switched (3.12 and 3.13 keep instrumentation data).
    Weighed by a function of its own, the first call in a process read 64
    to 480 bytes more in every peak than the calls after it. One such cost
    is left on 3.10: a function gets its opcache at its 1024th call, and a
    weighed run in which that falls reads the opcache too.
    """
    _run_stages(text, lambda name, run, arg: run(arg))
    events, peaks, held = {}, {}, array("q", bytes(8 * len(STAGES)))
    base = None  # while None, ``measure`` counts; then it weighs above ``base``

    def measure(name, run, arg):
        if base is None:
            events[name], result = count_events(run, arg)
            return result
        gc.collect()
        tracemalloc.reset_peak()
        result = run(arg)
        now, peak = tracemalloc.get_traced_memory()
        held[len(peaks)] = now - base
        peaks[name] = peak - base
        return result

    _run_stages(text, measure)
    with quiet_collector():
        gc.collect()
        gc.freeze()  # so the collections before each stage skip the heap as it stands
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _run_stages(text, measure)
        finally:
            tracemalloc.stop()
            gc.unfreeze()
    return {name: Cost(events[name], peaks[name], held[k]) for k, name in enumerate(STAGES)}


def grid_cols(n: int) -> list[int]:
    return [GRID_START + GRID_STEP * i for i in range(n)]


def system_lines(durations: list[str], *voices: dict[int, str], names: str = "vwxyz") -> list[str]:
    """Column-aligned T and VOX lines; voices map duration index -> symbol."""
    cols = grid_cols(len(durations))
    lines = [lay("T", zip(cols, durations))]
    for name, voice in zip(names, voices):
        lines.append(lay(f"VOX {name}", [(cols[j], sym) for j, sym in voice.items()]))
    return lines


# Runs of durations for ``block_source``: a beam group, a dot group, a dotted
# stem, flagged stems and a carry, so that every kind of SVG shape occurs.
_BLOCK_UNITS = (["I"], ["T_", "_T"], ["F."], ["."], ["E"], ["-"], ["F"])
_CROSSING = ["E_", "E", "E", "_E"]  # placed to cross each block boundary


def block_widths(block: int) -> list[tuple[int, ...]]:
    """The system widths that a writer's block tests run, for a writer that
    appends ``block`` columns at a time: on both sides of one and of two
    block boundaries, and three bands."""
    return [(block - 1,), (block,), (block + 1,), (block + 2,), (2 * block + 1,),
            (block + 2, 1, block + 5)]


def block_source(widths, block: int, cadens: bool = False) -> str:
    """One PARS with a system of each width in ``widths``, built to put the
    boundaries of a writer's blocks of ``block`` columns, counted in a
    system, inside beam groups: a group of four crosses every boundary that
    the system reaches past. Every column holds a grip, every third a second
    one and a few a ``+``. Each system of two columns or more has one
    ``edit``, every second system's beyond its first block if it can."""
    head = (
        "tbl = ( (1 a f l) (2 b g m) (3 c h n) )\nduratioManet = est\n"
        f"duratioCadens = {'est' if cadens else 'nonEst'}\nPARS p\nbünde = tbl\n"
    )
    systems = []
    for k, width in enumerate(widths):
        durations, at = [], 0
        while len(durations) < width:
            left = width - len(durations)
            if len(durations) % block == block - 2 and left >= len(_CROSSING):
                unit = _CROSSING
            else:
                unit = _BLOCK_UNITS[at % len(_BLOCK_UNITS)]
                at += 1
                before_crossing = range(block - 1 - len(unit), block - 2)
                if len(unit) > left or len(durations) % block in before_crossing:
                    unit = ["I"]  # leaves the crossing group its place
            durations += unit
        lower = {j: "abcfgh"[j % 6] + "+" * (j % 17 == 5) for j in range(width)}
        upper = {j: "lmn"[j % 3] for j in range(0, width, 3)}
        lines = system_lines(durations, upper, lower)
        edit_at = min(width - 1, block + 3 if k % 2 else 1)
        if edit_at:  # the first column stands under the track's name
            lines.append(lay("    edit", [(grid_cols(width)[edit_at], '"x<y"')]))
        systems.append("\n".join(lines) + "\n")
    return head + "".join(systems)


def shift_last_vox_token(source: str) -> tuple[str, int, int]:
    """Shift the last token of the last VOX line right by one column.

    Returns (mutated source, 1-based line number, new 0-based column).
    Only that token moves; everything before it stays aligned.
    """
    lines = source.split("\n")
    for i in range(len(lines) - 1, -1, -1):
        body = lines[i].split("//")[0]
        parts = body.split()
        if parts and parts[0] == "VOX":
            last = None
            for m in re.finditer(r"\S+", body):
                last = m
            col = last.start()
            lines[i] = lines[i][:col] + " " + lines[i][col:]
            return "\n".join(lines), i + 1, col + 1
    raise AssertionError("no VOX line in source")


def drop_table_selection(source: str) -> str:
    """Remove the grip-table selection assignment from a source."""
    kept = [ln for ln in source.split("\n") if not ln.split("//")[0].strip().startswith("bünde")]
    assert len(kept) < len(source.split("\n"))
    return "\n".join(kept)


# The format's alphabet: duration and structure characters, grip letters,
# digits, line breaks and the two line openers; plus "/", which a PARS name
# must not hold because it becomes part of output file names; NUL, U+0001
# and ESC, which no XML document can hold; TAB, which the scanner refuses;
# and DEL and the C1 control U+009B (CSI), which XML allows. No diagnostic
# may show any of these controls raw.
_PIECES = (
    list('ITFE._-+"()= ')
    + list("abcdefghiklmnopqrstvxyz&C")
    + list("0123456789")
    + ["\n", "\r\n", "VOX ", "T ", "/", "\x00", "\x01", "\t", "\x1b", "\x7f", "\x9b"]
)


def mutations():
    """A hypothesis strategy of one to four ``(op, index, piece)`` mutations for ``mutate``.

    hypothesis is imported here, not at the top: a process that needs only
    the measuring harness, such as ``test_scaling.py``'s child, does not load it.
    """
    from hypothesis import strategies as st

    return st.lists(
        st.tuples(
            st.sampled_from(("insert", "delete", "replace")),
            st.integers(min_value=0, max_value=2000),
            st.sampled_from(_PIECES),
        ),
        min_size=1,
        max_size=4,
    )


def mutate(text: str, mutations) -> str:
    """Apply ``(op, index, piece)`` mutations in order; indices wrap around the text."""
    for op, at, piece in mutations:
        at %= len(text) + 1
        if op == "insert":
            text = text[:at] + piece + text[at:]
        elif op == "delete":
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + piece + text[at + 1 :]
    return text


# Reference writers: the per-element ``emit_pars`` and ``render_pars`` that
# built every fragment afresh, kept verbatim so that a differential test can
# show the table-driven writers produce the same bytes.


class _RefEscapedAttrs(dict):
    def __missing__(self, value: str) -> str:
        escaped = self[value] = escape_attr(value)
        return escaped


def _ref_duration_row(pars, col) -> int:
    """The row of a column's duration symbol: 0, or above its topmost grip."""
    return col.sona[0].ypos - 1 if pars.duratio_cadens else 0


def _ref_check_grips(pars) -> None:
    for index, col in enumerate(pars.columns):
        if not col.sona:
            raise EmitError(f"column {index} holds no grip (every column needs at least one)")


def _ref_check_position(value, what, index):
    if not 0 <= value <= MAX_POSITION:
        raise EmitError(f"{what} {value} of column {index} is outside 0..{MAX_POSITION}")
    return value


def reference_emit_pars(pars) -> str:
    _ref_check_grips(pars)
    esc = _RefEscapedAttrs()
    out = [f"{_XML_DECLARATION}\n<tabulatura>\n"]
    append = out.append
    for numerus, col in enumerate(pars.columns):
        duration = col.duration
        ypos = _ref_check_position(_ref_duration_row(pars, col), "duration ypos", numerus)
        trabes = "" if col.trabes is None else f" trabes='{esc[col.trabes]}'"
        summa, value = col.summa_praecedentium, duration.value
        summa_den = _DENOMINATOR[summa % TICKS_PER_WHOLE]
        value_den = _DENOMINATOR[value % TICKS_PER_WHOLE]
        append(
            f"  <columna>\n    <duratio source='{esc[duration.source_text]}' "
            f"numerus='{numerus}' ypos='{ypos}'{trabes} "
            f"summaPraecedentium.num='{summa * summa_den // TICKS_PER_WHOLE}' "
            f"summaPraecedentium.den='{summa_den}' "
            f"duratio.num='{value * value_den // TICKS_PER_WHOLE}' duratio.den='{value_den}' />\n"
        )
        for sonum in col.sona:
            fret = _ref_check_position(sonum.fret, "fret", numerus)
            string = _ref_check_position(sonum.string, "string", numerus)
            prolongate = " prolongate='yes'" if sonum.prolongate else ""
            ypos = _ref_check_position(sonum.ypos, "grip ypos", numerus)
            edits = [a.text for a in sonum.annotations if a.track == EDIT_TRACK]
            edit = f" edit='{esc['; '.join(edits)]}'" if edits else ""
            append(
                f"    <sonum source='{esc[sonum.source]}' fret='{fret}' string='{string}'"
                f"{prolongate} ypos='{ypos}'{edit} />\n"
            )
        append("  </columna>\n")
    append("</tabulatura>\n")
    return "".join(out)


# A number that is not finite in an attribute value: text nodes (grip
# labels) never stand inside quotes.
_NON_FINITE = re.compile(r"'[^'<>]*\b(inf|nan)\b")


def holds_non_finite_number(svg: str) -> bool:
    return _NON_FINITE.search(svg) is not None


def _ref_fmt(v: float) -> str:
    return f"{v:.12g}"


def _ref_escape_text(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ref_beam_groups(cols) -> list[tuple[int, int]]:
    groups: list[tuple[int, int]] = []
    begin = None
    for i, col in enumerate(cols):
        if col.trabes == TRABES_INITIALIS:
            begin = i
        elif col.trabes == TRABES_TERMINALIS and begin is not None:
            groups.append((begin, i))
            begin = None
    return groups


def reference_render_pars(pars, config=None) -> str:
    _ref_check_grips(pars)
    _fmt, _escape_text = _ref_fmt, _ref_escape_text
    cfg = config or RenderConfig()
    max_ypos = max((s.ypos for c in pars.columns for s in c.sona), default=1)
    max_cols = max((b - a for a, b in pars.system_ranges), default=0)
    n_bands = len(pars.system_ranges)

    band_height = cfg.stem_height + (max_ypos + 1) * cfg.row_spacing + cfg.font_size
    width = 2 * cfg.margin + (max(max_cols - 1, 0)) * cfg.column_spacing + (
        cfg.font_size if max_cols else 0.0
    )
    height = 2 * cfg.margin + n_bands * band_height + max(n_bands - 1, 0) * cfg.row_spacing

    out: list[str] = [
        f"<svg xmlns='{SVG_NS}' width='{_fmt(width)}' height='{_fmt(height)}' "
        f"viewBox='0 0 {_fmt(width)} {_fmt(height)}' font-family='monospace'>"
    ]

    for band, (a, b) in enumerate(pars.system_ranges):
        cols = pars.columns[a:b]
        band_top = cfg.margin + band * (band_height + cfg.row_spacing)

        def row_y(r: int) -> float:
            return band_top + cfg.stem_height + r * cfg.row_spacing

        xs = [cfg.margin + j * cfg.column_spacing for j in range(len(cols))]
        groups = _ref_beam_groups(cols)
        beam_tops = [None] * len(cols)
        for g0, g1 in groups:
            top = row_y(min(_ref_duration_row(pars, c) for c in cols[g0 : g1 + 1]))
            top -= cfg.stem_height
            beam_tops[g0 : g1 + 1] = [top] * (g1 + 1 - g0)

        shapes: list[str] = []
        texts: list[str] = []
        for j, col in enumerate(cols):
            x = xs[j]
            klass = col.duration.klass
            base = row_y(_ref_duration_row(pars, col))
            if klass in STEM_FLAGS:
                beam_top = beam_tops[j]
                top = base - cfg.stem_height if beam_top is None else beam_top
                shapes.append(
                    f"<line x1='{_fmt(x)}' y1='{_fmt(base)}' x2='{_fmt(x)}' "
                    f"y2='{_fmt(top)}' stroke='black' />"
                )
                if beam_top is None:
                    for k in range(STEM_FLAGS[klass]):
                        fy = top + k * 4.0
                        shapes.append(
                            f"<line x1='{_fmt(x)}' y1='{_fmt(fy)}' x2='{_fmt(x + 6.0)}' "
                            f"y2='{_fmt(fy + 4.0)}' stroke='black' />"
                        )
                if col.duration.dot_count:
                    shapes.append(
                        f"<circle cx='{_fmt(x + 5.0)}' cy='{_fmt(base - 3.0)}' r='1.6' />"
                    )
            elif klass == KLASS_DOTS:
                for k in range(col.duration.dot_count):
                    shapes.append(
                        f"<circle cx='{_fmt(x + k * 5.0)}' cy='{_fmt(base - 3.0)}' r='1.6' />"
                    )
            elif klass == KLASS_CARRY:
                shapes.append(
                    f"<line x1='{_fmt(x - 3.0)}' y1='{_fmt(base - 6.0)}' "
                    f"x2='{_fmt(x + 3.0)}' y2='{_fmt(base - 6.0)}' stroke='#999999' />"
                )
            for sonum in col.sona:
                label = sonum.source + ("+" if sonum.prolongate else "")
                texts.append(
                    f"<text x='{_fmt(x)}' y='{_fmt(row_y(sonum.ypos))}' "
                    f"font-size='{_fmt(cfg.font_size)}' text-anchor='middle'>"
                    f"{_escape_text(label)}</text>"
                )
            texts.append(
                f"<text x='{_fmt(x)}' y='{_fmt(row_y(max_ypos + 1))}' "
                f"font-size='{_fmt(cfg.font_size * 0.75)}' text-anchor='middle' "
                f"fill='#555555'>{a + j}</text>"
            )

        for g0, g1 in groups:
            beam_y = _fmt(beam_tops[g0])
            shapes.append(
                f"<line x1='{_fmt(xs[g0])}' y1='{beam_y}' x2='{_fmt(xs[g1])}' "
                f"y2='{beam_y}' stroke='black' stroke-width='2.5' />"
            )

        out.extend(shapes)
        out.extend(texts)

    out.append("</svg>")
    return "\n".join(out) + "\n"
