"""Seeded corpus generator for the lutetab benchmark.

Each workload is a function of (seed, scale) that returns the source text
of one ``.tab`` file together with the generator's own expectation of what
the compiler must produce for it: per PARS, the attributes of every
``duratio`` and ``sonum`` element (durations and running sums computed
here with ``Fraction``, string and fret looked up in the generator's own
copy of the grip table), the number of beam groups and the number of
grips. The compiler only ever sees the generated text.

All grips come from the grip table in ``tests/fixtures/newsidler.tab``,
read by a small regex parser here, not by the compiler's prelude code.

Beam groups hold only plain stem symbols (``T F E``), because the format
defines ``_`` as replacing the flags of stems, and dot groups and the
carry token have none. A beam group that spans a dot group or a carry
column is not generated: the renderer currently raises ``KeyError`` on
it. That known defect is for the compiler to fix (the
first open item in ROADMAP.md), and the benchmark's workloads must be
inputs on which no operation fails.

Sizes are fixed per workload; the seed only varies content (duration
symbols, grips, ``+`` markers, annotations), so the amount of work, and
hence the timings, do not depend on the seed.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

FIXTURE = Path("tests") / "fixtures" / "newsidler.tab"

_STEM_VALUES = {"I": Fraction(1, 4), "T": Fraction(1, 8), "F": Fraction(1, 16),
                "E": Fraction(1, 32)}
_DOT_VALUES = {".": Fraction(1, 2), "..": Fraction(3, 4), "...": Fraction(1, 1)}
_ANNOTATIONS = ("lectio dubia", "hardly readable, could be a '1'", "fret unclear", "ms. c")
_BODY_START = 10  # first score column; leaves room for "VOX vN" and "    edit "
_EDIT_INDENT = "    edit"


@dataclass
class ExpectedPars:
    """What the XML and SVG of one PARS must contain."""

    name: str
    duratio: list[dict[str, str]] = field(default_factory=list)
    sona: list[list[dict[str, str]]] = field(default_factory=list)
    beam_groups: int = 0
    grips: int = 0


@dataclass
class Corpus:
    text: str
    partes: list[ExpectedPars]

    @property
    def columns(self) -> int:
        return sum(len(p.duratio) for p in self.partes)


def read_grip_table(root: Path) -> list[list[str]]:
    """Rows of the fixture's grip table: ``rows[string][fret]`` is a symbol."""
    text = (root / FIXTURE).read_text(encoding="utf-8")
    body = re.search(r"=\s*\((.*?\))\s*\)", text, re.S)
    if body is None:
        raise ValueError(f"no grip table found in {FIXTURE}")
    return [row.split() for row in re.findall(r"\(([^()]*)\)", body.group(1))]


def _fmt_table(name: str, rows: list[list[str]], compact: bool) -> list[str]:
    """Source lines of one table assignment, in one of the two fixture shapes."""
    cells = [" ".join(f"{s:<2}" for s in row).rstrip() for row in rows]
    inner = [f"({c})" for c in cells]
    if compact:
        head = [f"  {name} = ( {inner[0]}"]
    else:
        head = [f"  {name}", f"   = ( {inner[0]}"]
    tail = [f"       {c}" for c in inner[1:]]
    tail[-1] += " )"
    return head + tail


# --- one column of the score -------------------------------------------------


@dataclass
class _Col:
    dur: str
    value: Fraction
    trabes: str | None
    grips: list[tuple[int, str, bool]]  # (voice index, symbol, prolongate)


class _ParsWriter:
    """Accumulates the systems of one PARS and its expectations."""

    def __init__(self, rng: random.Random, name: str, symbols: dict[str, tuple[int, int]],
                 n_voices: int, cadens: bool, edit_rate: float, note_rate: float = 0.15) -> None:
        self.rng = rng
        self.symbols = symbols
        self.symbol_list = sorted(symbols)
        self.n_voices = n_voices
        self.cadens = cadens
        self.edit_rate = edit_rate  # share of voice lines with an edit track
        self.note_rate = note_rate  # share of a tracked voice's events annotated
        self.expected = ExpectedPars(name)
        self.summa = Fraction(0)
        self.prev_value: Fraction | None = None

    def stem(self, letters: str, dotted: bool = False, beam: str = "") -> _Col:
        letter = self.rng.choice(letters)
        value = _STEM_VALUES[letter] * (Fraction(3, 2) if dotted else 1)
        text = letter + ("." if dotted else "")
        trabes = None
        if beam == "begin":
            text, trabes = text + "_", "initialis"
        elif beam == "end":
            text, trabes = "_" + text, "terminalis"
        return self._col(text, value, trabes)

    def dots(self) -> _Col:
        text = self.rng.choice(tuple(_DOT_VALUES))
        return self._col(text, _DOT_VALUES[text], None)

    def carry(self) -> _Col:
        assert self.prev_value is not None
        return self._col("-", self.prev_value, None)

    def beam(self, length: int) -> list[_Col]:
        cols = [self.stem("TFE", beam="begin")]
        cols += [self.stem("TFE") for _ in range(length - 2)]
        cols.append(self.stem("TFE", beam="end"))
        return cols

    def _col(self, text: str, value: Fraction, trabes: str | None) -> _Col:
        self.prev_value = value
        rng = self.rng
        voices = [v for v in range(self.n_voices) if rng.random() < 0.6]
        if not voices:
            voices = [rng.randrange(self.n_voices)]
        grips = [(v, rng.choice(self.symbol_list), rng.random() < 0.1) for v in voices]
        return _Col(text, value, trabes, grips)

    def system(self, cols: list[_Col]) -> list[str]:
        """Lay out one system and record its expectations; returns its lines."""
        rng = self.rng
        starts: list[int] = []
        pos = _BODY_START
        for col in cols:
            starts.append(pos)
            width = max([len(col.dur)] + [len(s) + p for _, s, p in col.grips])
            pos += width + rng.choice((1, 1, 2))
        t_line = [" "] * pos
        vox_lines = [[" "] * pos for _ in range(self.n_voices)]
        edits: list[dict[int, str]] = [{} for _ in range(self.n_voices)]
        _place(t_line, 0, "T")
        for v, line in enumerate(vox_lines):
            _place(line, 0, f"VOX v{v + 1}")
            if rng.random() < self.edit_rate:
                edits[v] = self._edits(v, cols, starts)

        exp = self.expected
        for col, start in zip(cols, starts):
            _place(t_line, start, col.dur)
            sona = []
            for v, symbol, prolongate in col.grips:
                _place(vox_lines[v], start, symbol + ("+" if prolongate else ""))
                string, fret = self.symbols[symbol]
                attrs = {"source": symbol, "fret": str(fret), "string": str(string)}
                if prolongate:
                    attrs["prolongate"] = "yes"
                attrs["ypos"] = str(v + 1)
                if start in edits[v]:
                    attrs["edit"] = edits[v][start]
                sona.append(attrs)
            # a falling duration sign sits on the row just above the topmost
            # grip; voice v is on row v + 1
            ypos = min(v for v, _, _ in col.grips) if self.cadens else 0
            duratio = {"source": col.dur, "numerus": str(len(exp.duratio)), "ypos": str(ypos)}
            if col.trabes:
                duratio["trabes"] = col.trabes
            duratio["summaPraecedentium.num"] = str(self.summa.numerator)
            duratio["summaPraecedentium.den"] = str(self.summa.denominator)
            duratio["duratio.num"] = str(col.value.numerator)
            duratio["duratio.den"] = str(col.value.denominator)
            exp.duratio.append(duratio)
            exp.sona.append(sona)
            exp.grips += len(sona)
            exp.beam_groups += col.trabes == "initialis"
            self.summa += col.value

        lines = ["".join(t_line).rstrip()]
        for v, line in enumerate(vox_lines):
            lines.append("".join(line).rstrip())
            if edits[v]:
                track = [" "] * (pos + 64)
                _place(track, 0, _EDIT_INDENT)
                end = 0
                for start, text in sorted(edits[v].items()):
                    quoted = '"' + text[:-1] + '"!' if text.endswith("!") else f'"{text}"'
                    _place(track, start, quoted)
                    end = start + len(quoted)
                if rng.random() < 0.5:
                    _place(track, end + 1, "\\\\")
                lines.append("".join(track).rstrip())
        return lines

    def _edits(self, voice: int, cols: list[_Col], starts: list[int]) -> dict[int, str]:
        """Non-overlapping annotations on some events of one voice."""
        out: dict[int, str] = {}
        free = len(_EDIT_INDENT) + 1
        for col, start in zip(cols, starts):
            if start < free or not any(v == voice for v, _, _ in col.grips):
                continue
            if self.rng.random() < self.note_rate:
                text = self.rng.choice(_ANNOTATIONS) + self.rng.choice(("", "!"))
                out[start] = text
                free = start + len(text) + 3  # quotes plus a separating space
        return out


def _place(line: list[str], start: int, text: str) -> None:
    line[start : start + len(text)] = text


def _flat_columns(part: _ParsWriter, n: int) -> list[_Col]:
    """``n`` columns mixing every duration class and short 4-stem beams.

    Needs ``duratioManet = est`` for the carry token.
    """
    rng = part.rng
    cols: list[_Col] = []
    while len(cols) < n:
        roll = rng.random()
        if roll < 0.2 and n - len(cols) >= 4:
            cols += part.beam(4)
        elif roll < 0.5:
            cols.append(part.stem("ITFE"))
        elif roll < 0.65:
            cols.append(part.stem("ITF", dotted=True))
        elif roll < 0.8:
            cols.append(part.dots())
        elif part.prev_value is not None:
            cols.append(part.carry())
        else:
            cols.append(part.stem("ITFE"))
    return cols


def _symbol_map(rows: list[list[str]]) -> dict[str, tuple[int, int]]:
    return {s: (string, fret) for string, row in enumerate(rows) for fret, s in enumerate(row)}


def _assemble(prelude: list[str], parts: list[tuple[ExpectedPars, list[str]]]) -> Corpus:
    lines = ["// generated by perfbench/corpus.py", ""] + prelude + [""]
    for expected, body in parts:
        lines += [f"PARS {expected.name}"] + body + [""]
    return Corpus("\n".join(lines) + "\n", [p for p, _ in parts])


# --- workloads ---------------------------------------------------------------


def flat_check(rng: random.Random, rows: list[list[str]], scale: float) -> Corpus:
    # Why: the everyday "did my edit compile" loop. One large PARS of
    # realistic systems (48 columns, 3 voices, every duration class, short
    # beams, '+' grips, occasional edit tracks, carry and falling duration
    # signs), run as --check. scanner, tempus, vox, model and xml_out do
    # the work; prelude is idle (one table). svg_out should be idle too;
    # while the CLI renders SVG under --check, this workload measures that
    # waste. Scaled by the number of systems.
    part = _ParsWriter(rng, "sola", _symbol_map(rows), 3, cadens=True, edit_rate=0.12)
    body = ["  bünde = Newsidler"]
    for _ in range(round(160 * scale)):
        body += part.system(_flat_columns(part, 48)) + [""]
    prelude = ["  duratioManet = est", "  duratioCadens = est", ""]
    prelude += _fmt_table("Newsidler", rows, compact=False)
    return _assemble(prelude, [(part.expected, body)])


# Beam-group lengths of one wide system, in order. Fixed, so that the
# renderer's per-group work is the same for every seed.
_WIDE_GROUPS = [1000, 4, 8, 60, 4, 500, 16, 4, 250, 30, 4, 120, 8, 4] + [4, 6, 8, 12] * 20


def wide_beams_svg(rng: random.Random, rows: list[list[str]], scale: float) -> Corpus:
    # Why: a machine-converted source that never wraps lines. Two very
    # wide systems (about 2800 columns each) where most stems sit in beam
    # groups of 4 to 1000 columns, run as --xml DIR --svg DIR. svg_out's
    # per-system beam work dominates; prelude is idle. Scaled by system
    # width, with group lengths and gaps scaled too.
    part = _ParsWriter(rng, "longa", _symbol_map(rows), 2, cadens=False, edit_rate=1.0,
                        note_rate=0.01)
    body = ["  bünde = Newsidler"]
    gap = max(round(2 * scale), 1)
    for _ in range(2):
        cols: list[_Col] = []
        for length in _WIDE_GROUPS:
            cols += part.beam(max(round(length * scale), 2))
            for _ in range(gap):
                cols.append(part.dots() if rng.random() < 0.3 else part.stem("IT", dotted=True))
        body += part.system(cols) + [""]
    prelude = ["  duratioManet = nonEst", "  duratioCadens = nonEst", ""]
    prelude += _fmt_table("Newsidler", rows, compact=True)
    return _assemble(prelude, [(part.expected, body)])


def many_pars_write(rng: random.Random, rows: list[list[str]], scale: float) -> Corpus:
    # Why: a collection file. 100 grip tables in the prelude and 500
    # small PARS, each selecting one table, run as
    # --xml DIR --svg DIR --dtd into a fresh directory (about 1000 files).
    # Only here do prelude (table re-lex, one build_symbol_map per PARS)
    # and the CLI's per-file atomic writes work, and output is written as
    # well as read. Scaled by the number of tables and PARS.
    n_tables, n_partes = round(100 * scale), round(500 * scale)
    prelude = ["  duratioManet = est", "  duratioCadens = nonEst", ""]
    tables = []
    for t in range(n_tables):
        perm = rng.sample(rows, len(rows))
        tables.append(perm)
        prelude += _fmt_table(f"Tab_{t:03d}", perm, compact=t % 2 == 1) + [""]
    parts = []
    for p in range(n_partes):
        t = rng.randrange(n_tables)
        part = _ParsWriter(rng, f"P{p:04d}", _symbol_map(tables[t]), 2, cadens=False,
                            edit_rate=0.1)
        body = [f"  bünde = Tab_{t:03d}"] + part.system(_flat_columns(part, 10))
        parts.append((part.expected, body))
    return _assemble(prelude, parts)


WORKLOADS = {
    "flat_check": (flat_check, ["--check"]),
    "wide_beams_svg": (wide_beams_svg, ["--xml", "{xml}", "--svg", "{svg}"]),
    "many_pars_write": (many_pars_write, ["--xml", "{xml}", "--svg", "{svg}", "--dtd"]),
}


def generate(workload: str, seed: int, root: Path, scale: float = 1.0) -> Corpus:
    """The workload's corpus for ``seed`` at ``scale`` times its full size."""
    make, _ = WORKLOADS[workload]
    return make(random.Random(f"{workload}:{seed}"), read_grip_table(root), scale)
