"""Shared test utilities: independent token counting, XML re-reading,
source mutation. Everything here deliberately avoids the compiler's own
code paths so it can serve as an oracle."""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from fractions import Fraction

from hypothesis import strategies as st

from lutetab.tempus import TICKS_PER_WHOLE


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


def as_fraction(ticks: int) -> Fraction:
    """A model time value (integer ticks) as a fraction of a whole note."""
    return Fraction(ticks, TICKS_PER_WHOLE)


def model_as_dicts(pars) -> list[dict]:
    """The same shape as read_pars_xml, taken from the in-memory model."""
    return [
        {
            "numerus": col.numerus,
            "source": col.duration.source_text,
            "ypos": col.duration_ypos,
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
        for col in pars.columns
    ]


GRID_START = 7  # first event column, clear of the "VOX x " prefix
GRID_STEP = 4


def lay(prefix: str, items) -> str:
    """Place (column, text) items on one line, padding with spaces."""
    line = prefix
    for col, text in sorted(items):
        line += " " * (col - len(line)) + text
    return line


def grid_cols(n: int) -> list[int]:
    return [GRID_START + GRID_STEP * i for i in range(n)]


def system_lines(durations: list[str], *voices: dict[int, str], names: str = "vwxyz") -> list[str]:
    """Column-aligned T and VOX lines; voices map duration index -> symbol."""
    cols = grid_cols(len(durations))
    lines = [lay("T", zip(cols, durations))]
    for name, voice in zip(names, voices):
        lines.append(lay(f"VOX {name}", [(cols[j], sym) for j, sym in voice.items()]))
    return lines


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
# digits, line breaks and the two line openers; plus "/" and NUL, which a
# PARS name must not hold because it becomes part of output file names.
_PIECES = (
    list('ITFE._-+"()= ')
    + list("abcdefghiklmnopqrstvxyz&C")
    + list("0123456789")
    + ["\n", "\r\n", "VOX ", "T ", "/", "\x00"]
)

MUTATIONS = st.lists(
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
