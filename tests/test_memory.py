"""``build_score`` holds the scanned lines and the model no longer than it needs.

The build consumes its list: each line goes once it is read or, in a
system, once its system is built, so its data peak is about the larger
of the lines and the model, not their sum. ``tracemalloc`` counts are
exact for one Python build, and the cyclic collector is off while they
are taken, so these tests are deterministic.

The sources vary the columns from system to system and from PARS to
PARS: the scanner shares equal tokens, and lines of equal tokens would
be too small for the sum and the larger one to differ.
"""

import gc
import tracemalloc

import pytest

from lutetab import CompileError, build_score, scan_text

from helpers import lay

TABLE = "t = ( (1 a b c d e f g h) )\n"
GRIPS = "abcdefgh"


def _system(k: int, n: int) -> str:
    """System ``k``: ``n`` stems and three voices, its columns shifted by ``k``
    (below 200, so that every column is one of the ints Python caches)."""
    cols = [10 + k + 4 * j for j in range(n)]
    lines = [lay("T", [(c, "I") for c in cols])]
    lines += [lay(f"VOX v{v}", [(c, GRIPS[(j + v + k) % 8]) for j, c in enumerate(cols)])
              for v in range(3)]
    return "\n".join(lines) + "\n"


def one_pars(n: int) -> str:
    """One PARS of ``n`` systems."""
    return TABLE + "PARS p\nbünde = t\n" + "".join(_system(k, 12) for k in range(n))


def many_partes(n: int) -> str:
    """``n`` PARS of one system each."""
    return TABLE + "".join(f"PARS p{k}\nbünde = t\n" + _system(k, 12) for k in range(n))


def _phases(text: str) -> tuple[int, int, int, int]:
    """The lines' size, the build's data peak and the model's size, in bytes, and the
    number of lines left in the list after the build."""
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        lines = scan_text(text)
        scanned = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        score = build_score(lines)  # held until the model is measured
        peak = tracemalloc.get_traced_memory()[1] - base
        left = len(lines)
        del lines
        model = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    return scanned, peak, model, left


@pytest.mark.parametrize("source", [one_pars(200), many_partes(200)],
                         ids=["one_pars", "many_partes"])
def test_build_peak_is_about_the_larger_of_lines_and_model(source):
    scanned, peak, model, left = _phases(source)
    # Held together, the lines and the model would take their sum.
    assert min(scanned, model) > 200_000, (scanned, model)
    assert peak - max(scanned, model) < min(scanned, model) / 4, (scanned, peak, model)
    assert left == 0


@pytest.mark.parametrize("source", [
    "PARS p\nbünde = t\nT  I\nVOX v  a\n",  # undefined table, found at the PARS's end
    "T  I\n",  # outside any PARS, found at the first line
])
def test_a_failed_build_empties_its_list_too(source):
    lines = scan_text(source)
    with pytest.raises(CompileError):
        build_score(lines)
    assert lines == []
