"""``build_score`` holds the scanned lines and the model no longer than it
needs, and each writer holds about one document.

The build consumes its list: each line goes once it is read or, in a
system, once its system is built, so its data peak is about the larger
of the lines and the model, not their sum. ``helpers.stage_costs`` takes
the sizes and the peak with ``tracemalloc``; its figures are exact for
one Python build, so these tests are deterministic.

The sources vary the columns from system to system and from PARS to
PARS: the scanner shares equal token texts, and lines of equal tokens would
be too small for the sum and the larger one to differ.
"""

import pytest

from lutetab import CompileError, build_score, compile_source, emit_pars, render_pars, scan_text
from lutetab import svg_out, xml_out

import helpers
from helpers import lay, stage_costs

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


@pytest.mark.parametrize("source", [one_pars(200), many_partes(200)],
                         ids=["one_pars", "many_partes"])
def test_build_peak_is_about_the_larger_of_lines_and_model(source):
    costs = stage_costs(source)
    scanned, peak, model = (costs["scan_text"].held_bytes, costs["build_score"].peak_bytes,
                            costs["build_score"].held_bytes)
    # Held together, the lines and the model would take their sum.
    assert min(scanned, model) > 200_000, (scanned, model)
    assert peak - max(scanned, model) < min(scanned, model) / 4, (scanned, peak, model)
    lines = scan_text(source)
    build_score(lines)
    assert lines == []


@pytest.mark.parametrize("source", [
    "PARS p\nbünde = t\nT  I\nVOX v  a\n",  # undefined table, found at the PARS's end
    "T  I\n",  # outside any PARS, found at the first line
])
def test_a_failed_build_empties_its_list_too(source):
    lines = scan_text(source)
    with pytest.raises(CompileError):
        build_score(lines)
    assert lines == []


def test_each_writer_holds_about_one_document():
    """Each writer grows its document block by block, so beside its input it
    holds the document and at most a block of fragments. Holding every
    fragment until one join at the end took 1.7 (XML) and 3.1 (SVG) times
    the document on this source."""
    block = max(xml_out._BLOCK, svg_out._BLOCK)
    source = helpers.block_source([8 * block + 1], block)
    costs = stage_costs(source)
    pars = compile_source(source).partes[0]
    model = costs["build_score"].held_bytes
    for stage, write in (("emit_pars", emit_pars), ("render_pars", render_pars)):
        document = len(write(pars))
        assert costs[stage].peak_bytes - model < 1.6 * document, (stage, costs[stage], document)
