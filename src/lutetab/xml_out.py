"""XML emission: one ``tabulatura`` document per PARS, plus the DTD.

The output is deliberately verbose and line-oriented: one element per
line, 2-space indentation, single-quoted attributes in a fixed order, so
that diffs against golden files stay readable. Attribute order is
cosmetic; validation happens on parsed attribute maps.

Each ``duratio`` and ``sonum`` element is written by one f-string in that
order. Integer attributes are formatted directly once their range is
checked. Times, integer ticks of 1/64 whole note, become reduced fractions
through a denominator table whose values the DTD enumerates, so they need
no check. A ``trabes`` is one of two constant attributes, chosen by the
duration's beam markers. Only the text attributes (``source``, ``edit``)
are escaped, through a per-document memo, since grip and duration
spellings repeat. A ``sonum`` line depends on its ``Sonum`` alone, a
hashable value that the model shares between twin grips, so each distinct
one is checked and written once per document, keyed by the ``Sonum``
itself, and then reused: nearly all grip lines of a long piece repeat.

The document is one ``str`` that grows as it is written. The columns go in
blocks of ``_BLOCK``: a block's lines gather in a short list, which
is joined onto the document when the next block starts, and the last
block with the closing tag. CPython appends in place to a ``str`` that a
single local references, so the writer's data peak is about the document
plus one block, not the document and every line it is joined from.

The model owns every position bound: ``build_score`` rejects more than
``MAX_POSITION`` voices and tables beyond 13×13, and a duration ypos stays
below the voice count, so no compiled model reaches ``EmitError``. The
CLI relies on that rule: ``--check`` ends at the model and emits nothing,
yet reports every error ``--xml`` would. ``model.duration_rows`` checks a
model built or changed by hand whole, its duration rows too, before a line
is written, and ``_check_position`` each distinct grip's positions; their
errors name a system or a column by its index.

The document type mixes graphical and temporal properties (ypos next to
exact time positions) and is meant as an intermediate model for
further transformation, not as an edition format. The ``edit`` attribute
on ``sonum`` is this program's documented extension for editorial
remarks; the DTD below declares it.
"""

from itertools import islice
from math import gcd

from .errors import EmitError
from .model import TRABES_INITIALIS, TRABES_TERMINALIS, Memo, ParsModel, Sonum, duration_rows
from .prelude import MAX_POSITION
from .tempus import TICKS_PER_WHOLE
from .vox import EDIT_TRACK

_XML_DECLARATION = "<?xml version='1.0' encoding='UTF-8'?>"
_HEAD = f"{_XML_DECLARATION}\n<tabulatura>\n"

# The columns formatted between two appends to the document: beside the
# document, the writer holds at most one block's lines.
_BLOCK = 256

# _DENOMINATOR[t % TICKS_PER_WHOLE] is the reduced denominator of t/TICKS_PER_WHOLE.
_DENOMINATOR = tuple(TICKS_PER_WHOLE // gcd(t, TICKS_PER_WHOLE) for t in range(TICKS_PER_WHOLE))
_LEGAL_DENOMINATORS = tuple(sorted(set(_DENOMINATOR)))

# The DTD's enumerations, each built from the one constant that owns it.
_POSITIONS = "|".join(map(str, range(MAX_POSITION + 1)))
_DENOMINATORS = "|".join(map(str, _LEGAL_DENOMINATORS))
_TRABES = f"{TRABES_INITIALIS}|{TRABES_TERMINALIS}"

# A duration's beam marker as its attribute: a begin wins, as in ``Columna.trabes``.
_BEAM_BEGIN = f" trabes='{TRABES_INITIALIS}'"
_BEAM_END = f" trabes='{TRABES_TERMINALIS}'"

# The trabes line ends with a space; tests/fixtures/tabulatura.dtd pins it.
DTD_TEXT = f"""\
<!ELEMENT tabulatura (columna)*  >

<!ELEMENT columna (duratio, sonum+) >

<!ELEMENT duratio EMPTY>
<!ATTLIST duratio source CDATA                          #REQUIRED
                  numerus CDATA                         #REQUIRED
                  ypos   ({_POSITIONS}) #REQUIRED
                  trabes ({_TRABES})         #IMPLIED 
                  duratio.num    CDATA                  #REQUIRED
                  duratio.den    ({_DENOMINATORS})     #REQUIRED
                  summaPraecedentium.num  CDATA         #REQUIRED
                  summaPraecedentium.den  ({_DENOMINATORS}) #REQUIRED
>

<!ELEMENT sonum EMPTY>
<!ATTLIST sonum source CDATA  #REQUIRED
                  fret   ({_POSITIONS}) #REQUIRED
                  string ({_POSITIONS}) #REQUIRED
                  prolongate (yes)                      #IMPLIED
                  ypos   ({_POSITIONS}) #REQUIRED
                  edit    CDATA                         #IMPLIED
>
"""


def escape_attr(value: str) -> str:
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace("'", "&apos;")
        .replace('"', "&quot;")
    )


def _check_position(value: int, what: str, index: int) -> None:
    if not 0 <= value <= MAX_POSITION:
        raise EmitError(f"{what} {value} of column {index} is outside 0..{MAX_POSITION}")


def emit_pars(pars: ParsModel) -> str:
    """Serialize one PARS to a complete XML document string."""
    esc = Memo(escape_attr)
    sona: dict[Sonum, str] = {}  # a line per distinct grip, checked once
    items = enumerate(zip(pars.columns, duration_rows(pars)))
    doc = ""
    part = [_HEAD]
    append = part.append
    for lo in range(0, len(pars.columns), _BLOCK):
        if lo:  # the previous block joins the document
            doc += "".join(part)  # in place while ``doc`` is the str's only reference (CPython)
            part.clear()
        for numerus, (col, ypos) in islice(items, _BLOCK):
            duration = col.duration
            trabes = _BEAM_BEGIN if duration.beam_begin else _BEAM_END if duration.beam_end else ""
            summa, value = col.summa_praecedentium, duration.value
            summa_den = _DENOMINATOR[summa % TICKS_PER_WHOLE]
            value_den = _DENOMINATOR[value % TICKS_PER_WHOLE]
            append(
                f"  <columna>\n    <duratio source='{esc[duration.source_text]}' "
                f"numerus='{numerus}' ypos='{ypos}'{trabes} "
                f"summaPraecedentium.num='{summa * summa_den // TICKS_PER_WHOLE}' "
                f"summaPraecedentium.den='{summa_den}' "
                f"duratio.num='{value * value_den // TICKS_PER_WHOLE}' "
                f"duratio.den='{value_den}' />\n"
            )
            for sonum in col.sona:
                line = sona.get(sonum)
                if line is None:
                    source, string, fret, prolongate, ypos, notes = sonum
                    if not (0 <= fret <= MAX_POSITION and 0 <= string <= MAX_POSITION
                            and 0 <= ypos <= MAX_POSITION):  # then the first one outside raises
                        for position, what in (
                            (fret, "fret"), (string, "string"), (ypos, "grip ypos")
                        ):
                            _check_position(position, what, numerus)
                    edits = notes and [a.text for a in notes if a.track == EDIT_TRACK]
                    edit = f" edit='{esc['; '.join(edits)]}'" if edits else ""
                    prolongate = " prolongate='yes'" if prolongate else ""
                    line = sona[sonum] = (
                        f"    <sonum source='{esc[source]}' fret='{fret}' string='{string}'"
                        f"{prolongate} ypos='{ypos}'{edit} />\n"
                    )
                append(line)
            append("  </columna>\n")
    del items  # and the rows list it holds: a one-block document peaks at this join
    append("</tabulatura>\n")
    doc += "".join(part)
    return doc


def emit_dtd() -> str:
    """Return the document type definition for emitted documents."""
    return DTD_TEXT
