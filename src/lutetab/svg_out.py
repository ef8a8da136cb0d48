"""SVG control graphic: a quick visual cross-check of the parsed model.

One horizontal band per system. Columns are evenly spaced (aligned to the
source layout, not proportional to time): each shows its duration symbol
as a stem with flag strokes or a beam, the grip letters at their vertical
rows, and the column number underneath. This is a verification aid, not
an engraver; geometry is plain and configurable.

Each repeated fragment is formatted once (an x per column, a y per band
and value, the font tails, a label's escape per ``Sonum``), from the same
float expression as per-element code would use, so no byte can change.
In a band every y is ``base + r * row_spacing`` for a row r, less a fixed
offset (a stem top, flag, dot or carry bar): memo ``ys``, keyed by row,
formats a row's own y and ``fmt_y``, keyed by value, each offset y.
A number keeps 12 significant digits (``_NUM``), so a column's x stays
exact at any realistic width: ``:g`` kept 6, which rounded a fractional
spacing away from x = 1e5 on and let columns drift from x = 1e6 on.

The document is one ``str`` that grows as it is written, each element on
a line of its own. A band is walked twice, in blocks of ``_BLOCK``
columns: first its column shapes, then, after its beam lines, its texts,
so that everything goes in document order and nothing waits for a later
part. A block's elements gather in a short list, which is joined onto the
document at the block's end; CPython appends in place to a ``str`` that a
single local references, so the writer's data peak is about the document
plus one block and the x strings below.

``RenderConfig`` owns the rule for that geometry: every length is finite
and strictly positive (``positive_finite``, which the CLI's geometry flags
apply too). It is a ``namedtuple``, so a built config cannot change, and
its constructor, ``_make`` and ``_replace`` all apply the rule. Finite
lengths can still sum to a coordinate that is not: ``_fmt`` refuses one
with an ``EmitError`` in the header and in each band's y strings, and so
does the header for int lengths whose sum a float cannot hold. The band
check is not covered by the header's: a height can be finite while
``band_height + row_spacing`` is not, and band 0's base is then
``0 * inf``, nan. Column
j's x is formatted once per render, into ``xs[j]``, which the beam pass
and both walks of every band read (about 64 bytes per column of the
widest band); only the rare offsets from an x are formatted inline. No x
is checked on its own: the header's width bounds every x, rounding is
monotone, and a small offset added to a finite x cannot overflow.
"""

import math
from collections import namedtuple
from itertools import chain, repeat
from operator import add, attrgetter, mul

from .errors import EmitError
from .model import PROLONGATE_SUFFIX, Memo, ParsModel, duration_rows
from .tempus import KLASS_CARRY, KLASS_DOTS, STEM_FLAGS

SVG_NS = "http://www.w3.org/2000/svg"

# The columns of a band formatted between two appends to the document:
# beside the document, the writer holds at most one block's elements.
_BLOCK = 256
_NUM = ".12g"  # the one format of every SVG number


def positive_finite(value: float) -> bool:
    """The rule for every ``RenderConfig`` length: finite and strictly positive.

    An int too large for a float (``10**400``) is not finite either.
    """
    try:
        return math.isfinite(value) and value > 0
    except OverflowError:
        return False


class RenderConfig(namedtuple(
    "RenderConfig", ["column_spacing", "row_spacing", "stem_height", "font_size", "margin"],
    defaults=(28.0, 18.0, 24.0, 12.0, 20.0),
)):
    """Render geometry in SVG user units; every length obeys ``positive_finite``.

    ``_replace`` builds through ``_make``, so it checks too.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return super().__new__(cls, *args, **kwargs)._checked()

    @classmethod
    def _make(cls, iterable):
        return super()._make(iterable)._checked()

    def _checked(self):
        for name, value in zip(self._fields, self):
            if not positive_finite(value):
                raise ValueError(f"render config {name} must be finite and strictly positive")
        return self


def _fmt(v: float) -> str:
    """``v`` as an SVG number (``_NUM``); ``inf`` and ``nan`` are none."""
    if not math.isfinite(v):
        raise EmitError(f"render geometry too large: an SVG coordinate would be {v:g}")
    return f"{v:{_NUM}}"


def _escape_text(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_pars(pars: ParsModel, config: RenderConfig | None = None) -> str:
    """Return the control graphic of ``pars`` as one SVG document, drawn with
    ``config`` (by default ``RenderConfig()``); raise ``EmitError`` for a
    model that ``model.duration_rows`` refuses and for a coordinate that is
    not finite."""
    cfg = config or RenderConfig()
    rows = duration_rows(pars)  # first: it checks the model whole
    columns = pars.columns
    sona = chain.from_iterable(map(attrgetter("sona"), columns))
    max_ypos = max(map(attrgetter("ypos"), sona), default=1)  # in C: no Python line per grip
    max_cols = max((b - a for a, b in pars.system_ranges), default=0)
    n_bands = len(pars.system_ranges)

    try:  # int lengths sum exactly, so past the float range, where a float sum is inf
        band_height = cfg.stem_height + (max_ypos + 1) * cfg.row_spacing + cfg.font_size
        width = 2 * cfg.margin + (max(max_cols - 1, 0)) * cfg.column_spacing + (
            cfg.font_size if max_cols else 0.0
        )
        height = 2 * cfg.margin + n_bands * band_height + max(n_bands - 1, 0) * cfg.row_spacing
        part = [
            f"<svg xmlns='{SVG_NS}' width='{_fmt(width)}' height='{_fmt(height)}' "
            f"viewBox='0 0 {_fmt(width)} {_fmt(height)}' font-family='monospace'>\n"
        ]
    except OverflowError:
        raise EmitError("render geometry too large: an SVG coordinate would be inf") from None

    doc = ""
    append = part.append
    grip_tail = f"' font-size='{_fmt(cfg.font_size)}' text-anchor='middle'>"
    numerus_tail = (
        f"' font-size='{_fmt(cfg.font_size * 0.75)}' text-anchor='middle' fill='#555555'>"
    )
    labels = Memo(lambda sonum: _escape_text(sonum.source + PROLONGATE_SUFFIX * sonum.prolongate))
    margin, spacing = cfg.margin, cfg.column_spacing
    row_spacing, stem_height = cfg.row_spacing, cfg.stem_height
    # Every band's x strings: column j stands at margin + j * spacing, formatted once.
    # The maps run in C, so unlike a comprehension they run no Python line per column.
    xs = list(map(format, map(add, repeat(margin), map(mul, range(max_cols), repeat(spacing))),
                  repeat(_NUM)))

    for band, (a, b) in enumerate(pars.system_ranges):
        base = margin + band * (band_height + row_spacing) + stem_height
        ys = Memo(lambda r: _fmt(base + r * row_spacing))  # by row: a row's own y
        fmt_y = Memo(_fmt)  # by value: each y offset from a row's (a top, flag, dot, carry bar)
        numerus_y = ys[max_ypos + 1]

        # A beam group runs from a beam begin to the next beam end (a begin
        # wins on a stem with both, as in ``Columna.trabes``); an unpaired
        # marker is ignored. Per column, the y its stem reaches when
        # a beam replaces the flags: the top of the highest stem in its group.
        beam_tops: list[str | None] = [None] * (b - a)
        beams: list[str] = []
        begin: int | None = None
        for j, col in enumerate(columns[a:b]):
            if col.duration.beam_begin:
                begin = j
            elif col.duration.beam_end and begin is not None:
                top = fmt_y[base + min(rows[a + begin : a + j + 1]) * row_spacing - stem_height]
                beam_tops[begin : j + 1] = [top] * (j + 1 - begin)
                beams.append(
                    f"<line x1='{xs[begin]}' y1='{top}' x2='{xs[j]}' y2='{top}' "
                    "stroke='black' stroke-width='2.5' />\n"
                )
                begin = None

        # The band's column shapes, then its beams, then its texts: the
        # columns are walked twice, so that each part is written in order.
        for lo in range(a, b, _BLOCK):
            hi = min(lo + _BLOCK, b)
            for j, (col, dy, xf) in enumerate(
                zip(columns[lo:hi], rows[lo:hi], xs[lo - a : hi - a]), lo - a
            ):
                klass = col.duration.klass
                if klass in STEM_FLAGS:
                    top = beam_tops[j]
                    if top is None:  # no beam: the stem's own top, where its flags begin
                        top_y = base + dy * row_spacing - stem_height
                        top = fmt_y[top_y]
                    append(f"<line x1='{xf}' y1='{ys[dy]}' x2='{xf}' y2='{top}' "
                           "stroke='black' />\n")
                    if beam_tops[j] is None and STEM_FLAGS[klass]:
                        flag_x = f"{margin + j * spacing + 6.0:{_NUM}}"
                        for k in range(STEM_FLAGS[klass]):
                            fy = top_y + k * 4.0
                            append(
                                f"<line x1='{xf}' y1='{fmt_y[fy]}' x2='{flag_x}' "
                                f"y2='{fmt_y[fy + 4.0]}' stroke='black' />\n"
                            )
                    if col.duration.dot_count:
                        append(
                            f"<circle cx='{margin + j * spacing + 5.0:{_NUM}}' "
                            f"cy='{fmt_y[base + dy * row_spacing - 3.0]}' r='1.6' />\n"
                        )
                elif klass == KLASS_DOTS:
                    x = margin + j * spacing
                    dot_y = fmt_y[base + dy * row_spacing - 3.0]
                    for k in range(col.duration.dot_count):
                        append(f"<circle cx='{x + k * 5.0:{_NUM}}' cy='{dot_y}' r='1.6' />\n")
                elif klass == KLASS_CARRY:
                    x = margin + j * spacing
                    carry_y = fmt_y[base + dy * row_spacing - 6.0]
                    append(
                        f"<line x1='{x - 3.0:{_NUM}}' y1='{carry_y}' "
                        f"x2='{x + 3.0:{_NUM}}' y2='{carry_y}' stroke='#999999' />\n"
                    )
            doc += "".join(part)  # in place while ``doc`` is the str's only reference (CPython)
            part.clear()
        part += beams
        for lo in range(a, b, _BLOCK):
            hi = min(lo + _BLOCK, b)
            for j, (col, xf) in enumerate(zip(columns[lo:hi], xs[lo - a : hi - a]), lo - a):
                for sonum in col.sona:
                    append(f"<text x='{xf}' y='{ys[sonum.ypos]}{grip_tail}{labels[sonum]}</text>\n")
                append(f"<text x='{xf}' y='{numerus_y}{numerus_tail}{a + j}</text>\n")
            doc += "".join(part)
            part.clear()

    append("</svg>\n")
    doc += "".join(part)
    return doc
