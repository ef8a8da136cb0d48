"""Score model assembly: systems, columns, time positions.

A system is one T line plus the voice lines below it; a PARS concatenates
its systems into one ordered column list. Every grip event must start in
the same column as a duration symbol of its system, and every column must
hold at least one grip. Temporal positions are integer ticks of 1/64 whole
note, the exact sums of all preceding durations, and do not reset at
system boundaries.

``build_score`` walks the scanned lines once, by their scanner kinds, and
``parse_assignment`` reads each assignment whole, its table lines too.
A table is mapped where it is defined: ``build_symbol_map`` makes its
symbol map, kept by the table's name until a later definition replaces
it, and a PARS looks up the map its ``bünde`` names at the PARS's end.
``apply_assignment`` folds every other assignment into the scope and
returns the scope it makes; the scope at the first ``PARS`` header is
the file's, and each PARS starts from it, not from a copy. A PARS is
built from its final scope, so an assignment below its first system
applies to all its systems and to no other PARS.

``build_score`` consumes the list it is given. The walk drops each line
from the list as it reads it; a system's lines wait in their PARS's list
of systems, and ``_build_pars`` drops them once ``build_system`` has
built the system. So the scanned lines and the model made of them are
never both held whole: the build's data peak is about the larger of the
two, not their sum.

Each line is checked where the walk reads it; a system waits for its
PARS's end. There ``_build_pars`` makes the PARS empty, and
``build_system`` checks each system whole and then extends the PARS:
the T line (durations, then beams), then each voice and track line in
order. Three checks wait for an end: an empty column for its system's,
the table selection and a PARS with no system for the PARS's. So the
first error reported is not always the first in line order: an
assignment error below a system is reported before any error in that
system. ``vox`` owns the shape of voice and track lines;
``build_system`` owns every rule about a grip's spelling: the ``+``
suffix and the symbol's table.

Errors name a line and column only; ``errors.format_diagnostic`` reads
the line they name from the source text. A token is a text in its
``SourceLine``'s ``tokens``, its column the one beside it in ``columns``,
so an error's line is that of the line its token came from: a grip's is
its voice line's, an annotation's its track line's.

``Sonum`` and ``tempus.DurationToken`` are ``namedtuple`` values, shared by
every column that holds them and never changed: one ``Sonum`` per distinct
value in the score (a grip with an annotation gets its own), one
``DurationToken`` per spelling and one per carry value. ``build_score``
keeps the score's ``Sonum`` values in one dict, each its own key; a PARS
also keeps them by ypos, then by grip text, so finding a grip met before
in its row builds no record and no key tuple. A grip new to its PARS
builds the plain tuple of its value, which finds an equal ``Sonum`` in
the score's dict, and a record only for a value new to the score.

A ``Columna`` holds only what the source states: its number is its
index, ``duration_rows`` gives its duration's row, and its read-only
``trabes`` is taken from its duration's beam markers, which the writers
read directly. It is a slotted class, compared field by field and
unhashable, because ``compute_summa`` sets its time position after it is
built.

``Memo`` is the writers' table of formatted fragments, each built on first
use and then shared; it lives here because both writers import the model.
"""

from collections import namedtuple
from operator import attrgetter

from .errors import EmitError, ModelError, ParseError
from .prelude import (
    GripTable,
    Parameters,
    apply_assignment,
    build_symbol_map,
    parse_assignment,
    MAX_POSITION,
    TABLE_PARAM,
)
from .scanner import LineKind, SourceLine
from .tempus import DurationToken, parse_tempus_line, validate_beams
from .vox import EDIT_TRACK, Annotation, parse_param_track, parse_vox_line

PROLONGATE_SUFFIX = "+"  # laissez vibrer: one, at the end of a grip symbol

TRABES_INITIALIS = "initialis"
TRABES_TERMINALIS = "terminalis"


class Memo(dict):
    """``func(key)`` for each key, computed on first use and kept: the
    writers' table of formatted fragments, each built once and then shared."""

    __slots__ = ("func",)

    def __init__(self, func) -> None:
        self.func = func

    def __missing__(self, key):
        value = self[key] = self.func(key)
        return value


Sonum = namedtuple(
    "Sonum", ["source", "string", "fret", "prolongate", "ypos", "annotations"], defaults=((),)
)
Sonum.__doc__ = "One grip: stop `string` at `fret`, pluck; a value that twin grips share."


class Columna:
    """One score column: a duration and the grips sounding under it."""

    __slots__ = ("duration", "summa_praecedentium", "sona")

    def __init__(
        self, duration: DurationToken, summa_praecedentium: int, sona: list[Sonum]
    ) -> None:
        self.duration = duration
        self.summa_praecedentium = summa_praecedentium  # in ticks of 1/64 whole note
        self.sona = sona

    @property
    def trabes(self) -> str | None:
        """The XML ``trabes`` of the duration's beam marker: begin before end, else ``None``."""
        duration = self.duration
        return (TRABES_INITIALIS if duration.beam_begin
                else TRABES_TERMINALIS if duration.beam_end else None)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


ParsModel = namedtuple("ParsModel", [
    "name",
    "columns",
    "table_name",
    "system_ranges",  # [start, end) per system
    "duratio_cadens",
], defaults=(False,))


def duration_rows(pars: ParsModel) -> list[int]:
    """The row of each column's duration symbol: the top row (0) or, with
    ``duratioCadens = est``, the free row directly above its topmost grip,
    mirroring the jumping duration signs of the originals.

    Both writers call this once per document, so it is where a model built
    or changed by hand is checked whole, before anything is written. A
    writable model's ``system_ranges`` tile ``[0, len(columns))`` in order,
    each system holding at least one column; every column holds a grip;
    and every duration row is in 0..``MAX_POSITION``. Else ``EmitError``,
    naming the system or the column. A compiled model passes.
    """
    columns = pars.columns
    n = len(columns)
    ranges = pars.system_ranges
    if n and not ranges:
        raise EmitError(f"no system holds the {n} columns")
    # Each system starts where the one before ends and ends after it starts;
    # the last ends at n. A plain loop: on the few systems of a PARS it runs
    # faster than the same test made of zip and map.
    end, last = 0, len(ranges) - 1
    for k, (start, stop) in enumerate(ranges):
        if not (type(start) is type(stop) is int and start == end < stop
                and (k < last or stop == n)):
            raise EmitError(
                f"system {k} spans columns [{start}, {stop}), but the systems must tile "
                f"[0, {n}) in order, each holding a column"
            )
        end = stop
    if not all(map(attrgetter("sona"), columns)):  # a loop here adds two line events a column
        index = next(j for j, col in enumerate(columns) if not col.sona)
        raise EmitError(f"column {index} holds no grip (every column needs at least one)")
    if not pars.duratio_cadens:
        return [0] * n
    rows = [col.sona[0].ypos - 1 for col in columns]
    if not (0 <= min(rows, default=0) and max(rows, default=0) <= MAX_POSITION):
        index = next(j for j, row in enumerate(rows) if not 0 <= row <= MAX_POSITION)
        raise EmitError(
            f"duration ypos {rows[index]} of column {index} is outside 0..{MAX_POSITION}"
        )
    return rows


ScoreModel = namedtuple("ScoreModel", ["partes", "warnings"])


def build_system(
    tempus: SourceLine,
    lines: list[SourceLine],
    pars: ParsModel,
    shared: dict[int, dict[str, Sonum]],
    values: dict[Sonum, Sonum],
    symbol_map: dict[str, tuple[int, int]],
    params: Parameters,
    warnings: list[str],
) -> None:
    """Check one system, then add its columns and its ``(start, end)`` to ``pars``.

    The lines are checked in order: the T line's durations, then its
    beams, then each voice and track line. A carry that opens the T line
    repeats the last column of ``pars``. Each grip token of a voice line
    stands under the duration symbol sharing its start column; voice order
    gives the vertical position (the T line is row 0). A grip without an
    annotation is the score's one ``Sonum`` of its value: the PARS finds it
    by ``shared[ypos][text]``, and a spelling new to the PARS takes its
    value's record from ``values``, the score's, or adds it there. A track
    line's annotations go onto the grip of the voice above that starts in
    the same column, which then gets its own record. A system that fails a
    check adds nothing.

    A spelling is checked once, where it is first met in its row; a grip's
    checks run the ``+`` rule, its column, its table, grip by grip.
    """
    columns = pars.columns
    durations = parse_tempus_line(tempus, params, columns[-1].duration if columns else None)
    validate_beams(tempus, durations)
    symbol_columns = tempus.columns[1:]
    sona_by_column: dict[int, list[Sonum]] = {column: [] for column in symbol_columns}
    notes: dict[tuple[int, int], list[Annotation]] = {}  # by grip: column, index in its sona
    ypos = 0
    for line in lines:
        if line.kind is LineKind.PARAM_TRACK:  # directly below voice ``ypos`` or its tracks
            track, annotations = parse_param_track(line)
            if track != EDIT_TRACK:
                warnings.append(
                    f"unrecognized parameter track '{track}' at line {line.line_number} "
                    "(not emitted)"
                )
            for ann in annotations:
                sona = sona_by_column.get(ann.start_column)
                if not sona or sona[-1].ypos != ypos:
                    raise ModelError(
                        f"annotation in track '{track}' does not start under any "
                        f"event of voice '{voice_name}'",
                        line=line.line_number,
                        column=ann.start_column,
                    )
                notes.setdefault((ann.start_column, len(sona) - 1), []).append(ann)
            continue
        voice_name, grips, grip_columns = parse_vox_line(line)
        ypos += 1
        if ypos > MAX_POSITION:
            raise ModelError(
                f"more than {MAX_POSITION} voices in one system; row positions beyond "
                f"{MAX_POSITION} are not encodable",
                line=line.line_number,
            )
        row = shared.setdefault(ypos, {})
        for text, column in zip(grips, grip_columns):
            sonum = row.get(text)
            if sonum is None:  # a spelling new to this row: its own checks, once
                symbol = text.removesuffix(PROLONGATE_SUFFIX)
                if not symbol or PROLONGATE_SUFFIX in symbol:  # one '+', after a symbol
                    raise ParseError(
                        f"misplaced '+' in grip token '{text}' (only one, at the end)" if symbol
                        else "bare '+' is not a grip (the marker suffixes a symbol)",
                        line=line.line_number,
                        column=column,
                    )
                position = symbol_map.get(symbol)
                if position is not None:
                    # A Sonum is a tuple, so the equal plain tuple finds it in
                    # ``values``: a record is built only for a value new to the score.
                    value = (symbol, *position, symbol != text, ypos, ())
                    sonum = values.get(value)
                    if sonum is None:
                        sonum = Sonum._make(value)
                        values[sonum] = sonum  # the key too: no plain tuple is kept
                    row[text] = sonum
            sona = sona_by_column.get(column)
            if sona is None:
                raise ModelError(
                    f"grip '{text.removesuffix(PROLONGATE_SUFFIX)}' in voice '{voice_name}' "
                    "does not start under any duration symbol of its system",
                    line=line.line_number,
                    column=column,
                )
            if sonum is None:  # reported after the column, as a grip's last check
                raise ModelError(
                    f"unknown grip symbol '{symbol}' (not in table '{pars.table_name}')",
                    line=line.line_number,
                    column=column,
                )
            sona.append(sonum)
    # Each annotated grip is replaced once: a tuple grown once per track line
    # would copy it once per track line.
    for (column, index), note in notes.items():
        sona = sona_by_column[column]
        sona[index] = sona[index]._replace(annotations=tuple(note))

    start = len(columns)
    made: list[Columna] = []
    for token, column in zip(durations, symbol_columns):
        sona = sona_by_column[column]
        if not sona:
            raise ModelError(
                f"column of duration '{token.source_text}' has no grip event "
                "(every column needs at least one)",
                line=tempus.line_number,
                column=column,
            )
        made.append(Columna(token, 0, sona))  # 0: the sum, set by compute_summa
    columns.extend(made)
    pars.system_ranges.append((start, len(columns)))


def compute_summa(columns: list[Columna]) -> None:
    """Assign each column the sum of all preceding durations, in ticks."""
    total = 0
    for col in columns:
        col.summa_praecedentium = total
        total += col.duration.value


def build_score(lines: list[SourceLine]) -> ScoreModel:
    """Build the full score model from scanned lines, emptying ``lines``.

    ``lines`` is empty when this returns or raises, so to build twice, scan
    twice. Each line goes once it is read or, in a system, once its system
    is built.
    """
    warnings: list[str] = []
    symbol_maps: dict[str, dict[str, tuple[int, int]]] = {}  # by table name: the last definition
    params = file_params = Parameters()
    partes: list[ParsModel] = []
    seen_names: dict[str, int] = {}
    header: SourceLine | None = None
    systems: list[list[SourceLine]] = []  # per system: its T line, then its voice and track lines
    values: dict[Sonum, Sonum] = {}  # the score's one record of each unannotated grip value

    i = 0
    n = len(lines)
    try:
        while i < n:
            line = lines[i]
            kind = line.kind
            if kind is LineKind.ASSIGNMENT:
                item, end = parse_assignment(lines, i)
                lines[i:end] = [None] * (end - i)
                i = end
                if isinstance(item, GripTable):
                    symbol_maps[item.name] = build_symbol_map(item)
                else:
                    params = apply_assignment(item, params, warnings)
                continue
            lines[i] = None
            i += 1
            if kind is LineKind.PARS_HEADER:
                if header is None:
                    file_params = params
                else:
                    partes.append(
                        _build_pars(header, systems, params, symbol_maps, values, warnings)
                    )
                header = line
                _check_header(header, seen_names)
                params = file_params
                systems = []
            elif header is None:
                raise ModelError(
                    f"{kind.value} outside of any PARS section",
                    line=line.line_number,
                    column=line.columns[0],
                )
            elif kind is LineKind.TEMPUS:
                systems.append([line])
            else:
                # A voice or track line. A track stands directly below a voice
                # or track line, so only a voice line can come before any T line.
                if not systems:
                    raise ModelError(
                        f"voice line before any time line in PARS '{header.tokens[1]}'",
                        line=line.line_number,
                    )
                systems[-1].append(line)
        if header is not None:
            partes.append(_build_pars(header, systems, params, symbol_maps, values, warnings))
    finally:
        lines.clear()
    return ScoreModel(partes, warnings)


def _check_header(header: SourceLine, seen_names: dict[str, int]) -> None:
    """Check a ``PARS`` header's shape and that its name is new; record the name.

    The name becomes part of output file names, so ``/`` is refused (the
    scanner has already refused NUL, which no XML document can hold).
    """
    tokens, columns = header.tokens, header.columns
    if len(tokens) < 2:
        raise ParseError(
            "PARS header needs a name", line=header.line_number, column=columns[0] + len("PARS")
        )
    name, column = tokens[1], columns[1]
    if len(tokens) > 2:
        raise ParseError(
            f"unexpected tokens after PARS name '{name}'",
            line=header.line_number,
            column=columns[2],
        )
    if "/" in name:
        raise ParseError(
            "PARS name contains '/', which cannot be part of a file name",
            line=header.line_number,
            column=column + name.index("/"),
        )
    if name in seen_names:
        raise ModelError(
            f"duplicate PARS name '{name}' (first at line {seen_names[name]})",
            line=header.line_number,
            column=column,
        )
    seen_names[name] = header.line_number


def _build_pars(
    header: SourceLine,
    systems: list[list[SourceLine]],
    params: Parameters,
    symbol_maps: dict[str, dict[str, tuple[int, int]]],
    values: dict[Sonum, Sonum],
    warnings: list[str],
) -> ParsModel:
    name = header.tokens[1]
    if not systems:
        raise ModelError(
            f"PARS '{name}' contains no system (it needs at least one time line)",
            line=header.line_number,
        )
    if params.table_name is None:
        raise ModelError(
            f"PARS '{name}' selects no grip table (missing '{TABLE_PARAM}' assignment)",
            line=header.line_number,
        )
    symbol_map = symbol_maps.get(params.table_name)
    if symbol_map is None:
        line, column = params.table_location
        raise ModelError(
            f"PARS '{name}' selects undefined grip table '{params.table_name}'",
            line=line,
            column=column,
        )

    shared: dict[int, dict[str, Sonum]] = {}  # by ypos, then grip text: the PARS's fast path
    pars = ParsModel(name, [], params.table_name, [], params.duratio_cadens)
    for k, (tempus, *lines) in enumerate(systems):
        systems[k] = None  # the system's lines go once it is built
        build_system(tempus, lines, pars, shared, values, symbol_map, params, warnings)
    compute_summa(pars.columns)
    return pars
