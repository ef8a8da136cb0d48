"""Prelude parameters and user-defined grip tables.

The mapping from grip symbols to (string, fret) is part of the source
text, not of this program: a table assignment like

    Standard_1531_Newsidler_etAlii
     = ( (1 a  f  l  q  x  aa)
         (2 b  g  m  r  y  bb) ... )

defines one symbol per cell; row index is the string, column index the
fret (column 0 holds the open-string digits). The table's lines are the
ones the scanner marked as its continuation, and a quoted cell is one
symbol. A table is checked whole where it is defined, its 13×13 bound
included, so an oversized table is an error whether or not a PARS
selects it. ``build_symbol_map`` turns a table into a plain
``{symbol: (string, fret)}`` dict; the model maps each definition once,
where it stands, and a PARS selects a map by name with a ``bünde``
assignment. An unrecognized parameter is ignored with a warning.

The scanner has split an assignment line into its name tokens, a lone
``=`` token and its value tokens, and split every unquoted ``(`` and
``)`` off as a token of its own; the prelude reads those tokens as they
are. A value is a table when one of its tokens is ``(``: the prelude
reads a parenthesis as the scanner does, so every continuation line
belongs to the assignment above it.

``Parameters`` is a value that ``apply_assignment`` folds scalar
assignments into, returning the new scope; it and the parsed assignments
and tables are ``collections.namedtuple`` records. An assignment's name
and value may stand on different lines, so a ``ScalarAssignment`` keeps
the name's line beside the value's line and column, and ``_parse_table``
reads each table line's number beside its tokens and columns. An error
about a value points at the value: a flag's bad value, and a ``bünde``
value naming no table (``Parameters`` keeps where it was set).
"""

from collections import namedtuple

from .errors import ModelError, ParseError
from .scanner import LineKind, SourceLine

MAX_POSITION = 12  # largest string/fret/ypos index the output format can hold

_FLAG_VALUES = {"est": True, "nonEst": False}
_FLAG_FIELDS = {"duratioManet": "duratio_manet", "duratioCadens": "duratio_cadens"}
TABLE_PARAM = "bünde"


Parameters = namedtuple("Parameters", [
    "duratio_manet",
    "duratio_cadens",
    "table_name",
    "table_location",  # (line, column) of ``table_name``
], defaults=(False, False, None, None))
Parameters.__doc__ = (
    "Effective parameters of a file or a single PARS; ``apply_assignment`` folds into them."
)

ScalarAssignment = namedtuple("ScalarAssignment", [
    "name",
    "value",
    "line_number",  # the name's
    "value_line",
    "value_column",
])

GripTable = namedtuple("GripTable", ["name", "rows"])  # rows: the table's rows of cell texts


def parse_assignment(
    lines: list[SourceLine], idx: int
) -> tuple[ScalarAssignment | GripTable, int]:
    """Parse the assignment starting at ``lines[idx]``.

    Handles the three shapes found in sources: ``name = word``,
    ``name = ( (..) (..) )`` spanning continuation lines, and a bare name
    line whose ``= value`` follows on the next scanned line. Returns the
    parsed object and the index of the first unconsumed line. A bare name
    and its value stand on different lines: an error about the name names
    the name's line, an error about the value the value's.
    """
    line = lines[idx]
    tokens, columns = line.tokens, line.columns
    name_line = line.line_number
    name, column = tokens[0], columns[0]

    if name == "=":
        raise ParseError(
            "assignment value without a preceding name", line=name_line, column=column
        )
    if len(tokens) == 1:
        idx += 1
        if (
            idx == len(lines)
            or lines[idx].kind is not LineKind.ASSIGNMENT
            or lines[idx].tokens[0] != "="
        ):
            raise ParseError(
                f"expected '= value' after parameter name '{name}'",
                line=name_line,
                column=column,
            )
        line = lines[idx]
        tokens, columns = line.tokens[1:], line.columns[1:]  # past the "="
    elif tokens[1] != "=":
        raise ParseError(
            "malformed assignment (expected 'name = value')", line=name_line, column=column
        )
    else:
        tokens, columns = tokens[2:], columns[2:]

    if not name.isidentifier():
        raise ParseError(
            f"'{name}' is not a valid parameter name", line=name_line, column=column
        )
    if not tokens:
        raise ParseError(
            f"missing value in assignment of '{name}'",
            line=line.line_number,
            column=line.columns[-1] + len(line.tokens[-1]),
        )

    if "(" in tokens:
        return _parse_table(name, name_line, tokens, columns, lines, idx)

    if len(tokens) > 1:
        raise ParseError(
            f"expected a single value for '{name}'", line=line.line_number, column=columns[1]
        )
    return ScalarAssignment(name, tokens[0], name_line, line.line_number, columns[0]), idx + 1


def _parse_table(
    name: str,
    name_line: int,
    value_tokens: list[str],
    value_columns: list[int],
    lines: list[SourceLine],
    idx: int,
) -> tuple[GripTable, int]:
    """Collect a table value on ``lines[idx]`` and the continuation lines below it.

    Those lines run while the value's parentheses stay open, so only a file
    ending inside the table leaves them unbalanced; and the scanner has
    refused a ``)`` that closes no group. The value is one group of rows:
    nothing may follow its closing ``)``. Rows and cells are checked as they
    are read, bounds too; a bound error names the name's line.
    """
    first_line = lines[idx].line_number
    value_column = value_columns[0]
    depth = value_tokens.count("(") - value_tokens.count(")")
    j = idx + 1
    while j < len(lines) and lines[j].kind is LineKind.TABLE_CONTINUATION:
        tokens = lines[j].tokens
        depth += tokens.count("(") - tokens.count(")")
        j += 1
    if depth:
        raise ParseError(
            f"unbalanced parentheses in table '{name}'", line=first_line, column=value_column
        )

    rows: list[list[str]] = []
    seen: dict[str, tuple[int, int]] = {}  # symbol -> (line, column) of first sighting
    level = 0
    closed = False  # the outermost group has closed: nothing may follow
    current: list[str] = []  # the open row's symbols
    for k in range(idx, j):
        line = lines[k]
        texts, cols = (line.tokens, line.columns) if k > idx else (value_tokens, value_columns)
        for atom, a_col in zip(texts, cols):
            if atom == "(":
                if closed:
                    raise ParseError(
                        f"table '{name}' goes on after its closing ')'",
                        line=line.line_number,
                        column=a_col,
                    )
                level += 1
                if level == 2:
                    if len(rows) > MAX_POSITION:
                        raise ModelError(
                            f"table '{name}' has more than {MAX_POSITION + 1} rows; "
                            f"string indexes beyond {MAX_POSITION} are not encodable",
                            line=name_line,
                        )
                    current = []
                elif level > 2:
                    raise ParseError(
                        f"table '{name}' nests deeper than rows of symbols",
                        line=line.line_number,
                        column=a_col,
                    )
            elif atom == ")":
                if level == 2:
                    rows.append(current)
                level -= 1
                closed = level == 0
            else:
                if level != 2:
                    raise ParseError(
                        f"symbol '{atom}' outside a table row",
                        line=line.line_number,
                        column=a_col,
                    )
                if len(current) > MAX_POSITION:
                    raise ModelError(
                        f"table '{name}' row {len(rows) + 1} is longer than "
                        f"{MAX_POSITION + 1} symbols; fret indexes beyond {MAX_POSITION} "
                        "are not encodable",
                        line=name_line,
                    )
                if atom in seen:
                    f_line, f_col = seen[atom]
                    raise ParseError(
                        f"grip symbol '{atom}' appears twice in table "
                        f"'{name}' (first at line {f_line}, column {f_col + 1})",
                        line=line.line_number,
                        column=a_col,
                    )
                seen[atom] = (line.line_number, a_col)
                current.append(atom)
    if not rows:
        raise ParseError(f"table '{name}' has no rows", line=first_line, column=value_column)
    return GripTable(name, rows), j


def apply_assignment(
    item: ScalarAssignment, params: Parameters, warnings: list[str]
) -> Parameters:
    """Fold one scalar assignment into the scope ``params`` and return the new scope.

    The last assignment of a name wins.
    """
    if item.name in _FLAG_FIELDS:
        if item.value not in _FLAG_VALUES:
            raise ParseError(
                f"parameter '{item.name}' expects 'est' or 'nonEst', got '{item.value}'",
                line=item.value_line,
                column=item.value_column,
            )
        return params._replace(**{_FLAG_FIELDS[item.name]: _FLAG_VALUES[item.value]})
    if item.name == TABLE_PARAM:
        return params._replace(
            table_name=item.value, table_location=(item.value_line, item.value_column)
        )
    warnings.append(f"unrecognized parameter '{item.name}' at line {item.line_number} (ignored)")
    return params


def build_symbol_map(table: GripTable) -> dict[str, tuple[int, int]]:
    """Turn table coordinates into the symbol -> (string, fret) map."""
    return {
        symbol: (string, fret)
        for string, row in enumerate(table.rows)
        for fret, symbol in enumerate(row)
    }
