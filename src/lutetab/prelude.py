"""Prelude parameters and user-defined grip tables.

The mapping from grip symbols to (string, fret) is part of the source
text, not of this program: a table assignment like

    Standard_1531_Newsidler_etAlii
     = ( (1 a  f  l  q  x  aa)
         (2 b  g  m  r  y  bb) ... )

defines one symbol per cell; row index is the string, column index the
fret (column 0 holds the open-string digits). The table's lines are the
ones the scanner marked as its continuation, and a quoted cell is one
symbol. A PARS selects its table with a ``bünde`` assignment, and
``build_symbol_map`` turns the table into a plain
``{symbol: (string, fret)}`` dict. An unrecognized parameter is ignored
with a warning.

``Parameters`` is a slotted ``Record`` that ``apply_assignment`` sets in
place; the parsed assignments and tables are ``NamedTuple`` records.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ModelError, ParseError
from .records import Record
from .scanner import LineKind, SourceLine, Token, paren_balance

MAX_POSITION = 12  # largest string/fret/ypos index the output format can hold

_FLAG_VALUES = {"est": True, "nonEst": False}
_BOOL_PARAMS = ("duratioManet", "duratioCadens")
TABLE_PARAM = "bünde"
_TABLE_BODY = (LineKind.TABLE_CONTINUATION, LineKind.BLANK)


class Parameters(Record):
    """Effective parameter set for a file or a single PARS; ``apply_assignment`` sets it."""

    __slots__ = ("duratio_manet", "duratio_cadens", "table_name")

    def __init__(
        self, duratio_manet: bool = False, duratio_cadens: bool = False,
        table_name: str | None = None,
    ) -> None:
        self.duratio_manet = duratio_manet
        self.duratio_cadens = duratio_cadens
        self.table_name = table_name

    def copy(self) -> Parameters:
        return Parameters(self.duratio_manet, self.duratio_cadens, self.table_name)


class ScalarAssignment(NamedTuple):
    name: str
    value: str
    line_number: int
    column: int


class GripTable(NamedTuple):
    name: str
    rows: list[list[str]]
    line_number: int


def parse_assignment(
    lines: list[SourceLine], idx: int
) -> tuple[ScalarAssignment | GripTable, int]:
    """Parse the assignment starting at ``lines[idx]``.

    Handles the three shapes found in sources: ``name = word``,
    ``name = ( (..) (..) )`` spanning continuation lines, and a bare name
    line whose ``= value`` follows on the next non-blank line. Returns the
    parsed object and the index of the first unconsumed line.
    """
    line = lines[idx]
    tokens = list(line.tokens)
    name_tok: Token | None = None

    if len(tokens) == 1 and "=" not in tokens[0].text:
        name_tok = tokens[0]
        j = idx + 1
        while j < len(lines) and lines[j].kind is LineKind.BLANK:
            j += 1
        follower = lines[j] if j < len(lines) else None
        if (
            follower is None
            or follower.kind is not LineKind.ASSIGNMENT
            or not follower.tokens
            or follower.tokens[0].text != "="
        ):
            raise ParseError(
                f"expected '= value' after parameter name '{name_tok.text}'",
                line=line.line_number,
                column=name_tok.start_column,
            )
        idx = j
        line = follower
        tokens = list(follower.tokens)[1:]  # past the "="
    elif tokens and tokens[0].text == "=":
        raise ParseError(
            "assignment value without a preceding name",
            line=line.line_number,
            column=tokens[0].start_column,
        )
    elif tokens and "=" in tokens[0].text and tokens[0].text != "=":
        # compact "name=value" form
        head = tokens[0]
        eq = head.text.index("=")
        name_tok = Token(head.text[:eq], head.start_column, head.line_number)
        rest = head.text[eq + 1 :]
        tokens = tokens[1:]
        if rest:
            tokens.insert(0, Token(rest, head.start_column + eq + 1, head.line_number))
    else:
        if len(tokens) < 2 or tokens[1].text != "=":
            raise ParseError(
                "malformed assignment (expected 'name = value')",
                line=line.line_number,
                column=tokens[0].start_column if tokens else 0,
            )
        name_tok = tokens[0]
        tokens = tokens[2:]

    if not name_tok.text.isidentifier():
        raise ParseError(
            f"'{name_tok.text}' is not a valid parameter name",
            line=name_tok.line_number,
            column=name_tok.start_column,
        )
    if not tokens:
        last = line.tokens[-1]
        raise ParseError(
            f"missing value in assignment of '{name_tok.text}'",
            line=line.line_number,
            column=last.start_column + len(last.text),
        )

    if tokens[0].text.startswith("("):
        return _parse_table(name_tok, tokens, lines, idx, line)

    if len(tokens) > 1:
        raise ParseError(
            f"expected a single value for '{name_tok.text}'",
            line=tokens[1].line_number,
            column=tokens[1].start_column,
        )
    item = ScalarAssignment(
        name_tok.text, tokens[0].text, name_tok.line_number, name_tok.start_column
    )
    return item, idx + 1


def _parse_table(
    name_tok: Token,
    value_tokens: list[Token],
    lines: list[SourceLine],
    idx: int,
    first_line: SourceLine,
) -> tuple[GripTable, int]:
    """Collect a table value and the continuation and blank lines the scanner marked below it.

    Those lines run while the value's parentheses stay open, so only a file
    ending inside the table leaves them unbalanced.
    """
    collected = list(value_tokens)
    j = idx + 1
    while j < len(lines) and lines[j].kind in _TABLE_BODY:
        collected.extend(lines[j].tokens)
        j += 1
    if paren_balance(collected) != 0:
        raise ParseError(
            f"unbalanced parentheses in table '{name_tok.text}'",
            line=first_line.line_number,
            column=value_tokens[0].start_column,
        )

    rows: list[list[str]] = []
    seen: dict[str, tuple[int, int]] = {}  # symbol -> (line, column) of first sighting
    level = 0
    current: list[str] | None = None
    for atom, a_line, a_col in _table_atoms(collected):
        if atom == "(":
            level += 1
            if level == 2:
                current = []
            elif level > 2:
                raise ParseError(
                    f"table '{name_tok.text}' nests deeper than rows of symbols",
                    line=a_line,
                    column=a_col,
                )
        elif atom == ")":
            if level == 2:
                rows.append(current or [])
                current = None
            level -= 1
        else:
            if level != 2:
                raise ParseError(
                    f"symbol '{atom}' outside a table row",
                    line=a_line,
                    column=a_col,
                )
            if atom in seen:
                f_line, f_col = seen[atom]
                raise ParseError(
                    f"grip symbol '{atom}' appears twice in table "
                    f"'{name_tok.text}' (first at line {f_line}, column {f_col + 1})",
                    line=a_line,
                    column=a_col,
                )
            seen[atom] = (a_line, a_col)
            current.append(atom)
    if not rows:
        raise ParseError(
            f"table '{name_tok.text}' has no rows",
            line=first_line.line_number,
            column=value_tokens[0].start_column,
        )
    return GripTable(name_tok.text, rows, name_tok.line_number), j


def _table_atoms(tokens: list[Token]):
    """Re-lex table tokens: parens separate even when glued to symbols.

    Yields ``(atom, line, column)``; a quoted token is one atom whole.
    """
    for tok in tokens:
        if tok.text[0] == '"':
            yield tok.text, tok.line_number, tok.start_column
            continue
        run_start: int | None = None
        for i, ch in enumerate(tok.text):
            if ch in "()":
                if run_start is not None:
                    yield tok.text[run_start:i], tok.line_number, tok.start_column + run_start
                    run_start = None
                yield ch, tok.line_number, tok.start_column + i
            elif run_start is None:
                run_start = i
        if run_start is not None:
            yield tok.text[run_start:], tok.line_number, tok.start_column + run_start


def apply_assignment(
    item: ScalarAssignment | GripTable,
    params: Parameters,
    tables: dict[str, GripTable],
    warnings: list[str],
) -> None:
    """Fold one parsed assignment into the active scope (last one wins)."""
    if isinstance(item, GripTable):
        tables[item.name] = item
        return
    if item.name in _BOOL_PARAMS:
        if item.value not in _FLAG_VALUES:
            raise ParseError(
                f"parameter '{item.name}' expects 'est' or 'nonEst', got '{item.value}'",
                line=item.line_number,
                column=item.column,
            )
        flag = _FLAG_VALUES[item.value]
        if item.name == "duratioManet":
            params.duratio_manet = flag
        else:
            params.duratio_cadens = flag
    elif item.name == TABLE_PARAM:
        params.table_name = item.value
    else:
        warnings.append(
            f"unrecognized parameter '{item.name}' at line {item.line_number} (ignored)"
        )


def build_symbol_map(table: GripTable) -> dict[str, tuple[int, int]]:
    """Turn table coordinates into the symbol -> (string, fret) map."""
    entries: dict[str, tuple[int, int]] = {}
    for string_index, row in enumerate(table.rows):
        if string_index > MAX_POSITION:
            raise ModelError(
                f"table '{table.name}' has more than {MAX_POSITION + 1} rows; "
                f"string indexes beyond {MAX_POSITION} are not encodable",
                line=table.line_number,
            )
        for fret, symbol in enumerate(row):
            if fret > MAX_POSITION:
                raise ModelError(
                    f"table '{table.name}' row {string_index + 1} is longer than "
                    f"{MAX_POSITION + 1} symbols; fret indexes beyond {MAX_POSITION} "
                    "are not encodable",
                    line=table.line_number,
                )
            entries[symbol] = (string_index, fret)
    return entries


def lookup_grip(
    symbol_map: dict[str, tuple[int, int]],
    table_name: str,
    symbol: str,
    line: int,
    column: int,
) -> tuple[int, int]:
    try:
        return symbol_map[symbol]
    except KeyError:
        raise ModelError(
            f"unknown grip symbol '{symbol}' (not in table '{table_name}')",
            line=line,
            column=column,
        ) from None
