"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they execute; without ``-s`` pytest still shows them for failing tests.
"""

import random
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from fractions import Fraction

import pytest

from lutetab import compile_source, emit_dtd, emit_pars, render_pars
from lutetab.cli import main
from lutetab.errors import ModelError
from lutetab.prelude import Parameters, build_symbol_map, parse_assignment
from lutetab.scanner import scan_text
from lutetab.tempus import parse_tempus_line, validate_beams

import dtd_validator
import helpers


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL  {description}")
        raise
    print(f"[criterion {number:02d}] PASS  {description}")


# --- 1: golden XML against the published fragment -------------------------


def test_criterion_01_golden_fragment(newsidler_text, fragment_text):
    with criterion(1, "golden fragment: first five columns attribute-map-equal"):
        started = time.perf_counter()
        score = compile_source(newsidler_text)
        document = emit_pars(score.partes[0])
        elapsed = time.perf_counter() - started

        got = ET.fromstring(document)
        expected = ET.fromstring(fragment_text)
        expected_cols = expected.findall("columna")
        assert len(expected_cols) == 5
        got_cols = got.findall("columna")[:5]
        for got_col, exp_col in zip(got_cols, expected_cols):
            got_duratio = dict(got_col.find("duratio").attrib)
            # the emitter always writes beam boundaries; the published
            # fragment leaves trabes off, so it is excluded from the map
            # comparison and asserted separately below
            got_duratio.pop("trabes", None)
            assert got_duratio == exp_col.find("duratio").attrib
            got_sona = [s.attrib for s in got_col.findall("sonum")]
            exp_sona = [s.attrib for s in exp_col.findall("sonum")]
            assert got_sona == exp_sona

        cols = helpers.read_pars_xml(document)
        assert [c["duration"] for c in cols[:5]] == [
            Fraction(1, 4),
            Fraction(1, 4),
            Fraction(1, 8),
            Fraction(1, 32),
            Fraction(1, 32),
        ]
        assert [c["summa"] for c in cols[:5]] == [
            Fraction(0, 1),
            Fraction(1, 4),
            Fraction(1, 2),
            Fraction(5, 8),
            Fraction(21, 32),
        ]
        grips = [(c["sona"][0]["source"], c["sona"][0]["string"], c["sona"][0]["fret"]) for c in cols[:5]]
        assert grips == [("f", 0, 2), ("f", 0, 2), ("f", 0, 2), ("e", 4, 1), ("f", 0, 2)]
        assert all(c["ypos"] == 0 for c in cols[:5])
        assert all(s["ypos"] == 2 for c in cols[:5] for s in c["sona"])
        assert cols[3]["trabes"] == "initialis"

        assert elapsed < 1.0, f"compile+emit took {elapsed:.3f}s"


# --- 2: DTD validity -------------------------------------------------------


def test_criterion_02_dtd_validity(newsidler_text, schlick_text):
    with criterion(2, "both golden documents validate against the emitted DTD"):
        dtd = dtd_validator.parse_dtd(emit_dtd())
        documents = [
            emit_pars(pars)
            for text in (newsidler_text, schlick_text)
            for pars in compile_source(text).partes
        ]
        assert documents
        for document in documents:
            assert dtd_validator.validate(document, dtd) == []
        # negative control: the validator is not vacuous
        seeded = documents[0].replace("string='0'", "string='13'", 1)
        assert dtd_validator.validate(seeded, dtd)


# --- 3: carry semantics ----------------------------------------------------


def test_criterion_03_carry_semantics(schlick_text):
    with criterion(3, "all five carry columns repeat their left neighbor's duration"):
        score = compile_source(schlick_text)
        document = emit_pars(score.partes[0])
        cols = ET.fromstring(document).findall("columna")
        carry_idx = [
            i for i, col in enumerate(cols) if col.find("duratio").get("source") == "-"
        ]
        assert len(carry_idx) == 5
        assert carry_idx == list(range(carry_idx[0], carry_idx[0] + 5))
        second_system_start = score.partes[0].system_ranges[1][0]
        assert carry_idx[0] >= second_system_start
        for i in carry_idx:
            dur = cols[i].find("duratio")
            left = cols[i - 1].find("duratio")
            assert dur.get("duratio.num") == left.get("duratio.num")
            assert dur.get("duratio.den") == left.get("duratio.den")


# --- 4: telescoping sum over fuzzed time lines ------------------------------

_BASE_PAIRS = {"I": (1, 4), "T": (1, 8), "F": (1, 16), "E": (1, 32)}
_DOT_PAIRS = {1: (1, 2), 2: (3, 4), 3: (1, 1)}


def _generate_duration_tokens(rng: random.Random, min_len: int = 1) -> list[str]:
    while True:
        n = rng.randint(min_len, 30)
        tokens: list[str] = []
        open_beam = False
        for i in range(n):
            roll = rng.random()
            # beams join stems only: no carry or dot group inside an open beam
            if i > 0 and roll < 0.12 and not open_beam:
                tokens.append("-")
                continue
            if roll < 0.22 and not open_beam:
                tokens.append(rng.choice([".", "..", "..."]))
                continue
            text = rng.choice("ITFE") + ("." if rng.random() < 0.3 else "")
            if open_beam:
                if rng.random() < 0.45:
                    text = "_" + text
                    open_beam = False
            elif rng.random() < 0.3:
                text = text + "_"
                open_beam = True
            tokens.append(text)
        if open_beam:
            tokens.append("_" + rng.choice("ITFE"))
        if any(t.strip("_").rstrip(".") in _BASE_PAIRS for t in tokens):
            return tokens


def _source_for_tokens(tokens: list[str]) -> str:
    cols: list[int] = []
    x = helpers.GRID_START
    for t in tokens:
        cols.append(x)
        x += len(t) + 1
    t_line = helpers.lay("T", zip(cols, tokens))
    vox_line = helpers.lay("VOX v", [(c, "a") for c in cols])
    return (
        "duratioManet = est\n"
        "tbl = ( (a) )\n"
        "PARS p\n"
        "bünde = tbl\n" + t_line + "\n" + vox_line + "\n"
    )


def _token_pair(text: str, prev: tuple[int, int]) -> tuple[int, int]:
    """Independent reading of one duration token as an unreduced pair."""
    if text == "-":
        return prev
    if set(text) == {"."}:
        return _DOT_PAIRS[len(text)]
    core = text.strip("_")
    num, den = _BASE_PAIRS[core.rstrip(".")[0]]
    if core.endswith("."):
        num, den = num * 3, den * 2
    return num, den


def test_criterion_04_telescoping_sum():
    with criterion(4, "1000 fuzzed time lines: final summa + duration = brute fold"):
        rng = random.Random(0xD0_0D)
        failures = 0
        for _ in range(1000):
            tokens = _generate_duration_tokens(rng)
            score = compile_source(_source_for_tokens(tokens))
            columns = score.partes[0].columns
            assert len(columns) == len(tokens)

            total = (0, 1)
            prev = (0, 1)
            for text in tokens:
                prev = _token_pair(text, prev)
                total = (total[0] * prev[1] + prev[0] * total[1], total[1] * prev[1])

            last = columns[-1]
            final = helpers.as_fraction(last.summa_praecedentium + last.duration.value)
            if total[0] * final.denominator != final.numerator * total[1]:
                failures += 1
        assert failures == 0


# --- 5: beam matching over fuzzed streams -----------------------------------


def _parse_stream(tokens: list[str]):
    cols: list[int] = []
    x = helpers.GRID_START
    for t in tokens:
        cols.append(x)
        x += len(t) + 1
    (line,) = scan_text(helpers.lay("T", zip(cols, tokens)))
    return line, parse_tempus_line(line, Parameters(duratio_manet=True)), set(cols)


def _mutate_one_marker(tokens: list[str], rng: random.Random) -> list[str]:
    """Remove one underscore marker or duplicate one onto a stem."""
    stems = [i for i, t in enumerate(tokens) if t.strip("_").rstrip(".") in _BASE_PAIRS]
    candidates: list[tuple[str, int]] = []
    for i, t in enumerate(tokens):
        if t.startswith("_") or t.endswith("_"):
            candidates.append(("remove", i))
    for i in stems:
        if not tokens[i].endswith("_"):
            candidates.append(("append", i))
        if not tokens[i].startswith("_"):
            candidates.append(("prepend", i))
    op, i = rng.choice(candidates)
    mutated = list(tokens)
    if op == "remove":
        mutated[i] = mutated[i][1:] if mutated[i].startswith("_") else mutated[i][:-1]
    elif op == "append":
        mutated[i] = mutated[i] + "_"
    else:
        mutated[i] = "_" + mutated[i]
    return mutated


def test_criterion_05_beam_matching():
    with criterion(5, "1000 fuzzed streams: balanced pass, single-marker mutants fail"):
        rng = random.Random(0xBEA9)
        misclassified = 0
        for _ in range(1000):
            tokens = _generate_duration_tokens(rng, min_len=2)
            line, parsed, cols = _parse_stream(tokens)
            try:
                validate_beams(line, parsed)
            except ModelError:
                misclassified += 1
                continue

            mutated = _mutate_one_marker(tokens, rng)
            line, parsed, cols = _parse_stream(mutated)
            try:
                validate_beams(line, parsed)
                misclassified += 1
            except ModelError as err:
                if err.column is None or err.column not in cols:
                    misclassified += 1
        assert misclassified == 0


# --- 6: grip table bijectivity ----------------------------------------------


def test_criterion_06_grip_table(newsidler_text):
    with criterion(6, "standard table: 35 entries, coordinate lookups, absent symbols error"):
        lines = scan_text(newsidler_text)
        table = None
        i = 0
        while i < len(lines):
            if lines[i].kind.value == "assignment":
                item, i = parse_assignment(lines, i)
                if hasattr(item, "rows"):
                    table = item
                    break
            else:
                i += 1
        assert table is not None
        symbol_map = build_symbol_map(table)
        assert len(symbol_map) == 35
        for row_index, row in enumerate(table.rows):
            for col_index, symbol in enumerate(row):
                assert symbol_map[symbol] == (row_index, col_index)

        rng = random.Random(0x9219)
        alphabet = "abcdefghijklmnopqrstuvwxyz0123456789&C"
        tried = 0
        while tried < 20:
            probe = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
            if probe in symbol_map:
                continue
            tried += 1
            # the probe takes the place of voice v1's last grip, "o"
            source = newsidler_text.replace(" o\nVOX v2", f" {probe}\nVOX v2", 1)
            head = source[: source.index(f" {probe}\nVOX v2") + 1]
            with pytest.raises(ModelError) as exc:
                compile_source(source)
            assert (exc.value.message, exc.value.line, exc.value.column) == (
                f"unknown grip symbol '{probe}' (not in table '{table.name}')",
                head.count("\n") + 1,
                len(head) - head.rindex("\n") - 1,
            )


# --- 7: semantic XML round trip ----------------------------------------------


def test_criterion_07_round_trip(newsidler_text, schlick_text):
    with criterion(7, "emitted XML re-reads into the exact in-memory model"):
        for text in (newsidler_text, schlick_text):
            pars = compile_source(text).partes[0]
            assert helpers.read_pars_xml(emit_pars(pars)) == helpers.model_as_dicts(pars)


# --- 8: column counts vs independent token counter ---------------------------


def test_criterion_08_column_counts(newsidler_text, schlick_text):
    with criterion(8, "compiled column counts equal independent T-line token counts"):
        for text in (newsidler_text, schlick_text):
            pars = compile_source(text).partes[0]
            assert len(pars.columns) == helpers.count_t_line_tokens(text)


# --- 9: renderer sanity -------------------------------------------------------


def test_criterion_09_renderer(newsidler_text, schlick_text):
    with criterion(9, "SVG well-formed, one text per sonum+numerus, byte-stable"):
        for text in (newsidler_text, schlick_text):
            pars = compile_source(text).partes[0]
            svg = render_pars(pars)
            root = ET.fromstring(svg)
            assert root.tag == "{http://www.w3.org/2000/svg}svg"
            text_count = len(list(root.iter("{http://www.w3.org/2000/svg}text")))
            assert text_count == sum(len(c.sona) for c in pars.columns) + len(pars.columns)
            again = render_pars(compile_source(text).partes[0])
            assert again.encode() == svg.encode()


# --- 10: diagnostics -----------------------------------------------------------


def test_criterion_10_diagnostics(tmp_path, newsidler_text, capsys):
    with criterion(10, "mutations produce exit 1 with precise, distinct diagnostics"):
        mutated, line_no, column = helpers.shift_last_vox_token(newsidler_text)
        shifted = tmp_path / "shifted.tab"
        shifted.write_text(mutated, encoding="utf-8")
        code = main([str(shifted), "--check"])
        shifted_err = capsys.readouterr().err
        assert code == 1
        assert f":{line_no}:{column + 1}:" in shifted_err

        unbound = tmp_path / "unbound.tab"
        unbound.write_text(helpers.drop_table_selection(newsidler_text), encoding="utf-8")
        code = main([str(unbound), "--check"])
        unbound_err = capsys.readouterr().err
        assert code == 1
        assert "sola" in unbound_err and "bünde" in unbound_err
        assert unbound_err != shifted_err
