import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from lutetab import compile_source, emit_dtd, emit_pars
from lutetab.errors import EmitError
from lutetab.model import ParsModel
from lutetab.prelude import MAX_POSITION
from lutetab.vox import EDIT_TRACK, Annotation
from lutetab.xml_out import _BLOCK as BLOCK

import dtd_validator
import helpers

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def newsidler_xml(newsidler_score):
    return emit_pars(newsidler_score.partes[0])


@pytest.fixture(scope="module")
def schlick_xml(schlick_score):
    return emit_pars(schlick_score.partes[0])


def test_documents_match_golden_files(newsidler_xml, schlick_xml):
    for name, xml in (("newsidler", newsidler_xml), ("schlick", schlick_xml)):
        assert xml.encode("utf-8") == (FIXTURES / f"{name}.xml").read_bytes()


def test_documents_are_well_formed(newsidler_xml, schlick_xml):
    assert ET.fromstring(newsidler_xml).tag == "tabulatura"
    assert ET.fromstring(schlick_xml).tag == "tabulatura"


def test_declaration_and_quoting(newsidler_xml):
    assert newsidler_xml.startswith("<?xml version='1.0' encoding='UTF-8'?>\n")
    assert '"' not in newsidler_xml.split("\n", 1)[0]


def test_first_column_exact_line(newsidler_xml):
    assert (
        "    <duratio source='I' numerus='0' ypos='0' summaPraecedentium.num='0' "
        "summaPraecedentium.den='1' duratio.num='1' duratio.den='4' />" in newsidler_xml
    )
    assert "    <sonum source='f' fret='2' string='0' ypos='2' />" in newsidler_xml


def test_fifth_column_exact_line(newsidler_xml):
    assert (
        "    <duratio source='E' numerus='4' ypos='0' summaPraecedentium.num='21' "
        "summaPraecedentium.den='32' duratio.num='1' duratio.den='32' />" in newsidler_xml
    )


def test_fifth_column_attributes(newsidler_xml):
    cols = helpers.read_pars_xml(newsidler_xml)
    col = cols[4]
    assert col["source"] == "E"
    assert col["numerus"] == 4
    assert col["ypos"] == 0
    assert col["summa"] == Fraction(21, 32)
    assert col["duration"] == Fraction(1, 32)
    assert col["trabes"] is None


def test_beam_columns_carry_trabes(newsidler_xml):
    cols = helpers.read_pars_xml(newsidler_xml)
    assert cols[3]["trabes"] == "initialis"  # the first beamed thirtysecond
    assert cols[6]["trabes"] == "terminalis"
    assert [c["numerus"] for c in cols if c["trabes"] == "initialis"] == [3, 9, 13, 17, 19]
    assert [c["numerus"] for c in cols if c["trabes"] == "terminalis"] == [6, 10, 16, 18, 22]


def test_prolongate_emitted_only_when_set(newsidler_xml):
    cols = helpers.read_pars_xml(newsidler_xml)
    flagged = [(c["numerus"], s["source"]) for c in cols for s in c["sona"] if s["prolongate"]]
    assert flagged == [(13, "4")]


def test_edit_annotation_attribute(newsidler_xml):
    root = ET.fromstring(newsidler_xml)
    edits = [s.get("edit") for s in root.iter("sonum") if s.get("edit") is not None]
    assert edits == ["hardly readable, could be a '1'!"]


def test_ampersand_symbol_escapes(newsidler_xml):
    assert "source='&amp;'" in newsidler_xml
    root = ET.fromstring(newsidler_xml)
    assert any(s.get("source") == "&" for s in root.iter("sonum"))


def test_semantic_round_trip(newsidler_score, schlick_score, newsidler_xml, schlick_xml):
    for score, xml in ((newsidler_score, newsidler_xml), (schlick_score, schlick_xml)):
        assert helpers.read_pars_xml(xml) == helpers.model_as_dicts(score.partes[0])


def test_dtd_matches_golden_file():
    assert emit_dtd().encode("utf-8") == (FIXTURES / "tabulatura.dtd").read_bytes()


def test_dtd_contains_expected_lines():
    dtd = emit_dtd()
    assert "<!ELEMENT tabulatura (columna)*  >" in dtd.split("\n")
    assert any("summaPraecedentium.den  (1|2|4|8|16|32|64)" in ln for ln in dtd.split("\n"))
    assert "<!ELEMENT columna (duratio, sonum+) >" in dtd.split("\n")
    assert any("edit" in ln and "#IMPLIED" in ln for ln in dtd.split("\n"))


def test_documents_validate_against_emitted_dtd(newsidler_xml, schlick_xml):
    dtd = dtd_validator.parse_dtd(emit_dtd())
    assert dtd_validator.validate(newsidler_xml, dtd) == []
    assert dtd_validator.validate(schlick_xml, dtd) == []


def test_validator_rejects_broken_documents(newsidler_xml):
    dtd = dtd_validator.parse_dtd(emit_dtd())
    # a columna without any sonum violates the content model
    broken = newsidler_xml.replace("<sonum source='e' fret='1' string='4' ypos='2' />", "", 1)
    assert dtd_validator.validate(broken, dtd)
    # an enumeration violation
    broken = newsidler_xml.replace("duratio.den='4'", "duratio.den='3'", 1)
    assert dtd_validator.validate(broken, dtd)
    # an undeclared attribute
    broken = newsidler_xml.replace("<tabulatura>", "<tabulatura bogus='x'>", 1)
    assert dtd_validator.validate(broken, dtd)


# An independent reading of each T-line token, in whole notes.
_TOKEN_VALUES = {
    **{letter: Fraction(1, 4 << flags) for flags, letter in enumerate("ITFE")},
    **{letter + ".": Fraction(3, 8 << flags) for flags, letter in enumerate("ITFE")},
    ".": Fraction(1, 2),
    "..": Fraction(3, 4),
    "...": Fraction(1, 1),
}
_DTD_DENOMINATORS = dtd_validator.parse_dtd(emit_dtd()).attlists["duratio"]["duratio.den"].enum


def _emitted_time_pairs(tokens: list[str]) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """``((duratio.num, .den), (summaPraecedentium.num, .den))`` per emitted column."""
    source = "duratioManet = est\ntbl = ( (a) )\nPARS p\nbünde = tbl\n"
    source += "\n".join(helpers.system_lines(tokens, dict.fromkeys(range(len(tokens)), "a")))
    root = ET.fromstring(emit_pars(compile_source(source + "\n").partes[0]))
    return [
        tuple(
            (int(duratio.get(f"{name}.num")), int(duratio.get(f"{name}.den")))
            for name in ("duratio", "summaPraecedentium")
        )
        for duratio in root.iter("duratio")
    ]


@given(
    st.tuples(
        st.sampled_from(sorted(_TOKEN_VALUES)),  # a carry needs a duration before it
        st.lists(st.sampled_from(sorted([*_TOKEN_VALUES, "-"])), max_size=60),
    ).map(lambda first_rest: [first_rest[0], *first_rest[1]])
)
# running sums of 0, 64 and 96 ticks: 0/1, 1/1 and 3/2
@example(["...", ".", "I"])
def test_time_pairs_equal_reduced_fraction_fold(tokens):
    summa, value = Fraction(0), None
    expected = []
    for text in tokens:
        value = value if text == "-" else _TOKEN_VALUES[text]
        expected.append(
            ((value.numerator, value.denominator), (summa.numerator, summa.denominator))
        )
        summa += value
    got = _emitted_time_pairs(tokens)
    assert got == expected
    assert {str(den) for pairs in got for _, den in pairs} <= _DTD_DENOMINATORS


def test_emit_rejects_ypos_out_of_range(newsidler_text):
    score = compile_source(newsidler_text)
    pars = score.partes[0]
    pars.columns[0].sona[0] = pars.columns[0].sona[0]._replace(ypos=13)
    with pytest.raises(EmitError, match="ypos"):
        emit_pars(pars)


_TWIN_GRIPS = "tbl = ( (1 a f) )\nPARS p\nbünde = tbl\nT       I  I  I\nVOX v   a  a  a\n"


def test_identical_grips_differ_by_their_edit_alone():
    pars = compile_source(_TWIN_GRIPS).partes[0]
    first, second, third = (col.sona[0] for col in pars.columns)
    assert first is second is third  # one shared value; each column gets its own record below
    pars.columns[1].sona[0] = second._replace(annotations=(Annotation(EDIT_TRACK, "x<y", 14),))
    # not emitted: its line is the plain one
    pars.columns[2].sona[0] = third._replace(annotations=(Annotation("fg", "p", 17),))
    lines = [ln for ln in emit_pars(pars).split("\n") if "<sonum" in ln]
    plain = "    <sonum source='a' fret='1' string='0' ypos='1' />"
    assert lines == [plain, plain[:-3] + " edit='x&lt;y' />", plain]
    assert emit_pars(pars) == helpers.reference_emit_pars(pars)


def test_a_grip_with_only_another_track_keeps_it_and_writes_no_edit():
    """A track other than ``edit`` stays on its grip's ``Sonum``; the XML leaves it out."""
    source = _TWIN_GRIPS + '        fg "p"\n'
    score = compile_source(source)
    assert score.warnings == ["unrecognized parameter track 'fg' at line 6 (not emitted)"]
    pars = score.partes[0]
    assert [col.sona[0].annotations for col in pars.columns] == [
        (), (Annotation("fg", "p", 11),), ()
    ]
    lines = [ln for ln in emit_pars(pars).split("\n") if "<sonum" in ln]
    assert lines == ["    <sonum source='a' fret='1' string='0' ypos='1' />"] * 3


@pytest.mark.parametrize("field,what", [("fret", "fret"), ("string", "string"), ("ypos", "grip ypos")])
def test_out_of_range_twin_of_a_written_grip_raises_at_its_own_column(field, what):
    pars = compile_source(_TWIN_GRIPS).partes[0]
    # the first column's line is written, and kept for its twins, before the
    # third column, whose grip differs in one field only, is reached
    pars.columns[2].sona[0] = pars.columns[2].sona[0]._replace(**{field: MAX_POSITION + 1})
    with pytest.raises(EmitError) as exc:
        emit_pars(pars)
    assert exc.value.message == f"{what} {MAX_POSITION + 1} of column 2 is outside 0..{MAX_POSITION}"
    # a model changed by hand has no source location: the message names the column
    assert (exc.value.line, exc.value.column) == (None, None)
    with pytest.raises(EmitError) as ref:
        helpers.reference_emit_pars(pars)
    assert ref.value.message == exc.value.message


@pytest.mark.parametrize("cadens", [False, True], ids=["flat", "cadens"])
def test_a_column_without_a_grip_is_refused(schlick_text, cadens):
    """The DTD's ``columna (duratio, sonum+)`` refuses a column with no grip, so
    a model changed by hand to hold one is refused whole, before any line."""
    pars = compile_source(schlick_text).partes[0]._replace(duratio_cadens=cadens)
    pars.columns[0].sona[0] = pars.columns[0].sona[0]._replace(fret=MAX_POSITION + 1)
    pars.columns[3].sona.clear()
    message = "column 3 holds no grip (every column needs at least one)"
    for emit in (emit_pars, helpers.reference_emit_pars):
        with pytest.raises(EmitError) as exc:
            emit(pars)
        assert (exc.value.message, exc.value.line, exc.value.column) == (message, None, None)


def test_one_element_per_line_two_space_indent(newsidler_xml):
    lines = newsidler_xml.rstrip("\n").split("\n")
    assert lines[1] == "<tabulatura>"
    assert lines[2] == "  <columna>"
    assert lines[3].startswith("    <duratio ")
    assert lines[-1] == "</tabulatura>"
    assert all("><" not in ln for ln in lines)


@pytest.mark.parametrize("cadens", [False, True], ids=["flat", "cadens"])
@pytest.mark.parametrize("widths", helpers.block_widths(BLOCK), ids=str)
def test_documents_across_block_boundaries_match_the_reference(widths, cadens):
    """A beam group crosses a block boundary in the systems wider than a block."""
    pars = compile_source(helpers.block_source(widths, BLOCK, cadens)).partes[0]
    assert pars.duratio_cadens is cadens
    xml = emit_pars(pars)
    assert xml == helpers.reference_emit_pars(pars)
    assert len(helpers.read_pars_xml(xml)) == sum(widths)


def test_an_empty_pars_is_the_bare_document():
    empty = ParsModel("void", [], "tbl", [])
    assert emit_pars(empty) == helpers.reference_emit_pars(empty) == (
        "<?xml version='1.0' encoding='UTF-8'?>\n<tabulatura>\n</tabulatura>\n"
    )


def _three_blocks():
    return compile_source(helpers.block_source([2 * BLOCK + 1], BLOCK)).partes[0]


@pytest.mark.parametrize(
    "field,what", [("fret", "fret"), ("string", "string"), ("ypos", "grip ypos")]
)
def test_a_bad_position_beyond_the_first_block_raises_at_its_column(field, what):
    pars = _three_blocks()
    at = BLOCK + 5
    pars.columns[at].sona[0] = pars.columns[at].sona[0]._replace(**{field: MAX_POSITION + 1})
    message = f"{what} {MAX_POSITION + 1} of column {at} is outside 0..{MAX_POSITION}"
    for emit in (emit_pars, helpers.reference_emit_pars):
        with pytest.raises(EmitError) as exc:
            emit(pars)
        assert (exc.value.message, exc.value.line, exc.value.column) == (message, None, None)


def test_a_column_without_a_grip_beyond_the_first_block_is_refused():
    pars = _three_blocks()
    pars.columns[2 * BLOCK].sona.clear()
    message = f"column {2 * BLOCK} holds no grip (every column needs at least one)"
    for emit in (emit_pars, helpers.reference_emit_pars):
        with pytest.raises(EmitError) as exc:
            emit(pars)
        assert exc.value.message == message
