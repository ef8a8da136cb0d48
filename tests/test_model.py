from fractions import Fraction

import pytest

from lutetab import compile_source, model
from lutetab.errors import CompileError, ModelError, ParseError, format_diagnostic
from lutetab.model import compute_summa, duration_rows
from lutetab.prelude import build_symbol_map
from lutetab.tempus import KLASS_CARRY

import helpers
from helpers import as_fraction, grid_cols, lay, system_lines


def make_source(*body: str, manet: str = "nonEst", cadens: str = "nonEst") -> str:
    """A minimal compilable source around the given system lines.

    Provides a 3x3 grip table: rows (1 a f) (2 b g) (3 c h).
    """
    head = (
        f"duratioManet = {manet}\n"
        f"duratioCadens = {cadens}\n"
        "tbl = ( (1 a f) (2 b g) (3 c h) )\n"
        "PARS p\n"
        "bünde = tbl\n"
    )
    return head + "\n".join(body) + "\n"


def compile_one(*body: str, **kw):
    score = compile_source(make_source(*body, **kw))
    (pars,) = score.partes
    return pars


# --- golden fixture structure -------------------------------------------


def test_newsidler_column_count_matches_t_line(newsidler_text, newsidler_score):
    (pars,) = newsidler_score.partes
    assert pars.name == "sola"
    assert len(pars.columns) == helpers.count_t_line_tokens(newsidler_text)
    assert pars.system_ranges == [(0, len(pars.columns))]


def test_newsidler_first_column(newsidler_score):
    col = newsidler_score.partes[0].columns[0]
    assert col.duration.source_text == "I"
    assert as_fraction(col.duration.value) == Fraction(1, 4)
    assert len(col.sona) == 1
    sonum = col.sona[0]
    assert (sonum.source, sonum.string, sonum.fret, sonum.ypos) == ("f", 0, 2, 2)


def test_newsidler_first_five_summas(newsidler_score):
    cols = newsidler_score.partes[0].columns[:5]
    assert [as_fraction(c.duration.value) for c in cols] == [
        Fraction(1, 4),
        Fraction(1, 4),
        Fraction(1, 8),
        Fraction(1, 32),
        Fraction(1, 32),
    ]
    assert [as_fraction(c.summa_praecedentium) for c in cols] == [
        Fraction(0),
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(5, 8),
        Fraction(21, 32),
    ]


def test_two_voice_columns_order_top_down(newsidler_score):
    cols = [c for c in newsidler_score.partes[0].columns if len(c.sona) == 2]
    assert cols, "fixture has columns where both voices play"
    for col in cols:
        assert [s.ypos for s in col.sona] == [1, 2]


def test_sonum_conservation(newsidler_score):
    total = sum(len(c.sona) for c in newsidler_score.partes[0].columns)
    assert total == 28  # 14 grips in each of the two voices


def test_numerus_sequence(schlick_score):
    """The writers number the columns on across both systems of the PARS."""
    pars = schlick_score.partes[0]
    assert len(pars.system_ranges) == 2
    numbers = list(range(len(pars.columns)))
    assert helpers.column_numbers(pars) == (numbers, numbers)


def test_summa_strictly_increasing(schlick_score):
    cols = schlick_score.partes[0].columns
    for left, right in zip(cols, cols[1:]):
        assert left.summa_praecedentium < right.summa_praecedentium


def test_edit_annotation_attached(newsidler_score):
    # the remark sits under the second '1' grip of the lower voice
    cols = newsidler_score.partes[0].columns
    annotated = [s for c in cols for s in c.sona if s.annotations]
    assert len(annotated) == 1
    (sonum,) = annotated
    assert sonum.source == "1"
    assert sonum.annotations[0].track == "edit"
    assert sonum.annotations[0].text == "hardly readable, could be a '1'!"


def test_schlick_carry_values(schlick_score):
    (pars,) = schlick_score.partes
    carries = [k for k, c in enumerate(pars.columns) if c.duration.klass == KLASS_CARRY]
    assert len(carries) == 5
    start = pars.system_ranges[1][0]
    assert all(k >= start for k in carries)
    for k in carries:
        assert pars.columns[k].duration.value == pars.columns[k - 1].duration.value


def test_schlick_summa_continues_across_systems(schlick_score):
    (pars,) = schlick_score.partes
    (s1_start, s1_end), (s2_start, _) = pars.system_ranges
    total = Fraction(0)
    for col in pars.columns[s1_start:s1_end]:
        total += col.duration.value
    assert pars.columns[s2_start].summa_praecedentium == total


def test_telescoping_against_independent_fold(schlick_score):
    (pars,) = schlick_score.partes
    last = pars.columns[-1]
    # brute force: unreduced integer pairs, compared by cross-multiplication
    num, den = 0, 1
    for col in pars.columns:
        v = as_fraction(col.duration.value)
        num, den = num * v.denominator + v.numerator * den, den * v.denominator
    final = as_fraction(last.summa_praecedentium + last.duration.value)
    assert num * final.denominator == final.numerator * den


# --- duration ypos -------------------------------------------------------


def test_duration_ypos_flat_without_cadens(newsidler_score):
    pars = newsidler_score.partes[0]
    assert not pars.duratio_cadens
    assert duration_rows(pars) == [0] * len(pars.columns)


def test_duration_ypos_drops_with_cadens(schlick_score):
    pars = schlick_score.partes[0]
    assert pars.duratio_cadens
    rows = duration_rows(pars)
    assert rows == [max(min(s.ypos for s in col.sona) - 1, 0) for col in pars.columns]
    # both shapes occur in the fixture
    assert set(rows) == {0, 1}


def test_duration_ypos_second_voice_only():
    pars = compile_one(*system_lines(["I"], {}, {0: "1"}), cadens="est")
    assert duration_rows(pars) == [1]


def test_duration_ypos_clamped():
    pars = compile_one(*system_lines(["I"], {0: "1"}), cadens="est")
    assert duration_rows(pars) == [0]


def test_late_assignment_scopes_to_its_whole_pars():
    """An assignment below a PARS's first system applies to all its systems, not the next PARS."""
    system = system_lines(["I"], {}, {0: "a"})
    source = "\n".join(
        [
            "t1 = ( (1 a f) (2 b g) )",
            "t2 = ( (f 1 a) (g 2 b) )",
            "bünde = t1",
            "PARS p",
            *system,
            "bünde = t2",
            "duratioCadens = est",
            *system,
            "PARS q",
            *system,
        ]
    )
    p, q = compile_source(source).partes
    assert p.table_name == "t2" and q.table_name == "t1"
    assert (p.duratio_cadens, q.duratio_cadens) == (True, False)
    assert duration_rows(p) == [1, 1] and duration_rows(q) == [0]
    assert [c.sona[0].fret for c in p.columns] == [2, 2]
    assert [c.sona[0].fret for c in q.columns] == [1]


# --- trabes --------------------------------------------------------------


def test_assign_trabes_values():
    pars = compile_one(*system_lines(["E_", "E", "_E"], {0: "1", 1: "a", 2: "f"}))
    assert [c.trabes for c in pars.columns] == ["initialis", None, "terminalis"]


def test_double_beam_marker_rejected():
    source = make_source(*system_lines(["E_", "_E_", "_E"], {0: "1", 1: "a", 2: "f"}))
    with pytest.raises(ModelError, match="both ends and begins") as exc:
        compile_source(source)
    t_line = source.split("\n")[5]
    assert (exc.value.line, exc.value.column) == (6, t_line.index("_E_"))
    assert format_diagnostic(exc.value, "f.tab", source).split("\n")[1] == "  " + t_line


# --- alignment and column integrity --------------------------------------


def test_misaligned_grip_reports_position():
    cols = grid_cols(2)
    lines = system_lines(["I", "I"], {0: "1", 1: "a"})
    lines.append(lay("VOX w", [(cols[1] + 1, "b")]))
    with pytest.raises(ModelError) as exc:
        compile_one(*lines)
    err = exc.value
    assert "does not start under any duration symbol" in err.message
    assert "'w'" in err.message
    assert err.column == cols[1] + 1
    assert err.line is not None


def test_column_without_grips_rejected():
    with pytest.raises(ModelError, match="no grip event") as exc:
        compile_one(*system_lines(["I", "I"], {1: "1"}))
    assert exc.value.column == grid_cols(2)[0]


def test_compute_summa_spec_sequence():
    # durations [1/2, 3/4] -> summas [0/1, 1/2]
    pars = compile_one(*system_lines([".", ".."], {0: "1", 1: "a"}))
    assert [as_fraction(c.summa_praecedentium) for c in pars.columns] == [
        Fraction(0),
        Fraction(1, 2),
    ]
    # recomputing is idempotent
    compute_summa(pars.columns)
    assert as_fraction(pars.columns[-1].summa_praecedentium) == Fraction(1, 2)


# --- PARS-level structure -------------------------------------------------


def test_missing_table_selection_names_pars():
    source = "tbl = ( (1) )\nPARS alpha\n" + "\n".join(system_lines(["I"], {0: "1"})) + "\n"
    with pytest.raises(ModelError) as exc:
        compile_source(source)
    assert "alpha" in exc.value.message and "bünde" in exc.value.message


def test_undefined_table_reference():
    source = "PARS p\nbünde = nope\n" + "\n".join(system_lines(["I"], {0: "1"})) + "\n"
    with pytest.raises(ModelError, match="undefined grip table 'nope'"):
        compile_source(source)


def test_pars_without_system():
    source = "tbl = ( (1) )\nPARS p\nbünde = tbl\n"
    with pytest.raises(ModelError, match="no system"):
        compile_source(source)


def test_duplicate_pars_names():
    body = "bünde = tbl\n" + "\n".join(system_lines(["I"], {0: "1"})) + "\n"
    source = "tbl = ( (1) )\nPARS p\n" + body + "PARS p\n" + body
    with pytest.raises(ModelError, match="duplicate PARS name 'p'"):
        compile_source(source)


def test_vox_before_time_line():
    source = "tbl = ( (1) )\nPARS p\nbünde = tbl\nVOX v  1\nT  I\n"
    with pytest.raises(ModelError, match="before any time line"):
        compile_source(source)


def test_content_before_pars_rejected():
    with pytest.raises(ModelError, match="outside of any PARS"):
        compile_source("T  I\n")


def test_pars_header_needs_name():
    with pytest.raises(ParseError, match="needs a name"):
        compile_source("PARS\nT  I\n")


def test_empty_source_builds_empty_score():
    score = compile_source("")
    assert score.partes == []


def test_file_level_parameters_inherited():
    lines = system_lines(["I", "-"], {0: "1", 1: "a"})
    source = (
        "duratioManet = est\n"
        "tbl = ( (1 a) )\n"
        "PARS p\n"
        "bünde = tbl\n" + "\n".join(lines) + "\n"
    )
    score = compile_source(source)
    assert score.partes[0].columns[1].duration.klass == KLASS_CARRY


def test_pars_override_is_local():
    lines = "\n".join(system_lines(["I", "-"], {0: "1", 1: "a"})) + "\n"
    source = (
        "tbl = ( (1 a) )\n"
        "PARS one\nbünde = tbl\nduratioManet = est\n" + lines
        + "PARS two\nbünde = tbl\n" + lines
    )
    with pytest.raises(ParseError, match="duratioManet"):
        compile_source(source)


def test_multiple_partes_compile_independently():
    lines = "\n".join(system_lines(["I"], {0: "1"})) + "\n"
    source = (
        "tbl = ( (1 a) )\n"
        "PARS one\nbünde = tbl\n" + lines
        + "PARS two\nbünde = tbl\n" + lines
    )
    score = compile_source(source)
    assert [p.name for p in score.partes] == ["one", "two"]
    # numbering restarts per PARS
    assert helpers.column_numbers(score.partes[1]) == ([0], [0])


def test_annotation_must_align_with_an_event():
    cols = grid_cols(2)
    lines = system_lines(["I", "I"], {0: "1", 1: "a"})
    lines.append(lay("    edit", [(cols[0] + 2, '"off"')]))
    with pytest.raises(ModelError, match="does not start under any event") as exc:
        compile_one(*lines)
    assert exc.value.column == cols[0] + 2


def test_one_duration_spelling_is_one_value_across_systems():
    first = system_lines(["I", "T."], {0: "a", 1: "a"})
    second = system_lines(["T.", "I"], {0: "a", 1: "f"})
    pars = compile_one(*first, *second)
    assert [c.duration.source_text for c in pars.columns] == ["I", "T.", "T.", "I"]
    assert pars.columns[1].duration is pars.columns[2].duration
    assert pars.columns[0].duration is pars.columns[3].duration


def test_grips_of_one_text_and_row_share_one_sonum_across_systems():
    """One ``Sonum`` per (grip text, ypos) of a PARS, in every system; an
    annotated grip gets a record of its own, and the next plain one shares again."""
    cols = grid_cols(3)
    first = system_lines(["I", "I", "I"], {0: "a", 1: "a", 2: "b"}, {0: "a"})
    second = system_lines(["I", "I", "I"], {0: "a", 1: "a", 2: "a"})
    second.append(lay("    edit", [(cols[1], '"lectio dubia"')]))
    pars = compile_one(*first, *second)
    a1 = pars.columns[0].sona[0]
    assert (a1.source, a1.ypos) == ("a", 1)
    plain = [pars.columns[k].sona[0] for k in (1, 3, 5)]
    assert all(sonum is a1 for sonum in plain)
    a2 = pars.columns[0].sona[1]  # the same text one row down
    assert a2 is not a1 and (a2.source, a2.ypos) == ("a", 2)
    annotated = pars.columns[4].sona[0]
    assert annotated is not a1
    assert annotated._replace(annotations=()) == a1
    assert [ann.text for ann in annotated.annotations] == ["lectio dubia"]
    assert a1.annotations == ()


def test_annotation_attaches_to_matching_column():
    cols = grid_cols(2)
    lines = system_lines(["I", "I"], {0: "1", 1: "a"})
    lines.append(lay("    edit", [(cols[1], '"see facsimile"')]))
    pars = compile_one(*lines)
    (ann,) = pars.columns[1].sona[0].annotations
    assert (ann.track, ann.text) == ("edit", "see facsimile")
    assert pars.columns[0].sona[0].annotations == ()


def test_table_redefinition_last_wins():
    lines = "\n".join(system_lines(["I"], {0: "x"})) + "\n"
    source = "tbl = ( (1) )\ntbl = ( (x y) )\nPARS p\nbünde = tbl\n" + lines
    score = compile_source(source)
    sonum = score.partes[0].columns[0].sona[0]
    assert (sonum.string, sonum.fret) == (0, 0)


def test_each_table_definition_is_mapped_once(monkeypatch):
    """Two tables, five PARS, ``t`` redefined at the end of the third: three
    maps, and each PARS looks a grip up in the definition in force at its end."""
    calls = []

    def counting(table):
        calls.append(table.name)
        return build_symbol_map(table)

    monkeypatch.setattr(model, "build_symbol_map", counting)
    body = "\n".join(system_lines(["I"], {0: "a"})) + "\n"
    source = (
        "t = ( (1 a) )\nu = ( (a 1) )\n"
        f"PARS p1\nbünde = t\n{body}"
        f"PARS p2\nbünde = u\n{body}"
        f"PARS p3\nbünde = t\n{body}t = ( (2) (a) )\n"
        f"PARS p4\nbünde = t\n{body}"
        f"PARS p5\nbünde = u\n{body}"
    )
    score = compile_source(source)
    assert calls == ["t", "u", "t"]
    assert [
        (pars.table_name, (sonum.string, sonum.fret))
        for pars in score.partes for sonum in pars.columns[0].sona
    ] == [("t", (0, 1)), ("u", (0, 0)), ("t", (1, 0)), ("t", (1, 0)), ("u", (0, 0))]


def test_carry_may_open_a_later_system():
    """The carry opening the second system repeats the first system's last
    column, which may be a carry itself; numbering runs on across both."""
    second = system_lines(["-", "I"], {0: "1", 1: "a"})
    for durations in (["F"], ["F", "-"]):
        first = system_lines(durations, {j: "1" for j in range(len(durations))})
        pars = compile_one(*first, "", *second, manet="est")
        n = len(durations)
        assert pars.system_ranges == [(0, n), (n, n + 2)]
        numbers = list(range(n + 2))
        assert helpers.column_numbers(pars) == (numbers, numbers)
        carry = pars.columns[n].duration
        assert carry.klass == KLASS_CARRY
        assert as_fraction(carry.value) == Fraction(1, 16)
        assert pars.columns[n - 1].duration is not carry  # each carry column holds its own


def test_beam_groups_do_not_span_systems():
    first = system_lines(["E_", "E"], {0: "1", 1: "a"})
    second = system_lines(["_E"], {0: "1"})
    with pytest.raises(ModelError, match="unclosed"):
        compile_one(*first, "", *second)


def test_too_many_voices_rejected():
    voices = [{0: "1"} for _ in range(13)]
    lines = system_lines(["I"], *voices, names="abcdefghijklm")
    with pytest.raises(ModelError, match="voices"):
        compile_one(*lines)


# --- a system's lines are checked in reading order ------------------------


def first_error(source: str) -> tuple[str, str, int, int | None]:
    with pytest.raises(CompileError) as exc:
        compile_source(source)
    err = exc.value
    return type(err).__name__, err.message, err.line, err.column


def test_beam_error_on_the_t_line_comes_before_a_bare_vox_line():
    (t_line,) = system_lines(["E_", "E"])
    assert first_error(make_source(t_line, "VOX")) == (
        "ModelError", "unclosed beam group (begun at 'E_')", 6, t_line.index("E_")
    )


def test_a_bad_duration_late_on_the_t_line_comes_before_an_earlier_beam_error():
    """A T line's durations are all read before its beams are checked."""
    (t_line,) = system_lines(["_E", "x"])
    assert first_error(make_source(t_line)) == (
        "ParseError", "invalid duration token 'x'", 6, t_line.index("x")
    )


def test_grip_error_comes_before_a_bad_payload_on_the_track_below():
    lines = system_lines(["I", "I"], {0: "1", 1: "z"})
    assert first_error(make_source(*lines, "    edit  x")) == (
        "ModelError", "unknown grip symbol 'z' (not in table 'tbl')", 7, grid_cols(2)[1]
    )


def test_an_assignment_below_a_system_is_checked_before_that_systems_lines():
    """A PARS's systems wait for its end, since its assignments apply to all
    of them: a bad flag value on line 6 pre-empts the unknown grip on line 5,
    which is reported once line 6 is gone."""
    system = "t = ( (1 a) )\nPARS p\nbünde = t\nT     I\nVOX v zz\n"
    cases = [
        (system + "duratioManet = x\n", ParseError,
         "f.tab:6:16: error: parameter 'duratioManet' expects 'est' or 'nonEst', got 'x'"),
        (system, ModelError, "f.tab:5:7: error: unknown grip symbol 'zz' (not in table 't')"),
    ]
    for source, kind, first_line in cases:
        with pytest.raises(kind) as exc:
            compile_source(source)
        assert format_diagnostic(exc.value, "f.tab", source).split("\n")[0] == first_line


def test_grip_error_in_voice_1_comes_before_the_voice_bound():
    voices = [{0: "z"}] + [{0: "1"} for _ in range(12)]
    lines = system_lines(["I"], *voices, names="abcdefghijklm")
    assert first_error(make_source(*lines)) == (
        "ModelError", "unknown grip symbol 'z' (not in table 'tbl')", 7, grid_cols(1)[0]
    )
