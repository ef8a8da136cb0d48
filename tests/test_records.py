"""The public records: keyword construction, field-wise ``==`` and a repr that names the fields.

Also the package's own names, four of which load their writer module on first use.
"""

import pytest

import lutetab
import lutetab.svg_out
import lutetab.xml_out
from lutetab import (
    Columna, ParsModel, RenderConfig, ScoreModel, Sonum, compile_source, emit_pars, render_pars
)
from lutetab.prelude import GripTable, Parameters, ScalarAssignment
from lutetab.scanner import LineKind, SourceLine
from lutetab.tempus import _SPELLINGS, KLASS_CARRY, DurationToken
from lutetab.vox import Annotation

import helpers


def _duration(**changes):
    fields = dict(
        source_text="I", klass="I", dot_count=0, beam_begin=False, beam_end=False, value=16
    )
    return DurationToken(**{**fields, **changes})


def _sonum(**changes):
    fields = dict(source="a", string=1, fret=0, prolongate=False, ypos=1, annotations=())
    return Sonum(**{**fields, **changes})


def _columna(**changes):
    fields = dict(duration=_duration(), summa_praecedentium=0, sona=[_sonum()])
    return Columna(**{**fields, **changes})


def _pars(**changes):
    fields = dict(
        name="p",
        columns=[_columna()],
        table_name="tbl",
        system_ranges=[(0, 1)],
        duratio_cadens=False,
    )
    return ParsModel(**{**fields, **changes})


# (build with keywords, a field name, a value that differs from the default build's)
RECORDS = {
    "Sonum": (_sonum, "ypos", 2),
    "Columna": (_columna, "summa_praecedentium", 16),
    "ParsModel": (_pars, "name", "q"),
    "ScoreModel": (lambda **kw: ScoreModel(**{"partes": [_pars()], "warnings": [], **kw}),
                   "warnings", ["w"]),
    "Parameters": (lambda **kw: Parameters(**{"duratio_manet": True, **kw}),
                   "table_name", "tbl"),
    "RenderConfig": (lambda **kw: RenderConfig(**{"margin": 4.0, **kw}), "column_spacing", 30.0),
    "SourceLine": (
        lambda **kw: SourceLine(
            **{"line_number": 3, "kind": LineKind.VOX, "tokens": [("VOX", 0), ("v", 4)], **kw}
        ),
        "line_number", 4,
    ),
    "DurationToken": (_duration, "value", 32),
    "Annotation": (
        lambda **kw: Annotation(**{"track": "edit", "text": "x", "start_column": 7, **kw}),
        "text", "y",
    ),
    "ScalarAssignment": (
        lambda **kw: ScalarAssignment(**{
            "name": "duratioManet", "value": "est", "line_number": 1, "value_line": 1,
            "value_column": 15, **kw,
        }),
        "value", "nonEst",
    ),
    "GripTable": (
        lambda **kw: GripTable(**{"name": "tbl", "rows": [["1", "a", "f"]], **kw}),
        "rows", [["2", "b", "g"]],
    ),
}

# The records whose fields are never reassigned
VALUE_RECORDS = (
    "SourceLine", "Parameters", "ScalarAssignment", "GripTable", "DurationToken", "Annotation",
    "Sonum", "ParsModel", "ScoreModel", "RenderConfig",
)
# The value records whose fields are all hashable; the others hold lists
HASHABLE = (
    "Parameters", "ScalarAssignment", "DurationToken", "Annotation", "Sonum", "RenderConfig"
)


@pytest.mark.parametrize("name", RECORDS)
def test_keyword_construction_and_fieldwise_equality(name):
    build, field, other = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    assert record == build()
    assert record != build(**{field: other})
    assert record != object()
    assert getattr(build(**{field: other}), field) == other


@pytest.mark.parametrize("name", RECORDS)
def test_repr_names_every_field(name):
    build, field, other = RECORDS[name]
    text = repr(build(**{field: other}))
    assert text.startswith(f"{name}(")
    assert f"{field}={other!r}" in text


def test_repr_lists_fields_in_order():
    assert repr(Parameters()) == (
        "Parameters(duratio_manet=False, duratio_cadens=False, table_name=None, "
        "table_location=None)"
    )
    assert repr(RenderConfig()) == (
        "RenderConfig(column_spacing=28.0, row_spacing=18.0, stem_height=24.0, "
        "font_size=12.0, margin=20.0)"
    )


def test_positional_construction_keeps_field_order():
    assert Columna.__slots__ == ("duration", "summa_praecedentium", "sona")
    assert Columna(_duration(), 0, [_sonum()]) == _columna()
    assert ParsModel("p", [_columna()], "tbl", [(0, 1)]) == _pars()
    assert Parameters(True, False, "tbl") == Parameters(
        duratio_manet=True, table_name="tbl"
    )


def test_mutable_records_are_unhashable_and_render_config_is_frozen():
    with pytest.raises(TypeError):
        hash(_columna())
    config = RenderConfig()
    assert hash(config) == hash(RenderConfig())
    with pytest.raises(AttributeError):
        config.margin = 1.0


def test_grips_and_durations_are_immutable_values():
    """So is every other value record: ``_replace`` builds a new one of the same type.

    Parameter scopes, for one, are values: ``apply_assignment`` returns a new
    one. A value is hashable when all its fields are, as a tuple is.
    """
    for name in VALUE_RECORDS:
        build, field, other = RECORDS[name]
        value = build()
        assert type(value)(*value) == value
        with pytest.raises(AttributeError):
            setattr(value, field, other)
        replaced = value._replace(**{field: other})
        assert type(replaced) is type(value)
        assert replaced == build(**{field: other})
        assert getattr(value, field) != other
        if name in HASHABLE:
            assert hash(value) == hash(type(value)(*value))
        else:
            with pytest.raises(TypeError):
                hash(value)


@pytest.mark.parametrize("build", [
    lambda: RenderConfig()._replace(margin=-1),
    lambda: RenderConfig._make([28.0, 18.0, 24.0, 12.0, 0.0]),
], ids=["_replace", "_make"])
def test_render_config_checks_every_way_it_is_built(build):
    with pytest.raises(ValueError, match="margin must be finite and strictly positive"):
        build()


def test_a_column_reads_its_beam_marker_from_its_duration():
    """All 35 spellings and a carry: a trailing ``_`` begins, a leading one ends."""
    assert len(_SPELLINGS) == 35
    carry = DurationToken("-", KLASS_CARRY, 0, False, False, 16)
    for text, duration in [*_SPELLINGS.items(), ("-", carry)]:
        expected = ("initialis" if text.endswith("_")
                    else "terminalis" if text.startswith("_") else None)
        assert _columna(duration=duration).trabes == expected, text
    with pytest.raises(AttributeError):
        _columna().trabes = "initialis"


def test_a_duration_with_both_markers_begins_in_both_writers():
    """``validate_beams`` refuses ``_E_`` in a source; a column changed by hand
    to hold it reads, and is written, as a beam begin."""
    source = (
        "tbl = ( (1 a f) )\nPARS p\nbünde = tbl\n"
        "T      E_ E  _E\n"
        "VOX v  a  a  a\n"
    )
    pars = compile_source(source).partes[0]
    pars.columns[1].duration = _SPELLINGS["_E_"]
    assert [col.trabes for col in pars.columns] == ["initialis", "initialis", "terminalis"]
    xml = emit_pars(pars)
    assert [col["trabes"] for col in helpers.read_pars_xml(xml)] == [
        "initialis", "initialis", "terminalis"
    ]
    assert xml == helpers.reference_emit_pars(pars)
    assert render_pars(pars) == helpers.reference_render_pars(pars)


def test_value_records_keep_their_defaults():
    assert Sonum("a", 1, 0, False, 1).annotations == ()
    assert ParsModel("p", [], "tbl", []).duratio_cadens is False
    params = Parameters()
    assert params.duratio_manet is False
    assert params.duratio_cadens is False
    assert params.table_name is None
    assert params.table_location is None


def test_every_score_owns_its_warnings():
    source = "tbl = ( (1 a f) )\nPARS p\nbünde = tbl\nT      I  I\nVOX v  a  f\n"
    first, second = compile_source(source), compile_source(source)
    assert first.warnings is not second.warnings


WRITER_NAMES = ("RenderConfig", "render_pars", "emit_dtd", "emit_pars")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from lutetab import *", namespace)
    assert set(lutetab.__all__) <= set(namespace)
    for name in lutetab.__all__:
        assert namespace[name] is getattr(lutetab, name)


def test_the_writer_names_are_the_writer_modules_own():
    assert set(WRITER_NAMES) <= set(dir(lutetab))
    assert lutetab.RenderConfig is lutetab.svg_out.RenderConfig
    assert lutetab.render_pars is lutetab.svg_out.render_pars
    assert lutetab.emit_pars is lutetab.xml_out.emit_pars
    assert lutetab.emit_dtd is lutetab.xml_out.emit_dtd


def test_an_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError) as exc:
        lutetab.x
    assert str(exc.value) == "module 'lutetab' has no attribute 'x'"
