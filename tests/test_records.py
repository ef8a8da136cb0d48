"""The public records: keyword construction, field-wise ``==`` and a repr that names the fields."""

import pytest

from lutetab import Columna, ParsModel, RenderConfig, ScoreModel, Sonum, compile_source
from lutetab.prelude import Parameters
from lutetab.tempus import DurationToken


def _duration():
    return DurationToken("I", "I", 0, False, False, 16)


def _sonum(**changes):
    fields = dict(source="a", string=1, fret=0, prolongate=False, ypos=1, annotations=())
    return Sonum(**{**fields, **changes})


def _columna(**changes):
    fields = dict(duration=_duration(), trabes=None, summa_praecedentium=0, sona=[_sonum()])
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
}


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
    assert Columna.__slots__ == ("duration", "trabes", "summa_praecedentium", "sona")
    assert Columna(_duration(), None, 0, [_sonum()]) == _columna()
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
    """So are parameter scopes: ``apply_assignment`` returns a new one."""
    for value, field in ((_sonum(), "ypos"), (_duration(), "value"), (Parameters(), "table_name")):
        assert hash(value) == hash(type(value)(*value))
        with pytest.raises(AttributeError):
            setattr(value, field, 2)


def test_every_score_owns_its_warnings():
    source = "tbl = ( (1 a f) )\nPARS p\nbünde = tbl\nT      I  I\nVOX v  a  f\n"
    first, second = compile_source(source), compile_source(source)
    assert first.warnings is not second.warnings
