import contextlib
import gc
import io
import os
import re
import stat
import subprocess
import sys
import tempfile
import tomllib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lutetab
from lutetab import cli, svg_out, xml_out
from lutetab.cli import main
from lutetab.prelude import MAX_POSITION

import helpers

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def newsidler_file(tmp_path, newsidler_text):
    path = tmp_path / "newsidler.tab"
    path.write_text(newsidler_text, encoding="utf-8")
    return path


@pytest.fixture
def schlick_file(tmp_path, schlick_text):
    path = tmp_path / "schlick.tab"
    path.write_text(schlick_text, encoding="utf-8")
    return path


def test_xml_output_written(newsidler_file, tmp_path):
    out = tmp_path / "xml"
    code = main([str(newsidler_file), "--xml", str(out)])
    assert code == 0
    target = out / "newsidler.sola.xml"
    assert target.exists()
    assert target.read_text(encoding="utf-8").startswith("<?xml")
    assert not list(out.glob("*.tmp"))


def test_svg_output_written(schlick_file, tmp_path):
    out = tmp_path / "svg"
    assert main([str(schlick_file), "--svg", str(out)]) == 0
    assert (out / "schlick.sola.svg").exists()


def test_dtd_written_alongside_xml(newsidler_file, tmp_path):
    out = tmp_path / "xml"
    assert main([str(newsidler_file), "--xml", str(out), "--dtd"]) == 0
    assert (out / "tabulatura.dtd").read_text(encoding="utf-8").startswith("<!ELEMENT tabulatura")


def test_dtd_alone_writes_to_cwd(newsidler_file, tmp_path, monkeypatch):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    assert main([str(newsidler_file), "--dtd"]) == 0
    assert (workdir / "tabulatura.dtd").exists()


def test_check_only_writes_nothing(newsidler_file, tmp_path, capsys):
    before = set(os.listdir(tmp_path))
    assert main([str(newsidler_file), "--check"]) == 0
    assert set(os.listdir(tmp_path)) == before


def test_unrequested_svg_is_not_rendered(newsidler_file, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("render_pars called although no SVG is written")

    monkeypatch.setattr("lutetab.cli.render_pars", refuse)
    assert main([str(newsidler_file), "--check"]) == 0
    assert main([str(newsidler_file), "--check", "--svg", str(tmp_path / "svg")]) == 0
    assert not (tmp_path / "svg").exists()
    out = tmp_path / "xml"
    assert main([str(newsidler_file), "--xml", str(out)]) == 0
    assert (out / "newsidler.sola.xml").exists()


def test_the_writers_are_called_through_the_cli_namespace(newsidler_file, tmp_path, monkeypatch):
    # The tracer and the tests above replace these names in cli; a writer
    # called some other way would escape both.
    calls = []

    def spy(name):
        writer = getattr(cli, name)

        def call(*args):
            calls.append(name)
            return writer(*args)

        return call

    for name in ("emit_pars", "emit_dtd", "render_pars"):
        monkeypatch.setattr(cli, name, spy(name))
    out = tmp_path / "out"
    assert main([str(newsidler_file), "--xml", str(out), "--svg", str(out), "--dtd"]) == 0
    assert sorted(calls) == ["emit_dtd", "emit_pars", "render_pars"]


def test_unrequested_xml_is_not_emitted(newsidler_file, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("emit_pars called although no XML is written")

    def written():
        return sorted(str(p.relative_to(work)) for p in work.rglob("*") if p.is_file())

    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setattr("lutetab.cli.emit_pars", refuse)
    assert main([str(newsidler_file), "--check"]) == 0
    assert written() == []
    assert main([str(newsidler_file), "--svg", "svg"]) == 0
    assert written() == ["svg/newsidler.sola.svg"]
    assert main([str(newsidler_file), "--dtd"]) == 0
    assert written() == ["svg/newsidler.sola.svg", "tabulatura.dtd"]
    monkeypatch.setattr("lutetab.cli.emit_pars", lutetab.emit_pars)
    assert main([str(newsidler_file), "--xml", "xml"]) == 0
    assert (work / "xml" / "newsidler.sola.xml").read_bytes() == (
        FIXTURES / "newsidler.xml"
    ).read_bytes()


def test_beam_over_dot_group_is_located_error(tmp_path, capsys):
    head = "tbl = ( (1 a f) )\nPARS p\nbünde = tbl\n"
    t_line, vox_line = helpers.system_lines(["E_", ".", "_E"], {0: "a", 1: "f", 2: "1"})
    path = tmp_path / "dotbeam.tab"
    path.write_text(head + t_line + "\n" + vox_line + "\n", encoding="utf-8")
    assert main([str(path), "--check"]) == 1
    err = capsys.readouterr().err
    assert f"dotbeam.tab:4:{helpers.grid_cols(3)[1] + 1}: error:" in err
    assert "Traceback" not in err


def test_pars_filter_hits(newsidler_file, tmp_path):
    out = tmp_path / "xml"
    assert main([str(newsidler_file), "--xml", str(out), "--pars", "sola"]) == 0
    assert (out / "newsidler.sola.xml").exists()


def test_pars_filter_miss_lists_available(newsidler_file, capsys):
    code = main([str(newsidler_file), "--check", "--pars", "missing"])
    err = capsys.readouterr().err
    assert code == 1
    assert "missing" in err
    assert "sola" in err


def test_unreadable_input(tmp_path, capsys):
    code = main([str(tmp_path / "absent.tab"), "--check"])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_undecodable_input(tmp_path, capsys):
    path = tmp_path / "binary.tab"
    path.write_bytes(b"\xff\xfe\x00junk")
    assert main([str(path), "--check"]) == 2


def test_no_action_flag_is_usage_error(newsidler_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main([str(newsidler_file)])
    assert exc.value.code == 2
    assert "nothing to do" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [["--xml", ""], ["--svg", ""], ["--xml", "", "--svg", "out"], ["--svg", "", "--xml", "out"]],
    ids=["xml-alone", "svg-alone", "xml-with-svg", "svg-with-xml"],
)
def test_empty_output_directory_is_usage_error(
    newsidler_file, tmp_path, monkeypatch, capsys, flags
):
    """An empty DIR names no directory: alone or beside another output, exit 2, nothing written."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([str(newsidler_file), *flags])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "lutetab: error: --xml and --svg need a DIR that is not empty\n"
    )
    assert sorted(tmp_path.iterdir()) == [newsidler_file]


def test_unknown_flag_is_usage_error(newsidler_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main([str(newsidler_file), "--frobnicate"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"lutetab {lutetab.__version__}\n"
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert lutetab.__version__ == project["version"]


def test_misaligned_token_diagnostic(tmp_path, newsidler_text, capsys):
    mutated, line_no, column = helpers.shift_last_vox_token(newsidler_text)
    path = tmp_path / "shifted.tab"
    path.write_text(mutated, encoding="utf-8")
    code = main([str(path), "--check"])
    err = capsys.readouterr().err
    assert code == 1
    assert f":{line_no}:{column + 1}:" in err
    assert "^" in err  # caret excerpt


def test_missing_table_diagnostic_names_pars(tmp_path, newsidler_text, capsys):
    path = tmp_path / "unbound.tab"
    path.write_text(helpers.drop_table_selection(newsidler_text), encoding="utf-8")
    code = main([str(path), "--check"])
    err = capsys.readouterr().err
    assert code == 1
    assert "sola" in err and "bünde" in err


def test_error_leaves_no_output_files(tmp_path, newsidler_text, capsys):
    mutated, _, _ = helpers.shift_last_vox_token(newsidler_text)
    path = tmp_path / "shifted.tab"
    path.write_text(mutated, encoding="utf-8")
    out = tmp_path / "xml"
    assert main([str(path), "--xml", str(out)]) == 1
    assert not out.exists() or not list(out.iterdir())


def test_warning_for_unknown_parameter(tmp_path, newsidler_text, capsys):
    path = tmp_path / "warned.tab"
    path.write_text("tonus = d\n" + newsidler_text, encoding="utf-8")
    assert main([str(path), "--check"]) == 0
    assert "warning" in capsys.readouterr().err


def test_quoted_paren_in_scalar_value_opens_no_table(tmp_path, capsys):
    path = tmp_path / "quoted.tab"
    path.write_text(
        'tonus = "(x"\ntbl = ( (1 a) )\nPARS p\nbünde = tbl\nT      I\nVOX v  a\n',
        encoding="utf-8",
    )
    assert main([str(path), "--check"]) == 0
    assert capsys.readouterr().err == (
        f"{path}: warning: unrecognized parameter 'tonus' at line 1 (ignored)\n"
    )


def test_render_geometry_flags(newsidler_file, tmp_path):
    out = tmp_path / "svg"
    assert main([str(newsidler_file), "--svg", str(out), "--col-spacing", "40"]) == 0
    wide = (out / "newsidler.sola.svg").read_text(encoding="utf-8")
    assert main([str(newsidler_file), "--svg", str(out)]) == 0
    normal = (out / "newsidler.sola.svg").read_text(encoding="utf-8")
    assert wide != normal


def test_same_invocation_is_deterministic(newsidler_file, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main([str(newsidler_file), "--xml", str(out_a), "--svg", str(out_a)]) == 0
    assert main([str(newsidler_file), "--xml", str(out_b), "--svg", str(out_b)]) == 0
    for name in ("newsidler.sola.xml", "newsidler.sola.svg"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_close_and_reopen_beam_marker_diagnostic(tmp_path, capsys):
    head = "tbl = ( (1 a f) )\nPARS p\nbünde = tbl\n"
    t_line, vox_line = helpers.system_lines(["E_", "_E_", "_E"], {0: "a", 1: "f", 2: "1"})
    path = tmp_path / "reopen.tab"
    path.write_text(head + t_line + "\n" + vox_line + "\n", encoding="utf-8")
    assert main([str(path), "--check"]) == 1
    column = t_line.index("_E_")
    assert capsys.readouterr().err == (
        f"{path}:4:{column + 1}: error: '_E_' both ends and begins a beam group; the output "
        "format records only one marker per stem, so write the boundary on two neighboring "
        f"stems instead\n  {t_line}\n  {' ' * column}^\n"
    )


def test_failed_rename_leaves_no_temp_file(newsidler_file, tmp_path, monkeypatch, capsys):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr("lutetab.cli.os.replace", refuse)
    out = tmp_path / "xml"
    assert main([str(newsidler_file), "--xml", str(out)]) == 2
    assert list(out.iterdir()) == []
    assert capsys.readouterr().err == (
        f"{out}: error: cannot write {out / 'newsidler.sola.xml'}: rename refused\n"
    )


def test_a_temp_that_cannot_be_unlinked_still_gives_the_write_error(
    newsidler_file, tmp_path, monkeypatch, capsys
):
    def refuse(*args):
        raise OSError("refused")

    unlinked = []

    def refuse_unlink(path):
        unlinked.append(Path(path).name)
        raise OSError("unlink refused")

    monkeypatch.setattr("lutetab.cli.os.replace", refuse)
    monkeypatch.setattr("lutetab.cli.os.unlink", refuse_unlink)
    out = tmp_path / "xml"
    assert main([str(newsidler_file), "--xml", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"{out}: error: cannot write {out / 'newsidler.sola.xml'}: refused\n"
    )
    [temp] = unlinked
    assert re.fullmatch(r"lutetab-.*\.tmp", temp)


def test_a_source_with_no_pars_leaves_its_output_directory_made_and_empty(tmp_path, capsys):
    source = tmp_path / "tables.tab"
    source.write_text("t = ( (1 a) )\n", encoding="utf-8")
    out = tmp_path / "xml"
    assert main([str(source), "--xml", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("subdir", ["", "sub"], ids=["dir-is-file", "parent-is-file"])
def test_unwritable_output_directory_exits_2(newsidler_file, tmp_path, capsys, subdir):
    blocker = tmp_path / "notadir"
    blocker.write_text("", encoding="utf-8")
    out = blocker / subdir if subdir else blocker
    strerror = "Not a directory" if subdir else "File exists"
    assert main([str(newsidler_file), "--xml", str(out), "--dtd"]) == 2
    assert capsys.readouterr().err == f"{out}: error: cannot write {out}: {strerror}\n"
    assert not list(tmp_path.rglob("*.tmp"))


_TWO_PARS = (
    "tbl = ( (1 a) )\nPARS p\nbünde = tbl\nT      I\nVOX v  a\n"
    "PARS q\nbünde = tbl\nT      I  I\nVOX v  a  a\n"
)


@pytest.mark.parametrize("primitive", ["open", "write", "replace"])
def test_write_fault_at_every_call_leaves_a_clean_file_set(
    tmp_path, monkeypatch, capsys, primitive
):
    """Failing the k-th call of each write primitive, for every k, is a located exit 2.

    No temp file is left, and a failure before the first rename leaves
    every target as it was. Each primitive is called at least once per
    output, so one that the CLI no longer calls fails here rather than
    injecting no fault.
    """
    path = tmp_path / "two.tab"
    path.write_text(_TWO_PARS, encoding="utf-8")
    out = tmp_path / "out"
    argv = [str(path), "--xml", str(out / "xml"), "--svg", str(out / "svg"), "--dtd"]
    real = getattr(os, primitive)
    calls = []

    def faulty(*args, **kwargs):
        calls.append(args)
        if len(calls) == fail_at:
            raise OSError(5, "injected failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(os, primitive, faulty)
    fail_at = 0
    assert main(argv) == 0
    fresh = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert len(fresh) == 5  # two XML, two SVG, one DTD
    total = len(calls)
    assert total >= len(fresh), calls
    for fail_at in range(1, total + 1):
        for target in fresh:
            target.write_bytes(b"old\n")
        calls.clear()
        capsys.readouterr()
        assert main(argv) == 2, fail_at
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert re.fullmatch(r"\S+: error: cannot write \S+: injected failure\n", err), err
        assert not list(out.rglob("*.tmp")), fail_at
        contents = {target: target.read_bytes() for target in fresh}
        if primitive != "replace" or fail_at == 1:
            assert set(contents.values()) == {b"old\n"}, fail_at
        else:
            renamed = [t for t in contents if contents[t] == fresh[t]]
            assert len(renamed) == fail_at - 1, fail_at
            assert all(contents[t] in (b"old\n", fresh[t]) for t in contents)


def test_at_most_one_document_is_alive_at_a_time(tmp_path, monkeypatch):
    """Each document is written to its temp file and dropped before the next is made."""
    live = peak = 0

    class Document(str):
        def __del__(self):
            nonlocal live
            live -= 1

    def counted(writer):
        def write(*args):
            nonlocal live, peak
            document = Document(writer(*args))
            live += 1
            peak = max(peak, live)
            return document

        return write

    monkeypatch.setattr(cli, "emit_pars", counted(cli.emit_pars))
    monkeypatch.setattr(cli, "render_pars", counted(cli.render_pars))
    path = tmp_path / "three.tab"
    path.write_text(_TWO_PARS + "PARS r\nbünde = tbl\nT      I\nVOX v  a\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([str(path), "--xml", str(out / "xml"), "--svg", str(out / "svg")]) == 0
    assert len(list(out.rglob("*.*"))) == 6  # three XML, three SVG
    assert (peak, live) == (1, 0)


# The larger of the writers' blocks, in columns.
_WIDER_BLOCK = max(xml_out._BLOCK, svg_out._BLOCK)


def _break_beyond_the_first_block(pars, fault: str) -> str:
    """Change column ``2 * _WIDER_BLOCK`` of a compiled ``pars`` by hand;
    return the error it gets."""
    at = 2 * _WIDER_BLOCK
    if fault == "no grip":
        pars.columns[at].sona = ()
        return f"column {at} holds no grip (every column needs at least one)"
    helpers.replace_grip(pars.columns[at], 0, fret=MAX_POSITION + 1)
    return f"fret {MAX_POSITION + 1} of column {at} is outside 0..{MAX_POSITION}"


@pytest.mark.parametrize("fault,flags", [
    ("no grip", ["--xml", "--svg"]), ("no grip", ["--svg"]), ("bad fret", ["--xml", "--svg"]),
], ids=["no-grip-xml-svg", "no-grip-svg", "bad-fret-xml-svg"])
def test_a_model_refused_beyond_the_first_block_leaves_no_file(
    tmp_path, monkeypatch, capsys, fault, flags
):
    """The second PARS, changed by hand past its writers' first block, fails
    after the first PARS's documents are written to temps: they go too."""
    text = helpers.block_source([2 * _WIDER_BLOCK + 1], _WIDER_BLOCK)
    text += "PARS q\n" + text.split("PARS p\n", 1)[1]
    build, message = cli.build_score, []

    def build_and_break(lines):
        score = build(lines)
        message.append(_break_beyond_the_first_block(score.partes[1], fault))
        return score

    monkeypatch.setattr(cli, "build_score", build_and_break)
    monkeypatch.chdir(tmp_path)  # where --dtd without --xml would write
    path = tmp_path / "in" / "wide.tab"
    path.parent.mkdir()
    path.write_text(text, encoding="utf-8")
    argv = [str(path)]
    for flag in flags:
        argv += [flag, str(tmp_path / "out")]
    assert main([*argv, "--dtd"]) == 1
    assert capsys.readouterr().err == f"{path}: error: {message[0]}\n"
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [path]


# At --col-spacing 1e308 the first PARS, three columns wide, is too wide to render.
_WIDE_FIRST = (
    "tbl = ( (1 a) )\nPARS p\nbünde = tbl\nT      I  I  I\nVOX v  a  a  a\n"
    "PARS q\nbünde = tbl\nT      I\nVOX v  a\n"
)


def test_render_error_after_the_xml_temps_leaves_an_empty_xml_directory(tmp_path, capsys):
    """The XML directory is made for the XML temps before the first render
    fails; the temps are unlinked, the SVG directory is never made."""
    path = tmp_path / "two.tab"
    path.write_text(_WIDE_FIRST, encoding="utf-8")
    xml, svg = tmp_path / "xml", tmp_path / "svg"
    argv = [str(path), "--xml", str(xml), "--svg", str(svg), "--col-spacing", "1e308"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"{path}: error: render geometry too large: an SVG coordinate would be inf\n"
    )
    assert list(xml.iterdir()) == []
    assert not svg.exists()


def test_unmakeable_directory_is_reported_before_a_later_render_error(tmp_path, capsys):
    path = tmp_path / "two.tab"
    path.write_text(_WIDE_FIRST, encoding="utf-8")
    blocker = tmp_path / "notadir"
    blocker.write_text("", encoding="utf-8")
    xml, svg = blocker / "xml", tmp_path / "svg"
    argv = [str(path), "--xml", str(xml), "--svg", str(svg), "--col-spacing", "1e308"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"{xml}: error: cannot write {xml}: Not a directory\n"
    assert not svg.exists()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("case", ["written", "render-error", "unmakeable-directory"])
def test_a_run_leaves_no_descriptor_open(tmp_path, capsys, case):
    """``_write_temp``'s raw ``os.open`` descriptors raise no ``ResourceWarning``
    when left open, so count the process's descriptors around the run."""
    path = tmp_path / "two.tab"
    path.write_text(_WIDE_FIRST, encoding="utf-8")
    xml, svg, code = tmp_path / "xml", tmp_path / "svg", 0
    extra = ["--dtd"]
    if case != "written":
        extra, code = ["--col-spacing", "1e308"], 1
    if case == "unmakeable-directory":
        (tmp_path / "notadir").write_text("", encoding="utf-8")
        xml, code = tmp_path / "notadir" / "xml", 2
    argv = [str(path), "--xml", str(xml), "--svg", str(svg), *extra]
    before = len(os.listdir("/proc/self/fd"))
    assert main(argv) == code
    assert len(os.listdir("/proc/self/fd")) == before
    capsys.readouterr()


def test_failed_second_temp_write_leaves_no_file(tmp_path, monkeypatch, capsys):
    path = tmp_path / "two.tab"
    path.write_text(_TWO_PARS, encoding="utf-8")
    out = tmp_path / "xml"
    real = os.write
    calls = 0

    def faulty(fd, data):
        nonlocal calls
        calls += 1
        if calls == 2:
            raise OSError(5, "injected failure")
        return real(fd, data)

    monkeypatch.setattr("lutetab.cli.os.write", faulty)
    assert main([str(path), "--xml", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"{out}: error: cannot write {out / 'two.q.xml'}: injected failure\n"
    )
    assert list(out.iterdir()) == []


def test_write_temp_round_trips_a_document_longer_than_one_slice(tmp_path, monkeypatch):
    """The document is encoded one bounded slice of code points at a time, and the
    file holds exactly its UTF-8 bytes, with multi-byte characters on either side
    of a slice boundary."""
    step = cli._WRITE_SLICE
    data = "a" * (step - 2) + "\u00fc\u20ac" + "\U0001f600lectio dubia \u00df" + "b" * step + "\u00e4"
    writes = []
    real = os.write

    def recording(fd, view):
        writes.append(len(view))
        return real(fd, view)

    monkeypatch.setattr(os, "write", recording)
    tmp = cli._write_temp(tmp_path / "doc.svg", data)
    assert Path(tmp).parent == tmp_path
    assert Path(tmp).read_bytes() == data.encode("utf-8")
    assert len(writes) == 3 and max(writes) <= 4 * step


def test_longest_target_name_the_file_system_takes_is_written(tmp_path):
    """A 246-byte target name leaves no room to build a temp name on it; the
    fixed temp prefix writes it all the same."""
    name = "p" * 240
    path = tmp_path / "t.tab"
    path.write_text(f"tbl = ( (1 a) )\nPARS {name}\nbünde = tbl\nT      I\nVOX v  a\n", "utf-8")
    out = tmp_path / "out"
    assert main([str(path), "--xml", str(out), "--svg", str(out)]) == 0
    assert len(f"t.{name}.xml".encode()) == 246
    assert sorted(p.name for p in out.iterdir()) == [f"t.{name}.svg", f"t.{name}.xml"]


@pytest.mark.skipif(os.name != "posix", reason="file modes and the umask are POSIX")
@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask-022", "umask-077"])
def test_new_and_replaced_outputs_get_the_mode_the_umask_leaves(newsidler_file, tmp_path, umask):
    out = tmp_path / "out"
    out.mkdir()
    replaced = out / "newsidler.sola.xml"
    replaced.write_bytes(b"old\n")
    replaced.chmod(0o640)
    before = os.umask(umask)
    try:
        assert main([str(newsidler_file), "--xml", str(out), "--svg", str(out), "--dtd"]) == 0
    finally:
        os.umask(before)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
    names = ("newsidler.sola.xml", "newsidler.sola.svg", "tabulatura.dtd")
    assert modes == dict.fromkeys(names, 0o666 & ~umask)


@pytest.mark.parametrize(
    "name, stem",
    [("x.tab", "x"), ("a.b.tab", "a.b"), (".x", ".x"), ("x", "x"), ("..x", "."),
     ("x.", "x."), ("x..", "x.."), (".x.", ".x."), ("dir/y.", "y.")],
)
def test_output_names_take_the_input_stem_and_a_trailing_dot_is_no_suffix(
    newsidler_text, tmp_path, name, stem
):
    source = tmp_path / name
    source.parent.mkdir(exist_ok=True)
    source.write_text(newsidler_text, encoding="utf-8")
    out = tmp_path / "out"
    assert main([str(source), "--xml", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == [f"{stem}.sola.xml"]


def test_read_and_write_errors_name_each_path_as_given(
    newsidler_file, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    assert main(["./missing.tab", "--check"]) == 2
    assert capsys.readouterr().err == (
        "./missing.tab: error: cannot read input: [Errno 2] No such file or directory: "
        "'./missing.tab'\n"
    )
    (tmp_path / "notadir").write_text("", encoding="utf-8")
    assert main([str(newsidler_file), "--xml", "./notadir//sub"]) == 2
    assert capsys.readouterr().err == (
        "./notadir//sub: error: cannot write ./notadir//sub: Not a directory\n"
    )


def test_byte_order_mark_is_skipped(newsidler_text, tmp_path):
    plain, marked = tmp_path / "plain.tab", tmp_path / "marked.tab"
    plain.write_text(newsidler_text, encoding="utf-8")
    marked.write_text("\ufeff" + newsidler_text, encoding="utf-8")
    assert main([str(plain), "--xml", str(tmp_path)]) == 0
    assert main([str(marked), "--xml", str(tmp_path)]) == 0
    xml = (tmp_path / "plain.sola.xml").read_bytes()
    assert xml == (FIXTURES / "newsidler.xml").read_bytes()
    assert (tmp_path / "marked.sola.xml").read_bytes() == xml


def test_byte_order_mark_keeps_line_one_columns(tmp_path, capsys):
    path = tmp_path / "marked.tab"
    path.write_text("\ufeff   duratioManet = maybe\n" + _SMALL_PARS, encoding="utf-8")
    assert main([str(path), "--check"]) == 1
    assert capsys.readouterr().err == (
        f"{path}:1:19: error: parameter 'duratioManet' expects 'est' or 'nonEst', got 'maybe'\n"
        "     duratioManet = maybe\n"
        "                    ^\n"
    )


def test_lone_cr_ends_a_line_for_the_cli(tmp_path):
    # universal newlines: the scanner, which refuses a lone CR, never sees one
    lf, cr = tmp_path / "lf.tab", tmp_path / "cr.tab"
    lf.write_bytes(_SMALL_PARS.encode("utf-8"))
    cr.write_bytes(_SMALL_PARS.replace("\n", "\r").encode("utf-8"))
    assert main([str(lf), "--xml", str(tmp_path / "lf")]) == 0
    assert main([str(cr), "--xml", str(tmp_path / "cr")]) == 0
    xml = (tmp_path / "lf" / "lf.p.xml").read_bytes()
    assert (tmp_path / "cr" / "cr.p.xml").read_bytes() == xml


def test_geometry_overflowing_to_inf_is_refused(newsidler_file, tmp_path, capsys):
    """Every length is finite, but the width is not: nothing is written."""
    out = tmp_path / "svg"
    assert main([str(newsidler_file), "--svg", str(out), "--col-spacing", "1e308"]) == 1
    assert capsys.readouterr().err == (
        f"{newsidler_file}: error: render geometry too large: an SVG coordinate would be inf\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "flag,value", [("--col-spacing", "nan"), ("--margin", "inf"), ("--font-size", "-inf")]
)
def test_non_finite_geometry_is_usage_error(newsidler_file, tmp_path, capsys, flag, value):
    out = tmp_path / "svg"
    with pytest.raises(SystemExit) as exc:
        main([str(newsidler_file), "--svg", str(out), f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"{flag}: {value} is not finite and strictly positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["abc", "", "1,5"])
def test_non_number_geometry_is_usage_error(newsidler_file, tmp_path, capsys, value):
    out = tmp_path / "svg"
    with pytest.raises(SystemExit) as exc:
        main([str(newsidler_file), "--svg", str(out), f"--margin={value}"])
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == f"lutetab: error: argument --margin: {value} is not a number"
    assert not out.exists()


def test_geometry_flags_are_checked_without_svg(newsidler_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main([str(newsidler_file), "--check", "--margin", "abc"])
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == "lutetab: error: argument --margin: abc is not a number"
    assert main([str(newsidler_file), "--check", "--margin", "3"]) == 0
    assert capsys.readouterr().err == ""


def test_non_edit_track_warns(tmp_path, capsys):
    path = tmp_path / "tracks.tab"
    path.write_text(
        "tbl = ( (1 a f) )\nPARS p\nbünde = tbl\nT       I  I\nVOX v   a  f\n"
        '    edit   "x"\n    fg     "p"\n    fg\n',
        encoding="utf-8",
    )
    assert main([str(path), "--check"]) == 0
    assert capsys.readouterr().err == (
        f"{path}: warning: unrecognized parameter track 'fg' at line 7 (not emitted)\n"
        f"{path}: warning: unrecognized parameter track 'fg' at line 8 (not emitted)\n"
    )


@pytest.mark.parametrize("name", ["newsidler", "schlick"])
def test_fixtures_warn_nothing(name, capsys):
    assert main([str(FIXTURES / f"{name}.tab"), "--check"]) == 0
    assert capsys.readouterr().err == ""


def test_misaligned_annotation_diagnostic(tmp_path, capsys):
    track = '    edit    "late"'
    path = tmp_path / "annotation.tab"
    path.write_text(
        "tbl = ( (1 a f) )\nPARS p\nbünde = tbl\nT       I  I\nVOX v   a  f\n" + track + "\n",
        encoding="utf-8",
    )
    assert main([str(path), "--check"]) == 1
    column = track.index('"')
    assert capsys.readouterr().err == (
        f"{path}:6:{column + 1}: error: annotation in track 'edit' does not start under any "
        f"event of voice 'v'\n  {track}\n  {' ' * column}^\n"
    )


def test_oversized_table_diagnostic(tmp_path, capsys):
    rows = "\n".join(f"        ({chr(ord('a') + i)})" for i in range(1, 14))
    path = tmp_path / "table.tab"
    path.write_text(
        f"tbl = ( (a)\n{rows} )\nPARS p\nbünde = tbl\nT  I\nVOX v  a\n", encoding="utf-8"
    )
    assert main([str(path), "--check"]) == 1
    assert capsys.readouterr().err == (
        f"{path}:1: error: table 'tbl' has more than 13 rows; string indexes beyond 12 "
        "are not encodable\n  tbl = ( (a)\n"
    )


# The CLI as a user and the benchmark run it: ``python -m lutetab.cli`` in a
# child without -X dev, so the process ends through ``cli.entry``'s flush and
# os._exit, with no interpreter teardown. Each expected exit code, stream and
# file is what the same run gave when it ended through sys.exit(main()).
_ROOT = FIXTURES.parents[1]
_posix_shell = pytest.mark.skipif(os.name != "posix", reason="redirects with sh")


def _child(*argv: str, redirect: str = "") -> tuple[int, bytes, bytes]:
    """Run ``python *argv`` from the checkout's root, under ``sh`` with ``redirect``
    if one is given; return the exit code, stdout and stderr."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONDEVMODE", "PYTHONWARNINGS")}
    env["PYTHONPATH"] = str(Path(lutetab.__file__).parents[1])
    command = [sys.executable, *argv]
    if redirect:
        command = ["sh", "-c", f'exec "$0" "$@" {redirect}', *command]
    child = subprocess.run(command, cwd=_ROOT, env=env, capture_output=True)
    return child.returncode, child.stdout, child.stderr


def _cli_child(*args: str, redirect: str = "") -> tuple[int, bytes, bytes]:
    return _child("-m", "lutetab.cli", *args, redirect=redirect)


def test_readme_diagnostic_matches_golden():
    """``python -m lutetab.cli`` prints the README's example diagnostic byte for byte."""
    code, out, err = _cli_child("tests/fixtures/broken.tab", "--check")
    assert (code, out) == (1, b"")
    assert err == (FIXTURES / "broken.err").read_bytes()


def test_the_process_writes_every_golden_output(tmp_path):
    out = tmp_path / "out"
    code, stdout, stderr = _cli_child(
        "tests/fixtures/newsidler.tab", "--xml", str(out), "--svg", str(out), "--dtd"
    )
    assert (code, stdout, stderr) == (0, b"", b"")
    assert sorted(p.name for p in out.iterdir()) == [
        "newsidler.sola.svg", "newsidler.sola.xml", "tabulatura.dtd"
    ]
    for name, golden in (("newsidler.sola.xml", "newsidler.xml"),
                         ("newsidler.sola.svg", "newsidler.svg"),
                         ("tabulatura.dtd", "tabulatura.dtd")):
        assert (out / name).read_bytes() == (FIXTURES / golden).read_bytes()


def test_the_process_exits_2_on_an_unreadable_input(tmp_path):
    path = tmp_path / "absent.tab"
    assert _cli_child(str(path), "--check") == (2, b"", (
        f"{path}: error: cannot read input: [Errno 2] No such file or directory: '{path}'\n"
    ).encode())


def test_the_process_ends_usage_errors_and_version_through_argparse():
    code, out, err = _cli_child("tests/fixtures/newsidler.tab")
    assert (code, out) == (2, b"")
    assert err.startswith(b"usage: lutetab ")
    assert err.endswith(
        b"lutetab: error: nothing to do: pass at least one of --xml, --svg, --dtd, --check\n"
    )
    assert _cli_child("--version") == (0, f"lutetab {lutetab.__version__}\n".encode(), b"")


@_posix_shell
@pytest.mark.parametrize("closed", ["1>&-", "2>&-"], ids=["stdout", "stderr"])
def test_the_process_runs_with_a_standard_stream_closed(tmp_path, closed):
    """A descriptor closed at start-up leaves its ``sys`` stream ``None``: exit 0, no traceback."""
    out = tmp_path / "xml"
    code, stdout, stderr = _cli_child(
        "tests/fixtures/newsidler.tab", "--xml", str(out), redirect=closed
    )
    assert (code, stdout, stderr) == (0, b"", b"")
    assert (out / "newsidler.sola.xml").read_bytes() == (FIXTURES / "newsidler.xml").read_bytes()


@_posix_shell
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_the_process_exits_1_when_its_diagnostic_cannot_be_written():
    """The diagnostic's write fails with ENOSPC; the error still ends the run with exit 1."""
    code, out, _ = _cli_child("tests/fixtures/broken.tab", "--check", redirect="2>/dev/full")
    assert (code, out) == (1, b"")


@pytest.mark.parametrize("dev_mode", [False, True], ids=["fast", "dev"])
def test_the_process_skips_teardown_except_under_dev_mode(dev_mode):
    """An atexit hook shows teardown: ``entry`` skips it, unless -X dev asks for it."""
    probe = (
        "import atexit, sys; atexit.register(print, 'teardown'); import lutetab.cli; "
        "sys.argv[1:] = ['tests/fixtures/newsidler.tab', '--check']; lutetab.cli.entry()"
    )
    flags = ["-X", "dev"] if dev_mode else []
    assert _child(*flags, "-c", probe) == (0, b"teardown\n" if dev_mode else b"", b"")
    pyproject = tomllib.loads((_ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert pyproject["project"]["scripts"]["lutetab"] == "lutetab.cli:entry"


class _Stream:
    def __init__(self, flushed: list, name: str, fails: bool = False):
        self.flushed, self.name, self.fails = flushed, name, fails

    def flush(self):
        self.flushed.append(self.name)
        if self.fails:
            raise OSError(28, "No space left on device")


class _Exited(BaseException):
    pass


@pytest.mark.parametrize(
    "dev_mode,stdout,stderr,flushed,ends",
    [
        (False, "ok", "ok", ["stdout", "stderr"], "os._exit"),
        (False, None, "ok", ["stderr"], "os._exit"),
        (False, "ok", None, ["stdout"], "os._exit"),
        (False, "fails", "ok", ["stdout"], "sys.exit"),
        (False, "ok", "fails", ["stdout", "stderr"], "sys.exit"),
        (True, "ok", "ok", [], "sys.exit"),
    ],
    ids=["flushed", "no-stdout", "no-stderr", "stdout-fails", "stderr-fails", "dev-mode"],
)
def test_entry_flushes_then_exits_without_teardown_else_through_sys_exit(
    monkeypatch, dev_mode, stdout, stderr, flushed, ends
):
    seen = []
    streams = {
        name: None if kind is None else _Stream(seen, name, kind == "fails")
        for name, kind in (("stdout", stdout), ("stderr", stderr))
    }

    def os_exit(code):
        raise _Exited(code)

    monkeypatch.setattr(cli, "main", lambda: 1)
    monkeypatch.setattr(cli.os, "_exit", os_exit)
    monkeypatch.setattr(sys, "stdout", streams["stdout"])
    monkeypatch.setattr(sys, "stderr", streams["stderr"])
    monkeypatch.setattr(sys, "flags", type("Flags", (), {"dev_mode": dev_mode}))
    with pytest.raises(_Exited if ends == "os._exit" else SystemExit) as exc:
        cli.entry()
    monkeypatch.undo()
    assert exc.value.args == (1,)
    assert seen == flushed


@pytest.mark.parametrize(
    "line,column,expected",
    [
        (2, 2, "f.tab:2:3: error: boom\n  b c\n    ^"),  # the CRLF line, its CR stripped
        (1, None, "f.tab:1: error: boom\n  a"),  # a line but no column: no caret
        (4, 0, "f.tab:4:1: error: boom"),  # a line outside the text: no excerpt
    ],
    ids=["crlf", "no-column", "outside-text"],
)
def test_format_diagnostic_reads_the_line_from_text(line, column, expected):
    err = lutetab.ParseError("boom", line=line, column=column)
    assert lutetab.format_diagnostic(err, "f.tab", "a\r\nb c\r\n\r") == expected


_SMALL_PARS = "tbl = ( (1 a) )\nPARS p\nbünde = tbl\nT      I\nVOX v  a\n"


def test_bare_name_value_error_located_at_value(tmp_path, capsys):
    path = tmp_path / "bare.tab"
    path.write_text("   duratioManet\n= maybe\n" + _SMALL_PARS, encoding="utf-8")
    assert main([str(path), "--check"]) == 1
    assert capsys.readouterr().err == (
        f"{path}:2:3: error: parameter 'duratioManet' expects 'est' or 'nonEst', got 'maybe'\n"
        "  = maybe\n"
        "    ^\n"
    )


def test_bare_name_warning_names_the_name_line(tmp_path, capsys):
    path = tmp_path / "bare.tab"
    path.write_text("tonus\n\n= d\n" + _SMALL_PARS, encoding="utf-8")
    assert main([str(path), "--check"]) == 0
    assert capsys.readouterr().err == (
        f"{path}: warning: unrecognized parameter 'tonus' at line 1 (ignored)\n"
    )


@pytest.mark.parametrize(
    "name,message",
    [
        ("x/../../escaped", "PARS name contains '/', which cannot be part of a file name"),
        # the scanner refuses NUL anywhere, as a character XML cannot hold
        ("a\x00b", "character U+0000 cannot appear in an XML document"),
    ],
    ids=["slash", "nul"],
)
def test_pars_name_that_cannot_be_a_file_name(tmp_path, capsys, name, message):
    source = _SMALL_PARS.replace("PARS p", f"PARS {name}")
    work = tmp_path / "work"
    out = work / "out"
    (out / "bad.x").mkdir(parents=True)  # so "bad.x/../../escaped.xml" would resolve
    path = work / "bad.tab"
    path.write_text(source, encoding="utf-8")
    assert main([str(path), "--xml", str(out), "--svg", str(out), "--dtd"]) == 1
    column = 5 + max(name.find("/"), name.find("\x00"))
    assert capsys.readouterr().err == (
        f"{path}:2:{column + 1}: error: {message}\n"
        f"  PARS {name.replace(chr(0), chr(0x2400))}\n  {' ' * column}^\n"
    )
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == [
        Path("work"), Path("work/bad.tab"), Path("work/out"), Path("work/out/bad.x")
    ]


@pytest.mark.parametrize(
    "source,line,column",
    [
        # a control character in an edit payload
        ('tbl = ( (1 a f) )\nPARS p\nbünde = tbl\nT       I  I\nVOX v   a  f\n'
         '    edit   "x\x01y"\n', 6, 13),
        # a quoted grip-table cell, and the voice that uses it
        ('tbl = ( (1 "\x01" f) )\nPARS p\nbünde = tbl\nT       I   I\nVOX v   "\x01" f\n',
         1, 12),
    ],
    ids=["edit", "table-cell"],
)
def test_character_xml_cannot_hold_is_located_error(tmp_path, capsys, source, line, column):
    path = tmp_path / "ctrl.tab"
    path.write_text(source, encoding="utf-8")
    out = tmp_path / "out"
    assert main([str(path), "--xml", str(out), "--svg", str(out)]) == 1
    shown = source.split("\n")[line - 1].replace("\x01", "\u2401")
    assert capsys.readouterr().err == (
        f"{path}:{line}:{column + 1}: error: character U+0001 cannot appear in an XML "
        f"document\n  {shown}\n  {' ' * column}^\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "source,message,line,column",
    [
        # a live escape sequence the scanner refuses
        (_SMALL_PARS.replace("PARS p", "PARS a\x1b[31mred"),
         "character U+001B cannot appear in an XML document", 2, 6),
        # a TAB would push the caret out of place
        (_SMALL_PARS.replace("VOX v  a", "VOX v\t a"),
         "TAB character (column alignment would be ambiguous; use spaces)", 5, 5),
        # a C1 control (CSI) that XML allows, spelling an unknown grip
        (_SMALL_PARS.replace("VOX v  a", "VOX v  \x9b"),
         "unknown grip symbol '\ufffd' (not in table 'tbl')", 5, 7),
    ],
    ids=["esc", "tab", "csi"],
)
def test_diagnostic_shows_control_characters_as_visible_scalars(
    tmp_path, capsys, source, message, line, column
):
    path = tmp_path / "ctrl.tab"
    path.write_text(source, encoding="utf-8")
    assert main([str(path), "--check"]) == 1
    shown = {"\x1b": "\u241b", "\t": "\u2409", "\x9b": "\ufffd"}
    excerpt = "".join(shown.get(c, c) for c in source.split("\n")[line - 1])
    assert capsys.readouterr().err == (
        f"{path}:{line}:{column + 1}: error: {message}\n  {excerpt}\n  {' ' * column}^\n"
    )


def test_pars_filter_miss_lists_names_with_visible_control_characters(tmp_path, capsys):
    path = tmp_path / "names.tab"
    path.write_text(
        _SMALL_PARS.replace("PARS p", "PARS a\x7fb")
        + _SMALL_PARS.split("\n", 1)[1].replace("PARS p", "PARS c\x9bd"),
        encoding="utf-8",
    )
    assert main([str(path), "--check", "--pars", "z\x1b"]) == 1
    assert capsys.readouterr().err == (
        f"{path}: error: no PARS named 'z\u241b' (available: a\u2421b, c\ufffdd)\n"
    )


def test_warnings_come_before_a_pars_filter_miss(tmp_path, capsys):
    """The build's warnings are printed before the ``--pars`` miss, which
    exits 1 as a compile error does."""
    path = tmp_path / "warned.tab"
    path.write_text("tonus = d\n" + _SMALL_PARS, encoding="utf-8")
    assert main([str(path), "--check", "--pars", "q"]) == 1
    assert capsys.readouterr().err == (
        f"{path}: warning: unrecognized parameter 'tonus' at line 1 (ignored)\n"
        f"{path}: error: no PARS named 'q' (available: p)\n"
    )


def test_read_error_shows_control_characters_in_the_path(tmp_path, capsys):
    path = tmp_path / "no\x1b[31mfile.tab"
    assert main([str(path), "--check"]) == 2
    shown = str(path).replace("\x1b", "\u241b")
    assert capsys.readouterr().err == (
        f"{shown}: error: cannot read input: [Errno 2] No such file or directory: {str(path)!r}\n"
    )


def test_warning_shows_control_characters_in_the_path(tmp_path, capsys):
    path = tmp_path / "w\x1bx.tab"
    path.write_text("tonus = d\n" + _SMALL_PARS, encoding="utf-8")
    assert main([str(path), "--check"]) == 0
    shown = str(path).replace("\x1b", "\u241b")
    assert capsys.readouterr().err == (
        f"{shown}: warning: unrecognized parameter 'tonus' at line 1 (ignored)\n"
    )


def test_write_error_shows_control_characters_in_the_path(newsidler_file, tmp_path, capsys):
    blocker = tmp_path / "FILE"
    blocker.write_text("", encoding="utf-8")
    out = str(blocker / "\x1bout")
    assert main([str(newsidler_file), "--xml", out]) == 2
    shown = out.replace("\x1b", "\u241b")
    assert capsys.readouterr().err == (
        f"{shown}: error: cannot write {shown}: Not a directory\n"
    )


@pytest.mark.parametrize(
    "value,shown,reason",
    [("\x1b[31m", "\u241b[31m", "is not a number"),
     ("\x0c-1", "\u240c-1", "is not finite and strictly positive")],
    ids=["not-a-number", "not-positive"],
)
def test_geometry_error_shows_control_characters(
    newsidler_file, tmp_path, capsys, value, shown, reason
):
    with pytest.raises(SystemExit) as exc:
        main([str(newsidler_file), "--svg", str(tmp_path / "svg"), f"--margin={value}"])
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == f"lutetab: error: argument --margin: {shown} {reason}"


def test_usage_error_shows_control_characters(newsidler_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main([str(newsidler_file), "--check", "\x1b[31mx"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        cli.build_arg_parser().format_usage()
        + "lutetab: error: unrecognized arguments: \u241b[31mx\n"
    )


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def gc_before(request):
    """Set the collector's state before a run; restore the test run's own after it."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def test_gc_paused_during_run_and_restored(newsidler_file, gc_before, monkeypatch):
    seen = []
    build_score = cli.build_score

    def spy(lines):
        seen.append(gc.isenabled())
        return build_score(lines)

    monkeypatch.setattr("lutetab.cli.build_score", spy)
    assert main([str(newsidler_file), "--check"]) == 0
    assert seen == [False]
    assert gc.isenabled() is gc_before


def test_gc_restored_after_compile_error(tmp_path, newsidler_text, gc_before, capsys):
    mutated, _, _ = helpers.shift_last_vox_token(newsidler_text)
    path = tmp_path / "shifted.tab"
    path.write_text(mutated, encoding="utf-8")
    assert main([str(path), "--check"]) == 1
    assert gc.isenabled() is gc_before


def test_gc_restored_after_failed_write(newsidler_file, tmp_path, gc_before, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr("lutetab.cli.os.replace", refuse)
    assert main([str(newsidler_file), "--xml", str(tmp_path / "xml")]) == 2
    assert gc.isenabled() is gc_before


def test_cli_import_loads_no_fractions():
    """Start-up loads neither the number tower nor ``dataclasses`` and the modules it needs."""
    unwanted = {
        "fractions", "decimal", "numbers", "dataclasses", "inspect", "ast", "dis", "tokenize"
    }
    probe = f"import sys, lutetab.cli; print(sorted({unwanted!r} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(lutetab.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"


@pytest.fixture(scope="module")
def mutated_file(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "mutated.tab"


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(("newsidler", "schlick")), helpers.mutations())
def test_mutated_sources_exit_cleanly(mutated_file, name, mutations):
    """The CLI is total: exit 0, or exit 1 with a diagnostic located by line."""
    source = (FIXTURES / f"{name}.tab").read_text(encoding="utf-8")
    mutated_file.write_text(helpers.mutate(source, mutations), encoding="utf-8")
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main([str(mutated_file), "--check"])
    err = stderr.getvalue()
    assert code in (0, 1)
    assert "Traceback" not in err
    # nothing that a terminal would take as a control: no C0 but the line
    # breaks, no DEL, no C1 and no surrogate
    assert not re.search("[\x00-\x09\x0b-\x1f\x7f-\x9f\ud800-\udfff]", err), ascii(err)
    if code == 1:
        assert re.match(re.escape(f"{mutated_file}:") + r"\d+", err), err


@pytest.fixture(scope="module")
def write_root(tmp_path_factory):
    return tmp_path_factory.mktemp("written")


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(("newsidler", "schlick")), helpers.mutations())
def test_mutated_sources_write_cleanly(write_root, name, mutations):
    """In write mode too the CLI is total, and it writes only into its output directory."""
    work = Path(tempfile.mkdtemp(dir=write_root))
    source = work / "mutated.tab"
    out = work / "out"
    source.write_text(
        helpers.mutate((FIXTURES / f"{name}.tab").read_text(encoding="utf-8"), mutations),
        encoding="utf-8",
    )
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main([str(source), "--xml", str(out), "--svg", str(out), "--dtd"])
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
    written = set(work.rglob("*")) - {source, out}
    assert all(path.parent == out for path in written), written
    assert not any(path.suffix == ".tmp" for path in written)
    assert all(path.is_dir() for path in write_root.iterdir())


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(("newsidler", "schlick")),
    helpers.mutations(),
    st.sampled_from(("", "tonus = d\n")),  # an unknown parameter, so a warning
)
def test_check_reports_what_xml_reports(write_root, name, mutations, head):
    """``--check`` stops at the model, yet its exit code and stderr are those of ``--xml``."""
    work = Path(tempfile.mkdtemp(dir=write_root))
    source = work / "mutated.tab"
    source.write_text(
        head + helpers.mutate((FIXTURES / f"{name}.tab").read_text(encoding="utf-8"), mutations),
        encoding="utf-8",
    )
    results = []
    for flags in (["--check"], ["--xml", str(work / "out")]):
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main([str(source), *flags])
        results.append((code, stderr.getvalue()))
    assert results[0] == results[1]
