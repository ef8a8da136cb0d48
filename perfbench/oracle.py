"""Independent output checks, run outside the timed section.

Every check compares the compiler's output with the corpus generator's
own expectations (see ``corpus.py``); nothing here imports the compiler.
DTD validity is checked with the generic validator in
``tests/dtd_validator.py`` against the DTD the compiler emitted.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

from corpus import Corpus, ExpectedPars

SVG_TEXT = "{http://www.w3.org/2000/svg}text"
SVG_LINE = "{http://www.w3.org/2000/svg}line"
BEAM_STROKE = "2.5"
DTD_FILENAME = "tabulatura.dtd"


def load_dtd_validator(root: Path):
    """Import ``tests/dtd_validator.py`` from the checkout by path."""
    path = root / "tests" / "dtd_validator.py"
    spec = importlib.util.spec_from_file_location("perfbench_dtd_validator", path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up by name
    spec.loader.exec_module(module)
    return module


def check_process(returncode: int, stdout: str, stderr: str) -> list[str]:
    """The CLI must exit 0 and, on these inputs, print nothing at all."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}, expected 0")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    if stdout or stderr:
        problems.append(f"unexpected output: {(stdout + stderr)[:300]!r}")
    return problems


def check_xml(text: str, expected: ExpectedPars, dtd, validator) -> list[str]:
    where = f"XML of PARS {expected.name}"
    try:
        root = ET.fromstring(text)
    except ET.ParseError as err:
        return [f"{where}: does not parse: {err}"]
    problems = [f"{where}: {p}" for p in validator.validate(text, dtd)[:5]]
    columns = root.findall("columna")
    if root.tag != "tabulatura" or len(columns) != len(expected.duratio):
        problems.append(
            f"{where}: {len(columns)} columns under <{root.tag}>, "
            f"expected {len(expected.duratio)} under <tabulatura>"
        )
        return problems
    for i, (columna, duratio, sona) in enumerate(zip(columns, expected.duratio, expected.sona)):
        got_d = [el.attrib for el in columna.findall("duratio")]
        got_s = [el.attrib for el in columna.findall("sonum")]
        if got_d != [duratio] or got_s != sona:
            problems.append(
                f"{where}: column {i} is {got_d} {got_s}, expected {[duratio]} {sona}"
            )
            break
    return problems


def check_svg(text: str, expected: ExpectedPars) -> list[str]:
    where = f"SVG of PARS {expected.name}"
    try:
        root = ET.fromstring(text)
    except ET.ParseError as err:
        return [f"{where}: does not parse: {err}"]
    problems = []
    texts = sum(1 for _ in root.iter(SVG_TEXT))
    if texts != expected.grips + len(expected.duratio):
        problems.append(
            f"{where}: {texts} <text> elements, expected "
            f"{expected.grips} grips + {len(expected.duratio)} columns"
        )
    beams = sum(1 for el in root.iter(SVG_LINE) if el.get("stroke-width") == BEAM_STROKE)
    if beams != expected.beam_groups:
        problems.append(f"{where}: {beams} beam lines, expected {expected.beam_groups}")
    return problems


def check_outputs(
    corpus: Corpus, stem: str, xml_dir: Path, svg_dir: Path, validator
) -> list[str]:
    """Full check of one run's XML, SVG and DTD files against the corpus."""
    dtd_path = xml_dir / DTD_FILENAME
    if not dtd_path.is_file():
        return [f"{DTD_FILENAME} was not written"]
    dtd = validator.parse_dtd(dtd_path.read_text(encoding="utf-8"))
    problems = []
    expected_files = {DTD_FILENAME}
    for pars in corpus.partes:
        xml_name, svg_name = f"{stem}.{pars.name}.xml", f"{stem}.{pars.name}.svg"
        expected_files.add(xml_name)
        try:
            problems += check_xml((xml_dir / xml_name).read_text(encoding="utf-8"), pars,
                                  dtd, validator)
            problems += check_svg((svg_dir / svg_name).read_text(encoding="utf-8"), pars)
        except OSError as err:
            problems.append(f"PARS {pars.name}: {err}")
    extra = {p.name for p in xml_dir.iterdir()} - expected_files
    if extra:
        problems.append(f"unexpected files next to the XML output: {sorted(extra)[:5]}")
    return problems


def digests(*dirs: Path) -> dict[str, str]:
    """SHA-256 of every file under ``dirs``, keyed by path relative to its dir."""
    out = {}
    for d in dirs:
        if d.is_dir():
            for path in sorted(d.iterdir()):
                out[f"{d.name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out
