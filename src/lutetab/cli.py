"""Command-line driver: scan, parse, build, emit.

Exit codes: 0 success, 1 any scan/parse/model/emit error in the source,
2 for unusable invocations (unreadable input, bad flags, an output that
cannot be written). The input is read as UTF-8, with or without a
byte-order mark, and with universal newlines: LF, CRLF and a lone CR
each end a line. Diagnostics go to stderr with a caret excerpt of the
offending line. Every line the CLI itself prints (diagnostics, warnings,
the read and write errors, argparse's usage errors) shows each control
character visibly (``errors.visible``), the input and output paths too.

Output files are written in two phases (``_write_outputs``), at most one
document held at a time: each goes to a temp file ``lutetab-<random>.tmp``
beside its target, and every temp is complete before the first is renamed
over its target. So a failure before the renames changes no target, and no
failure leaves a temp file. Outputs get the mode 0666 less the umask.
An output directory is made just before its first temp file, so two cases
differ from a run that makes every document first: a directory made before
a later render error stays, empty, and an output directory that cannot be
made is reported (exit 2) before a render error that would come later.

Each output is produced only when a flag writes it: a PARS is emitted as
XML only for ``--xml`` and rendered as SVG only for ``--svg``, and
``--dtd`` needs neither writer. A writer's module is loaded only then
too: ``emit_pars``, ``emit_dtd`` and ``render_pars`` here import it on
their first call, so a run that writes nothing compiles neither.
``--check`` ends once the model is built and the ``--pars`` filter has
passed, so it checks scanning and the model and emits no XML and renders
no SVG; it relies on ``xml_out``'s rule that no compiled model reaches
``EmitError``.

``run`` pauses the cyclic garbage collector: the score model holds no
reference cycles, yet the collector would walk all its objects in vain.

The process ends once its streams are flushed, without interpreter
teardown (``entry``, which the ``lutetab`` script and ``python -m
lutetab.cli`` run), except under ``-X dev`` or after a failed flush.
"""

import argparse
import gc
import os
import sys

from . import __version__
from .errors import CompileError, format_diagnostic, visible
from .model import ParsModel, ScoreModel, build_score
from .scanner import scan_text

DTD_FILENAME = "tabulatura.dtd"


# The writers, each loaded on its first call. _run calls them through these
# module-level names, so a caller can replace one (``monkeypatch``, a tracer).
def emit_pars(pars: ParsModel) -> str:
    """``xml_out.emit_pars``."""
    from .xml_out import emit_pars as emit

    return emit(pars)


def emit_dtd() -> str:
    """``xml_out.emit_dtd``."""
    from .xml_out import emit_dtd as emit

    return emit()


def render_pars(pars: ParsModel, config) -> str:
    """``svg_out.render_pars``."""
    from .svg_out import render_pars as render

    return render(pars, config)


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text} is not a number") from None
    from .svg_out import positive_finite

    if not positive_finite(value):
        raise argparse.ArgumentTypeError(f"{text} is not finite and strictly positive")
    return value


class _ArgumentParser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose usage errors, echoed arguments and all, go through ``visible``."""

    def error(self, message: str):
        super().error(visible(message))


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="lutetab",
        description=(
            "Compile a column-aligned German lute tablature source into an XML "
            "score model and an SVG control graphic."
        ),
    )
    parser.add_argument("input", help="source file to compile")
    parser.add_argument("--xml", metavar="DIR", help="write one XML document per PARS into DIR")
    parser.add_argument("--svg", metavar="DIR", help="write one SVG graphic per PARS into DIR")
    parser.add_argument(
        "--dtd",
        action="store_true",
        help=f"also write {DTD_FILENAME} (next to the XML output, or into the "
        "current directory)",
    )
    parser.add_argument("--pars", metavar="NAME", help="process only the PARS named NAME")
    parser.add_argument(
        "--check", action="store_true", help="validate the source without writing any output"
    )
    render = parser.add_argument_group("render geometry (SVG user units)")
    # Each flag's dest is the RenderConfig field it sets.
    render.add_argument(
        "--col-spacing", dest="column_spacing", metavar="COL_SPACING", type=_positive_float
    )
    for flag in ("--row-spacing", "--stem-height", "--font-size", "--margin"):
        render.add_argument(flag, type=_positive_float)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    return parser


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


# Code points encoded per write: the document's UTF-8 copy is never held
# whole, only one slice of it (at most four bytes per code point).
_WRITE_SLICE = 1 << 16


def _write_temp(path: str, data: str) -> str:
    """Write ``data`` whole to a fresh randomly named temp file beside ``path``; return its name."""
    # A fixed prefix: the temp name does not grow with the target name. O_EXCL
    # opens no file that exists, and the umask sets the new file's mode.
    tmp = os.path.join(os.path.dirname(path), f"lutetab-{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        try:
            for at in range(0, len(data), _WRITE_SLICE):
                view = memoryview(data[at : at + _WRITE_SLICE].encode("utf-8"))
                while view:
                    view = view[os.write(fd, view) :]
        finally:
            os.close(fd)
    except BaseException:
        _unlink_quietly(tmp)
        raise
    return tmp


def _write_outputs(outputs: list[tuple[str, object]]) -> str | None:
    """Write each ``(directory, (file name, text) pairs)`` in two phases; return the error, if any.

    Phase one takes the pairs one at a time, so the documents may be made
    lazily: each is written to its temp file and dropped before the next is
    made. A directory is made just before its first temp file, or after its
    pairs if it gets none. Phase two renames every temp. On any failure,
    every temp not yet renamed is unlinked; an ``OSError`` gives the result
    ``DIR: error: cannot write PATH: reason``, and any other exception a
    pair raises, such as a writer's ``CompileError``, propagates. The
    renames are the one step that is not all-or-nothing: a failing rename
    leaves the files renamed before it in place.
    """
    temps: list[tuple[str, str, str]] = []  # (temp name, target, directory as given)
    renamed = 0
    try:
        for directory, files in outputs:
            target = directory
            made = False
            for name, data in files:
                if not made:
                    os.makedirs(directory, exist_ok=True)
                    made = True
                target = os.path.join(directory, name)
                temps.append((_write_temp(target, data), target, directory))
                del data  # else it stays alive while the next document is made
            if not made:
                os.makedirs(directory, exist_ok=True)
        for tmp, target, directory in temps:
            os.replace(tmp, target)
            renamed += 1
    except OSError as err:
        return f"{directory}: error: cannot write {target}: {err.strerror or err}"
    finally:
        for tmp, _, _ in temps[renamed:]:
            _unlink_quietly(tmp)
    return None


def run(args: argparse.Namespace) -> int:
    """Compile ``args.input`` and write what the parsed flags ask for."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(args)
    finally:
        if enabled:
            gc.enable()


def _run(args: argparse.Namespace) -> int:
    path = args.input
    try:
        with open(path, encoding="utf-8-sig") as source:
            text = source.read()
    except (OSError, UnicodeDecodeError) as err:
        print(visible(f"{path}: error: cannot read input: {err}"), file=sys.stderr)
        return 2

    try:
        score: ScoreModel = build_score(scan_text(text))
        for warning in score.warnings:
            print(visible(f"{path}: warning: {warning}"), file=sys.stderr)

        partes = score.partes
        if args.pars is not None:
            partes = [p for p in partes if p.name == args.pars]
            if not partes:
                available = ", ".join(p.name for p in score.partes) or "none"
                raise CompileError(f"no PARS named '{args.pars}' (available: {available})")

        if args.check:
            return 0

        name = os.path.basename(path)
        dot = name.rfind(".")
        stem = name[:dot] if 0 < dot < len(name) - 1 else name  # a trailing "." is no suffix
        # (directory as given, (file name, text) pairs); a writer runs only when
        # _write_outputs takes its pair.
        outputs: list[tuple[str, object]] = []
        if args.xml is not None:
            outputs.append((args.xml, ((f"{stem}.{p.name}.xml", emit_pars(p)) for p in partes)))
        if args.svg is not None:
            from .svg_out import RenderConfig

            geometry = {name: getattr(args, name) for name in RenderConfig._fields}
            config = RenderConfig(**{k: v for k, v in geometry.items() if v is not None})
            outputs.append(
                (args.svg, ((f"{stem}.{p.name}.svg", render_pars(p, config)) for p in partes))
            )
        if args.dtd:
            outputs.append(
                (args.xml if args.xml is not None else ".", [(DTD_FILENAME, emit_dtd())])
            )
        error = _write_outputs(outputs)
    except CompileError as err:
        print(format_diagnostic(err, path, text), file=sys.stderr)
        return 1
    if error is not None:
        print(visible(error), file=sys.stderr)
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if "" in (args.xml, args.svg):
        parser.error("--xml and --svg need a DIR that is not empty")
    if not (args.xml or args.svg or args.dtd or args.check):
        parser.error("nothing to do: pass at least one of --xml, --svg, --dtd, --check")
    return run(args)


def entry():
    """Run ``main`` as the whole process and end it; never returns.

    Once ``main`` returns its code, each of ``sys.stdout`` and ``sys.stderr``
    that exists is flushed (either is ``None`` when its descriptor was closed
    at start-up), and ``os._exit`` ends the process without interpreter
    teardown: nothing is left to release, and teardown is a large share of a
    short run. Under ``-X dev``, or when a flush raises, ``sys.exit`` ends it
    instead, so teardown runs as usual, with its ``ResourceWarning`` checks
    and its own report of a stream that cannot be flushed. A ``SystemExit``
    from the argument parser, and any other exception, propagates as from
    ``main``.
    """
    code = main()
    if not sys.flags.dev_mode:
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
        except Exception:  # teardown flushes again, and reports the failure as it always has
            pass
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    entry()
