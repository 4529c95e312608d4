"""Command-line interface.

Commands:
  ucov sum <lib> -o sum.json
  ucov suf --sum sum.json --label tests <roots...> -o suf.json [--lenient]
  ucov suf --sum sum.json --config corpus.json -o <outdir>
  ucov coverage --sum sum.json <suf...> [--format json|text]
  ucov compare --sum sum.json <suf...> -o regions.json
  ucov profile --sum sum.json [--suf f.json]

Exit codes: 0 success, 1 usage/consistency error, 2 parse error (strict
mode), 3 internal failure. Warnings go to standard error; UCOV_LOG=error
hides them.
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, NoReturn, Optional, TypeVar, Union

from . import footprint as suf
from . import metrics, uses
from . import model as models, parser as frontend
from .errors import ModelMismatch, ParseError, UcovError, warn

if TYPE_CHECKING:
    from .model import UsageModel
    from .uses import Footprint

# Each layer runs the first time a command uses it (see ``ucov/__init__``),
# so ``coverage``, ``compare`` and ``profile`` never run the frontend, the
# symbol table or the extractor.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3


class UsageError(UcovError):
    pass


def _corpus_config(data: dict) -> tuple[dict[str, list[str]], bool]:
    """The labeled groups of roots and the lenient flag of a corpus config.
    Malformed content raises ValueError, which ``_read_json`` reports with
    the file's path."""
    groups = data.get("groups", {})
    if not isinstance(groups, dict) or not all(
        isinstance(roots, list) and all(isinstance(r, str) for r in roots)
        for roots in groups.values()
    ):
        raise ValueError("corpus config groups must map labels to lists of roots")
    if not groups:
        raise ValueError("corpus config defines no groups")
    if "" in groups:
        raise ValueError("corpus config labels must be non-empty")
    for label in groups:  # each label names a file in the output directory
        if "/" in label or "\\" in label:
            raise ValueError(f"corpus config label {label!r} contains a path separator")
    lenient = data.get("lenient", True)
    if not isinstance(lenient, bool):
        raise ValueError("corpus config lenient must be true or false")
    return groups, lenient


def _dump_json(data: Union[dict, str], end: str = "\n") -> str:
    """One compact line of JSON, non-ASCII text unescaped. Without ``indent``
    CPython encodes with its C encoder, several times faster on large
    models and reports. A str is JSON text already: only the line end is
    added. A piece of an output written in pieces ends in ``end`` instead,
    "" for every piece but the last. Every byte of JSON a command writes
    passes through here once: ``perfbench`` counts ``cli.bytes_written``
    from what this returns."""
    if isinstance(data, str):
        return data + end
    return json.dumps(data, ensure_ascii=False, separators=(",", ":")) + end


def _write_stdout(content: str) -> None:
    """Write a command's result to standard output and flush it. A closed
    pipe or a full device there ends the command with a one-line error.

    The text is encoded as standard output encodes it and written to its
    byte stream until every byte is written: unbuffered (``python -u``),
    that stream is the raw file, whose write may take only part of the
    bytes, and the text layer would drop the rest without a word. A
    standard output with no byte stream (an in-process recording) takes
    the text as it is."""
    out = sys.stdout
    try:
        stream = getattr(out, "buffer", None)
        if stream is None:
            out.write(content)
            out.flush()
            return
        out.flush()  # text written before goes first
        data = memoryview(content.encode(out.encoding, out.errors))
        while data:
            written = stream.write(data)
            if not written:  # None: a non-blocking output is full
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            data = data[written:]
        stream.flush()
    except OSError as exc:
        raise _stdout_failure(exc) from exc


def _stdout_failure(exc: OSError) -> UsageError:
    return UsageError(f"cannot write to standard output: {exc.strerror or exc}")


def _atomic_write(files: Iterable[tuple[Path, str]]) -> None:
    """Replace each path by a file holding its content. Every file is
    written beside its path first, and the files are renamed into place
    only when all are written, so a path that cannot be written (a
    directory among them) replaces none of them: it ends in a one-line
    UsageError naming it, and no temporary file is left."""
    import tempfile

    written: list[tuple[str, Path]] = []
    try:
        for path, content in files:
            tmp = None
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
            written.append((tmp, path))
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                f.write(content)
            if path.is_dir():  # os.replace would fail only after the others moved
                raise UsageError(f"cannot write {path}: Is a directory")
        for tmp, path in written:
            os.replace(tmp, path)
    except BaseException as exc:
        for written_tmp, _ in written:
            if os.path.exists(written_tmp):
                os.unlink(written_tmp)
        if not isinstance(exc, OSError):
            raise
        culprit = f"cannot create {exc.filename}: " if tmp is None else ""
        raise UsageError(f"cannot write {path}: {culprit}{exc.strerror or exc}") from exc


def _parse_library(root: Path) -> list:
    if not root.exists():
        raise UsageError(f"library root {root} does not exist")
    files = frontend.collect_source_files([root])
    if not files:
        raise UsageError(f"no source files found under {root}")
    return [frontend.read_unit(p) for p in files]


T = TypeVar("T")


def _read_json(
    path: str, load: Callable[[dict], T], decode: Callable[[str], object] = json.loads
) -> T:
    """Read the JSON object in ``path``, decoded by ``decode``, and convert
    it with ``load``. A file that cannot be read or decoded, is not a JSON
    object, lacks a key the conversion needs or does not match the model (a
    footprint of another library or with an illegal use) ends in a one-line
    UsageError naming the file."""
    try:
        data = decode(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:  # invalid JSON, invalid UTF-8, too deep
        raise UsageError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"{path}: expected a JSON object, found {type(data).__name__}")
    try:
        return load(data)
    except KeyError as exc:
        raise UsageError(f"{path}: missing key {exc}") from exc
    except ModelMismatch as exc:
        raise UsageError(f"{path}: {exc}") from exc
    except (TypeError, AttributeError, ValueError) as exc:
        raise UsageError(f"{path}: malformed content: {exc}") from exc


def _decode_unique_keys(text: str) -> object:
    """``json.loads(text)``, except that an object with a repeated key,
    which ``json.loads`` resolves by keeping the last value, is invalid."""

    def unique(pairs: list[tuple[str, object]]) -> dict:
        data: dict = {}
        for key, value in pairs:
            if key in data:
                raise ValueError(f"duplicate key {key!r}")
            data[key] = value
        return data

    return json.loads(text, object_pairs_hook=unique)


def _load_model(path: str, resolve: bool = False) -> UsageModel:
    """The model in ``path``. Only ``suf`` needs the resolution table; with
    ``resolve`` the whole file is decoded and the table built here, so a
    resolution section that is invalid JSON or malformed content is
    reported like any other. Without it, the resolution member is neither
    decoded nor checked (``model.decode_model``)."""

    def load(data: dict) -> UsageModel:
        model = models.model_from_dict(data)
        if resolve:
            model.table  # noqa: B018 - built for its errors
        return model

    return _read_json(path, load, json.loads if resolve else models.decode_model)


def _load_footprint(path: str, model: UsageModel) -> Footprint:
    return _read_json(path, lambda data: uses.footprint_from_dict(data, model))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_sum(args: argparse.Namespace) -> int:
    root = Path(args.library)
    units = _parse_library(root)
    name = args.name or root.resolve().name
    model = models.build_sum(units, name)
    _atomic_write([(Path(args.output), _dump_json(models.model_to_dict(model)))])
    _write_stdout(f"symbols: {len(model.entries)}, legal uses: {model.legal_use_count}\n")
    return EXIT_OK


def cmd_suf(args: argparse.Namespace) -> int:
    if args.config and args.roots:
        raise UsageError("--config defines the client roots; give none on the command line")
    if args.config and args.label is not None:
        raise UsageError("--config defines the labels; --label cannot be used with it")
    model = _load_model(args.sum, resolve=True)
    if args.config:
        groups, lenient = _read_json(args.config, _corpus_config, _decode_unique_keys)
        lenient = args.lenient or lenient
    else:
        if not args.roots:
            raise UsageError("at least one client root is required")
        label = "client" if args.label is None else args.label
        groups, lenient = {label: args.roots}, args.lenient
    for label, roots in groups.items():
        for root in roots:
            if not Path(root).exists():
                raise UsageError(f"{label}: client root {root} does not exist")
    footprints = sorted(suf.footprint_of_corpus(groups, model, lenient=lenient).items())
    outputs = (
        (Path(args.output) / f"{label}.json" if args.config else Path(args.output),
         _dump_json(uses.footprint_to_dict(fp)))
        for label, fp in footprints
    )
    _atomic_write(outputs)
    for _, fp in footprints:
        _report_footprint(fp)
    return EXIT_OK


def _report_footprint(fp: Footprint) -> None:
    _write_stdout(f"{fp.label}: unique uses: {len(fp.unique_uses)}, total uses: {fp.total_uses}\n")
    if fp.diagnostics:
        counts: dict[str, int] = {}
        for d in fp.diagnostics:
            counts[d.kind.value] = counts.get(d.kind.value, 0) + 1
        summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
        print(f"{fp.label}: diagnostics: {summary}", file=sys.stderr)


def cmd_coverage(args: argparse.Namespace) -> int:
    model = _load_model(args.sum)
    footprints = [_load_footprint(p, model) for p in args.sufs]
    reports = [(fp.label, metrics.compute_coverage(model, fp)) for fp in footprints]
    if len(footprints) > 1:
        reports.append(("All", metrics.compute_coverage(model, uses.merge(*footprints))))
    if args.format == "json":
        # Written one report at a time, so the output is never held whole.
        # The inputs are read and the reports computed first, so an error
        # leaves stdout empty, and the model's fragments are made first,
        # so the warning of a shared levels key precedes the output.
        model.encoded_levels, model.encoded_rows  # noqa: B018
        library = json.dumps(model.library_name, ensure_ascii=False)
        _write_stdout(_dump_json(f'{{"library":{library},"reports":[', end=""))
        for i, (label, r) in enumerate(reports):
            text = metrics.coverage_to_dict(r, model, label)
            _write_stdout(_dump_json(f",{text}" if i else text, end=""))
        _write_stdout(_dump_json("]}"))
    else:
        _write_stdout(_coverage_text(model, reports))
    return EXIT_OK


def _coverage_text(model: UsageModel, reports) -> str:
    labels = [label for label, _ in reports]
    width = max(16, *(len(l) + 2 for l in labels))
    rows = [
        ("API symbols", lambda r: str(len(model.entries))),
        ("Legal uses", lambda r: str(len(model.legal_pairs))),
        ("Symbols used", lambda r: str(len(r.covered_symbols))),
        ("Unique uses", lambda r: str(len(r.covered_uses))),
        ("Total uses", lambda r: str(r.total_uses)),
        ("Symbol coverage", lambda r: f"{float(r.symbol_coverage):.4f}"),
        ("Use coverage", lambda r: f"{float(r.use_coverage):.4f}"),
    ]
    lines = ["".rjust(18) + "".join(l.rjust(width) for l in labels)]
    for title, getter in rows:
        cells = "".join(getter(report).rjust(width) for _, report in reports)
        lines.append(title.ljust(18) + cells)
    return "\n".join(lines) + "\n"


def cmd_compare(args: argparse.Namespace) -> int:
    if len(args.sufs) < 2:
        raise UsageError("compare requires at least two footprints")
    model = _load_model(args.sum)
    footprints = [_load_footprint(p, model) for p in args.sufs]
    regions = metrics.exclusive_regions(footprints)
    content = _dump_json(metrics.regions_to_dict(regions))
    if args.output:
        _atomic_write([(Path(args.output), content)])
    else:
        _write_stdout(content)
    return EXIT_OK


def cmd_profile(args: argparse.Namespace) -> int:
    model = _load_model(args.sum)
    if args.suf:
        fp = _load_footprint(args.suf, model)
        if not fp.sites:
            warn(f"footprint {fp.label!r} is empty; profile weights are all zero")
        dist = metrics.profile(fp)
    else:
        dist = metrics.profile(model)
    _write_stdout(_dump_json(metrics.profile_to_dict(dist)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose help on standard output is written like a
    command's result, where argparse ignores a failed write: a closed pipe
    or a full device ends the parse with a one-line error and exit 1. Each
    command's parser is of the same class."""

    def print_help(self, file=None) -> None:
        if file is not None:
            return super().print_help(file)
        try:
            _write_stdout(self.format_help())
        except UsageError as exc:
            self.exit(EXIT_USAGE, f"error: {exc}\n")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ucov", description="Syntactic API usage models, footprints, and coverage."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sum", help="build a usage model from library sources")
    p.add_argument("library", help="library source root")
    p.add_argument("-o", "--output", required=True, help="output JSON path")
    p.add_argument("--name", help="library name (default: root directory name)")
    p.set_defaults(func=cmd_sum)

    p = sub.add_parser("suf", help="extract a usage footprint from client sources")
    p.add_argument("roots", nargs="*", help="client source roots")
    p.add_argument("--sum", required=True, help="usage model JSON")
    p.add_argument("--label", help="footprint label (default: client)")
    p.add_argument("-o", "--output", required=True, help="output JSON path (or directory with --config)")
    p.add_argument("--lenient", action="store_true", help="skip unparseable files")
    p.add_argument("--config", help="corpus config JSON defining labeled groups")
    p.set_defaults(func=cmd_suf)

    p = sub.add_parser("coverage", help="coverage of footprints against a model")
    p.add_argument("sufs", nargs="+", help="footprint JSON files")
    p.add_argument("--sum", required=True, help="usage model JSON")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("compare", help="intersection regions of labeled footprints")
    p.add_argument("sufs", nargs="+", help="footprint JSON files (>= 2)")
    p.add_argument("--sum", required=True, help="usage model JSON")
    p.add_argument("-o", "--output", help="output JSON path (default: stdout)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("profile", help="use-kind distribution of a model or footprint")
    p.add_argument("--sum", required=True, help="usage model JSON")
    p.add_argument("--suf", help="footprint JSON (actual-use basis)")
    p.set_defaults(func=cmd_profile)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (UcovError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        import traceback

        print("ERROR ucov: internal failure", file=sys.stderr)
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> NoReturn:
    """Run ``main`` on the command line and end the process with its code.

    This is the entry point of the ``ucov`` console script and of
    ``python -m ucov.cli``. The process ends without tearing down the
    interpreter: every output file is complete when ``main`` returns, and
    freeing the parsed inputs, the model and the reports one object at a
    time would only cost time. ``os._exit`` skips the final flush of the
    standard streams too, so they are flushed here. A failed flush of
    standard output is a one-line error and exit 1, unless ``main`` has
    already failed; one of standard error leaves the exit to the
    interpreter, which reports it as it always has. A stream is None when
    the process was started without it.

    Cyclic garbage collection is off for the process: no command makes
    reference cycles that grow with its input, so the collector would only
    walk the parsed inputs and the model again and again. ``main`` leaves
    the collector as its caller set it.
    """
    gc.disable()
    code = main()
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError as exc:
            if code == EXIT_OK:
                print(f"error: {_stdout_failure(exc)}", file=sys.stderr)
                code = EXIT_USAGE
    if sys.stderr is not None:
        try:
            sys.stderr.flush()
        except OSError:
            sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
