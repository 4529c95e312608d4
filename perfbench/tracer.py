"""Per-layer span tracing of one ucov CLI command.

Run in place of ``python -m ucov.cli``:

    python3 perfbench/tracer.py SPANS_FILE <ucov arguments...>

It imports ``ucov.cli``, replaces each traced entry point with a wrapper
that records a span (name, start, end, parent), runs the command, and
writes the spans and counters to SPANS_FILE when the command returns. The
wrapper replaces every binding of the entry point, including the names
modules import from each other (``ucov.footprint.static_type_of``,
``ucov.cli.parse_unit``, ...), so calls across modules are traced too. The
program's own files are not modified.

The benchmark reads the file back with :func:`summarize`, which turns spans
into call counts and self times (a span's duration minus its children's).
"""

from __future__ import annotations

import array
import json
import sys
import time
from collections import Counter
from functools import wraps
from typing import Callable, Optional

# (span name, "module" or "module:Class", attribute). Spans of one name may
# come from several entry points.
TARGETS = (
    ("lexer.tokenize", "ucov.lexer", "tokenize"),
    ("parser.parse_unit", "ucov.parser", "parse_unit"),
    ("symtab.build", "ucov.symtab", "build_symbol_table"),
    ("symtab.supertype_closure", "ucov.symtab:SymbolTable", "supertype_closure"),
    ("symtab.resolve_method", "ucov.symtab:SymbolTable", "resolve_method"),
    ("symtab.find_field", "ucov.symtab:SymbolTable", "find_field"),
    ("symtab.super_methods", "ucov.symtab:SymbolTable", "super_methods"),
    ("typing_env.static_type_of", "ucov.typing_env", "static_type_of"),
    ("model.build_sum", "ucov.model", "build_sum"),
    ("model.to_dict", "ucov.model", "model_to_dict"),
    ("model.from_dict", "ucov.model", "model_from_dict"),
    ("footprint.extract", "ucov.footprint", "extract_uses"),
    ("footprint.to_dict", "ucov.footprint", "footprint_to_dict"),
    ("footprint.from_dict", "ucov.footprint", "footprint_from_dict"),
    ("footprint.merge", "ucov.footprint", "merge"),
    ("metrics.compute_coverage", "ucov.metrics", "compute_coverage"),
    ("metrics.exclusive_regions", "ucov.metrics", "exclusive_regions"),
    ("metrics.profile", "ucov.metrics", "profile"),
    ("metrics.to_dict", "ucov.metrics", "coverage_to_dict"),
    ("metrics.to_dict", "ucov.metrics", "regions_to_dict"),
    ("metrics.to_dict", "ucov.metrics", "profile_to_dict"),
    ("cli.dump_json", "ucov.cli", "_dump_json"),
    ("cli.main", "ucov.cli", "main"),
)

ROOT_SPAN = "cli.main"


class Tracer:
    """Spans kept in flat arrays; counters for work done at the boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        # Results whose sizes are counted after the command, outside any span.
        self.models: list = []
        self.footprints: list = []

    def wrap(
        self,
        fn: Callable,
        name: str,
        on_result: Optional[Callable] = None,
        on_error: Optional[Callable] = None,
    ) -> Callable:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self._stack
        )
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[i] = clock()
                start[i] = t0
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            end[i] = clock()
            start[i] = t0
            stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target entry point at every place it is bound."""
        import importlib

        import ucov.cli  # noqa: F401  (loads every ucov module)
        from ucov.errors import ParseError

        hooks = {
            "lexer.tokenize": (self._count("lexer.tokens", len), None),
            "parser.parse_unit": (
                self._count("parser.units", lambda _: 1),
                lambda exc: self._on_parse_error(exc, ParseError),
            ),
            "symtab.build": (self._count("symtab.types", lambda t: len(t.types)), None),
            "symtab.resolve_method": (
                self._count(
                    "symtab.resolve_method.resolved",
                    lambda r: int(r.status.name == "RESOLVED"),
                ),
                None,
            ),
            "model.build_sum": (self.models.append, None),
            "footprint.extract": (self.footprints.append, None),
            "cli.dump_json": (self._count("cli.bytes_written", _utf8_len), None),
        }
        modules = [m for k, m in sys.modules.items() if k == "ucov" or k.startswith("ucov.")]
        for name, owner, attr in TARGETS:
            module_name, _, class_name = owner.partition(":")
            module = importlib.import_module(module_name)
            holder = getattr(module, class_name) if class_name else module
            original = getattr(holder, attr, None)
            if original is None:
                print(f"tracer: {owner}.{attr} not found; {name} is not traced",
                      file=sys.stderr)
                continue
            on_result, on_error = hooks.get(name, (None, None))
            wrapped = self.wrap(original, name, on_result, on_error)
            if class_name:
                setattr(holder, attr, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

    def _count(self, counter: str, measure: Callable) -> Callable:
        counters = self.counters

        def hook(result) -> None:
            counters[counter] += measure(result)

        return hook

    def _on_parse_error(self, exc: BaseException, parse_error: type) -> None:
        if isinstance(exc, parse_error):
            self.counters["parser.parse_errors"] += 1

    def finish(self) -> None:
        for model in self.models:
            self.counters["model.symbols"] += len(model.entries)
            self.counters["model.legal_uses"] += model.legal_use_count
        for fp in self.footprints:
            self.counters["footprint.triples"] += len(fp.triples)
            self.counters["footprint.unique_uses"] += len(fp.unique_uses)
            self.counters["footprint.diagnostics"] += len(fp.diagnostics)

    def write(self, path: str) -> None:
        header = {"names": self.names, "spans": len(self.start), "counters": self.counters}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(f)


def _utf8_len(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def summarize(path: str) -> tuple[Counter, Counter, Counter]:
    """(calls per span name, self seconds per span name, counters) of a file
    written by :meth:`Tracer.write`."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        n = header["spans"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array.array(code)
            arr.fromfile(f, n)
            arrays.append(arr)
    name_of, parent, start, end = arrays
    names = header["names"]
    duration = [e - s for s, e in zip(start, end)]
    children = [0.0] * n
    for i, p in enumerate(parent):
        if p >= 0:
            children[p] += duration[i]
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for i, nid in enumerate(name_of):
        calls[names[nid]] += 1
        self_s[names[nid]] += duration[i] - children[i]
    return calls, self_s, Counter(header["counters"])


def main(argv: list[str]) -> int:
    spans_path, ucov_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import ucov.cli

    try:
        code = ucov.cli.main(ucov_args)
    finally:
        tracer.finish()
        tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
