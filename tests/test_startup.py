"""Start-up: each command runs only the layers it uses, ``import ucov`` is
lazy, and the benchmark's tracer still sees every layer."""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import ucov
from conftest import FIXTURES, parse_tree
from ucov.cli import main
from ucov.symtab import build_symbol_table

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
LIB = FIXTURES / "arraylist" / "lib"
GROUPS = {"classic": FIXTURES / "arraylist" / "classic",
          "framework": FIXTURES / "arraylist" / "framework"}

# The public names of the package, as they were when it imported every module,
# less the export rules that ``UsageModel.entries`` answers.
PUBLIC = [
    "CoverageLevel", "CoverageReport", "CyclicHierarchy", "Diagnostic", "DiagnosticKind",
    "DuplicateSymbol", "Env", "Footprint", "IntersectionRegions", "Location",
    "ModelMismatch", "ParseError", "ProfileDistribution", "SourceUnit", "Symbol",
    "SymbolKind", "SymbolTable", "UcovError", "UnknownSymbol", "UsageModel", "UseKind",
    "UseTriple", "build_sum", "build_symbol_table", "compute_coverage", "coverage_level",
    "diff", "exclusive_regions", "extract_uses", "footprint_from_dict",
    "footprint_of_corpus", "footprint_to_dict", "merge", "model_from_dict", "model_to_dict",
    "parse_unit", "popularity", "profile", "static_type_of",
]

READING_LAYERS = {"ucov.nodes", "ucov.lexer", "ucov.parser", "ucov.symtab",
                  "ucov.typing_env", "ucov.footprint"}


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A model and two footprints of the arraylist fixture, written by the CLI."""
    out = tmp_path_factory.mktemp("startup")
    model = str(out / "sum.json")
    assert main(["sum", str(LIB), "-o", model, "--name", "arraylist"]) == 0
    sufs = []
    for label, root in GROUPS.items():
        sufs.append(str(out / f"{label}.json"))
        assert main(["suf", "--sum", model, "--label", label, str(root), "-o", sufs[-1]]) == 0
    return out, model, sufs


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "UCOV_"))}
    env["PYTHONPATH"] = str(SRC)
    return env


def child_json(script: str, *args: str):
    """Run ``script`` in a fresh interpreter; the JSON of its last line of output."""
    proc = subprocess.run([sys.executable, "-c", "import json, sys, types\n" + script, *args],
                          capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def modules_after(script: str, *args: str) -> set[str]:
    """The ucov modules executed in a fresh interpreter that runs ``script``.
    A module registered but not yet used is still of the lazy module type,
    not ``ModuleType``."""
    script += ("\nprint(json.dumps(sorted(name for name, m in sys.modules.items()"
               " if name.split('.')[0] == 'ucov' and type(m) is types.ModuleType)))")
    return set(child_json(script, *args))


COMMAND = "import ucov.cli\nassert ucov.cli.main(sys.argv[1:]) == 0"


def command_modules(*args: str) -> set[str]:
    return modules_after(COMMAND, *args)


def test_importing_the_cli_or_the_package_runs_no_layer():
    assert modules_after("import ucov.cli") == {"ucov", "ucov.cli", "ucov.errors"}
    assert modules_after("import ucov") == {"ucov"}


def test_the_cli_and_the_reading_commands_import_no_dataclasses_or_logging(saved):
    """Every command, ``sum`` and ``suf`` included. Against a bare
    interpreter, not a fixed list: what ``site`` imports differs from host
    to host."""
    out, model, sufs = saved
    every_module = "\nprint(json.dumps(sorted(sys.modules)))"
    bare = set(child_json("pass" + every_module))
    for script, args in (("import ucov.cli", ()),
                         (COMMAND, ("sum", str(LIB), "-o", str(out / "sum2.json"))),
                         (COMMAND, ("suf", "--sum", model, str(GROUPS["classic"]),
                                    "-o", str(out / "suf2.json"))),
                         (COMMAND, ("coverage", "--sum", model, *sufs)),
                         (COMMAND, ("compare", "--sum", model, *sufs,
                                    "-o", str(out / "regions.json"))),
                         (COMMAND, ("profile", "--sum", model)),
                         (COMMAND, ("profile", "--sum", model, "--suf", sufs[0]))):
        added = set(child_json(script + every_module, *args)) - bare
        assert not added & {"dataclasses", "logging"}, args[:1]


def test_every_module_is_registered_and_bound_at_once():
    """Code that walks ``sys.modules`` or the package, such as the
    benchmark's tracer, finds every module before any of them runs."""
    script = ("import ucov\nassert all(getattr(ucov, name.split('.')[1]) is m"
              " for name, m in sys.modules.items() if name.startswith('ucov.'))\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.startswith('ucov.'))))")
    proc = subprocess.run([sys.executable, "-c", "import json, sys\n" + script],
                          capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    registered = set(json.loads(proc.stdout))
    on_disk = {f"ucov.{p.stem}" for p in (SRC / "ucov").glob("*.py")}
    assert registered == on_disk - {"ucov.__init__", "ucov.cli"}


def test_reading_commands_run_no_frontend_symtab_typing_or_extractor(saved):
    out, model, sufs = saved
    for args in (["coverage", "--sum", model, *sufs],
                 ["compare", "--sum", model, *sufs, "-o", str(out / "regions.json")],
                 ["profile", "--sum", model],
                 ["profile", "--sum", model, "--suf", sufs[0]]):
        loaded = command_modules(*args)
        assert {"ucov.model", "ucov.uses", "ucov.metrics"} <= loaded, args[0]
        assert not loaded & READING_LAYERS, (args[0], loaded & READING_LAYERS)


def test_sum_runs_no_typing_or_extractor(tmp_path):
    loaded = command_modules("sum", str(LIB), "-o", str(tmp_path / "sum.json"))
    assert {"ucov.parser", "ucov.symtab", "ucov.model"} <= loaded
    assert not loaded & {"ucov.typing_env", "ucov.footprint"}


def test_package_names_are_unchanged_and_lazy():
    assert ucov.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(ucov))
    for name in PUBLIC:
        value = getattr(ucov, name)
        assert value is getattr(sys.modules[value.__module__], name), name
    namespace: dict = {}
    exec("from ucov import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    with pytest.raises(AttributeError):
        ucov.no_such_name  # noqa: B018


def test_moved_names_keep_their_old_modules():
    """The entry points the benchmark's tracer rebinds by module attribute are
    one object under every name."""
    from ucov import footprint, nodes, uses

    assert nodes.Location is uses.Location
    for name in ("Diagnostic", "DiagnosticKind", "Footprint", "UseTriple", "diff", "merge",
                 "footprint_from_dict", "footprint_to_dict"):
        assert getattr(footprint, name) is getattr(uses, name), name


def test_a_built_table_keeps_no_syntax_tree_alive():
    """Building a table creates no reference cycle, so the parsed units and
    then the table are freed as soon as their last reference goes, collector
    or no collector."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        units = parse_tree(FIXTURES / "hierarchy" / "lib")
        unit = weakref.ref(units[0])
        table = build_symbol_table(units)
        del units
        assert unit() is None
        assert table.types
        built = weakref.ref(table)
        del table
        assert built() is None
    finally:
        if was_enabled:
            gc.enable()


PERFBENCH = REPO / "perfbench"


def traced(tmp_path, *args: str):
    """Run one command under ``perfbench/tracer.py`` as the benchmark does, in
    a fresh interpreter; the summary of the spans it wrote."""
    spans = tmp_path / "spans.bin"
    proc = subprocess.run([sys.executable, str(PERFBENCH / "tracer.py"), str(spans), *args],
                          capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "not found" not in proc.stderr, proc.stderr
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer.summarize(str(spans))


def test_the_tracer_sees_every_layer_of_the_reading_commands(saved, tmp_path):
    _, model, sufs = saved
    calls, _, counters = traced(tmp_path, "coverage", "--sum", model, *sufs)
    assert calls["cli.main"] == 1 and calls["cli.dump_json"] == 1
    assert counters["cli.bytes_written"] > 0
    assert calls["model.from_dict"] == 1
    assert calls["footprint.from_dict"] == 2
    assert calls["footprint.merge"] == 1
    assert calls["metrics.compute_coverage"] == 3
    assert calls["metrics.to_dict"] == 3
    calls, _, _ = traced(tmp_path, "compare", "--sum", model, *sufs)
    assert calls["metrics.exclusive_regions"] == 1
    calls, _, _ = traced(tmp_path, "profile", "--sum", model)
    assert calls["metrics.profile"] == 1


def test_the_tracer_sees_every_layer_of_sum_and_suf(saved, tmp_path):
    _, model, _ = saved
    calls, _, counters = traced(tmp_path, "sum", str(LIB), "-o", str(tmp_path / "sum.json"))
    assert calls["lexer.tokenize"] == calls["parser.parse_unit"] > 0
    assert calls["symtab.build"] == calls["model.build_sum"] == calls["model.to_dict"] == 1
    assert counters["model.symbols"] > 0 and counters["model.legal_uses"] > 0
    calls, _, counters = traced(tmp_path, "suf", "--sum", model, "--label", "classic",
                                str(GROUPS["classic"]), "-o", str(tmp_path / "suf.json"))
    assert calls["model.from_dict"] == 1 and calls["footprint.to_dict"] == 1
    for span in ("lexer.tokenize", "parser.parse_unit", "symtab.build",
                 "symtab.resolve_method", "typing_env.static_type_of", "footprint.extract"):
        assert calls[span] > 0, span
    assert counters["footprint.triples"] > 0
