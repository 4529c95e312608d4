"""The per-table caches of resolution and member indexes.

The referee rebuilds every answer a client table cached during extraction
on a fresh table that holds the same types and no base, through the
uncached rule, and checks that the two agree. The oracle cannot: it asks
the same cached table. A client table shares no cache with the model
table, so extraction leaves the model table's caches empty, and no group's
footprint can depend on the groups extracted before it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES, parse_tree
from ucov import footprint
from ucov.cli import main
from ucov.footprint import footprint_of_corpus
from ucov.model import SymbolKind, build_sum, model_from_dict, model_to_dict
from ucov.symtab import SymbolTable

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("classic-corpus", "deep-fluent", "wide-api")
FIXTURE_CORPORA = sorted(c.name for c in FIXTURES.iterdir())


def _read_back(model):
    """The model as ``suf`` reads it: its resolution table built from JSON."""
    return model_from_dict(json.loads(model_to_dict(model)))


def _fixture_case(name: str):
    root = FIXTURES / name
    groups = {g.name: [g] for g in sorted(root.iterdir()) if g.name != "lib"}
    return groups, _read_back(build_sum(parse_tree(root / "lib"), name))


def _workload_case(workload: str, tmp: Path):
    sys.path.insert(0, str(PERFBENCH))
    try:
        import corpus as corpus_mod
    finally:
        sys.path.remove(str(PERFBENCH))
    generated = corpus_mod.generate(workload, 1, tmp / workload)
    groups = {
        label: [generated.root / r for r in roots] for label, roots in generated.groups.items()
    }
    model = build_sum(parse_tree(generated.root / "lib"), generated.library_name)
    return groups, _read_back(model)


def _uncached_resolution(fresh: SymbolTable, key: tuple):
    """The resolution rule without its memo: the candidates of the
    question, then ``_choose``."""
    receiver, name, arg_types = key
    args = list(arg_types)
    if name is None:
        candidates = [m for m in fresh.members_of(receiver)
                      if m.kind is SymbolKind.CONSTRUCTOR and len(m.param_types) == len(args)]
    else:
        by_signature = {}
        for m in fresh._members_named(receiver, name):
            if m.kind is SymbolKind.METHOD and len(m.param_types) == len(args):
                by_signature.setdefault(m.signature, m)
        candidates = list(by_signature.values())
    return fresh._choose(candidates, args)


def referee(table: SymbolTable) -> None:
    """Check every answer ``table`` cached against a fresh table of the same
    types with no base."""
    fresh = SymbolTable()
    fresh.types = dict(table.types)
    for key, resolution in table._resolutions.items():
        assert resolution == _uncached_resolution(fresh, key), key
    for fqn, index in table._members.items():
        fresh._members_named(fqn, "")
        assert index == fresh._members[fqn], fqn


def assert_untouched(table: SymbolTable) -> None:
    """``table`` has answered no query: every cache of it is empty."""
    assert (table._members, table._resolutions) == ({}, {})


def _referee_corpus(groups, model, monkeypatch) -> list[SymbolTable]:
    tables: list[SymbolTable] = []
    build = footprint.build_symbol_table

    def recording(units, base=None):
        tables.append(build(units, base))
        return tables[-1]

    monkeypatch.setattr(footprint, "build_symbol_table", recording)
    footprint_of_corpus(groups, model)
    assert len(tables) == len(groups)
    return tables


@pytest.mark.parametrize("name", FIXTURE_CORPORA)
def test_every_cached_answer_of_a_fixture_corpus_is_the_uncached_one(name, monkeypatch):
    groups, model = _fixture_case(name)
    tables = _referee_corpus(groups, model, monkeypatch)
    for table in tables:
        referee(table)
    assert_untouched(model.table)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_cached_answer_of_a_workload_is_the_uncached_one(
        workload, tmp_path, monkeypatch):
    groups, model = _workload_case(workload, tmp_path)
    tables = _referee_corpus(groups, model, monkeypatch)
    assert len(tables) > 1 and all(t._resolutions for t in tables)
    for table in tables:
        referee(table)
    assert_untouched(model.table)


# ---------------------------------------------------------------------------
# A client type that completes a library type's external supertype changes
# that type's answers in its own group's table only.
# ---------------------------------------------------------------------------

REUSE_LIBRARY = "package p; public class L extends Ext { public L() { } public void own() { } }"
REUSE_CALLS = "class Use { void f() { new p.L().m(); new p.L().own(); } }"


@pytest.fixture()
def reuse_corpus(tmp_path) -> tuple[Path, dict[str, list[str]]]:
    (tmp_path / "lib" / "p").mkdir(parents=True)
    (tmp_path / "lib" / "p" / "L.java").write_text(REUSE_LIBRARY)
    assert main(["sum", str(tmp_path / "lib"), "-o", str(tmp_path / "sum.json")]) == 0
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "Ext.java").write_text("public class Ext { public void m() { } }")
    (tmp_path / "a" / "Use.java").write_text(REUSE_CALLS)
    (tmp_path / "b").mkdir()
    (tmp_path / "b" / "Use.java").write_text(REUSE_CALLS)
    return tmp_path, {"a": [str(tmp_path / "a")], "b": [str(tmp_path / "b")]}


def test_a_completed_external_supertype_is_not_shared_between_groups(reuse_corpus, capsys):
    """Group ``a`` completes ``p.L``'s supertype ``Ext``, so ``m`` resolves
    there and nowhere else, whichever group is extracted first."""
    root, roots = reuse_corpus
    written = []
    for order in (("a", "b"), ("b", "a")):
        config = root / f"{''.join(order)}.json"
        config.write_text(json.dumps({"groups": {label: roots[label] for label in order}}))
        out = root / "".join(order)
        assert main(["suf", "--sum", str(root / "sum.json"), "--config", str(config),
                     "-o", str(out)]) == 0
        written.append({label: (out / f"{label}.json").read_bytes() for label in roots})
    capsys.readouterr()
    assert written[0] == written[1]
    a, b = (json.loads(written[0][label]) for label in ("a", "b"))
    assert a["diagnostics"] == []
    assert [(d["kind"], d["message"]) for d in b["diagnostics"]] == [
        ("Unresolved", "cannot resolve method m on p.L")]
    invoked = [(u["fqn"], u["use"]) for u in a["uses"] if u["use"] == "MethodInvocation"]
    assert invoked == [("p.L.own", "MethodInvocation")]
