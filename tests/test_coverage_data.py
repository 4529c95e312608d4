"""Model-wide coverage data: computed once per model, equal to the per-report
reference algorithm, and the resolution table built only where it is used."""

from __future__ import annotations

import functools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, client_units, model_for
from naive_coverage import naive_coverage, naive_coverage_to_dict
from ucov import (
    Footprint,
    Location,
    Symbol,
    SymbolTable,
    UsageModel,
    UseKind,
    UseTriple,
    compute_coverage,
    extract_uses,
    footprint_from_dict,
    merge,
    model_from_dict,
    model_to_dict,
    profile,
)
from ucov import model as model_module
from ucov.cli import main
from ucov.metrics import CoverageLevel, coverage_to_dict

SRC = Path(__file__).resolve().parent.parent / "src"

CORPORA = [
    ("arraylist", "classic"),
    ("arraylist", "framework"),
    ("fluent", "client"),
    ("framework", "client"),
    ("hierarchy", "client"),
    ("edges", "client"),
    ("tablerows", "client"),
    ("statements", "client"),
]


@functools.lru_cache(maxsize=None)
def fixture(corpus: str, group: str) -> tuple[UsageModel, Footprint]:
    model = model_for(corpus)
    return model, extract_uses(client_units(corpus, group), model, label=group)


def shuffled_copy(model: UsageModel, rng: random.Random) -> UsageModel:
    """The model loaded from JSON whose symbols are out of order."""
    data = model_to_dict(model)
    rng.shuffle(data["symbols"])
    return model_from_dict(json.loads(json.dumps(data)))


def random_footprint(rng: random.Random, model: UsageModel, label: str) -> Footprint:
    legal = [(s, u) for s, uses in model.entries.items() for u in uses]
    triples = {
        UseTriple(sym, use, Location("F.java", rng.randint(1, 9), 1))
        for sym, use in rng.sample(legal, rng.randint(0, len(legal)))
    }
    return Footprint(label, model.library_name, triples)


def assert_matches_reference(model: UsageModel, fp: Footprint) -> None:
    got, want = compute_coverage(model, fp), naive_coverage(model, fp)
    assert got == want
    got_dict, want_dict = coverage_to_dict(got, model), naive_coverage_to_dict(want, model)
    assert got_dict == want_dict
    assert list(got_dict["levels"]) == list(want_dict["levels"])


@pytest.mark.parametrize("corpus,group", CORPORA, ids=[f"{c}/{g}" for c, g in CORPORA])
def test_fixture_reports_match_the_reference(corpus, group):
    model, fp = fixture(corpus, group)
    assert_matches_reference(model, fp)
    assert_matches_reference(shuffled_copy(model, random.Random(0)), fp)


@settings(max_examples=200, deadline=None)
@given(
    corpus=st.sampled_from(CORPORA),
    seed=st.integers(min_value=0, max_value=2**32),
    merged=st.booleans(),
    shuffled=st.booleans(),
)
def test_random_footprints_match_the_reference(corpus, seed, merged, shuffled):
    rng = random.Random(seed)
    model, extracted = fixture(*corpus)
    if shuffled:
        model = shuffled_copy(model, rng)
    subset = set(rng.sample(sorted(extracted.triples, key=UseTriple.sort_key),
                            rng.randint(0, len(extracted.triples))))
    fp = Footprint("a", model.library_name, subset)
    if merged:
        fp = merge(fp, random_footprint(rng, model, "b"))
    assert_matches_reference(model, fp)


def test_empty_model_matches_the_reference():
    model = UsageModel("empty", {}, SymbolTable())
    fp = Footprint("a", "empty")
    assert_matches_reference(model, fp)
    assert compute_coverage(model, fp).use_coverage == 1


def test_out_of_order_symbols_are_reported_in_symbol_order():
    model, fp = fixture("tablerows", "client")
    data = model_to_dict(model)
    data["symbols"].reverse()
    loaded = model_from_dict(data)
    assert list(loaded.entries) != [s for s, _ in loaded.sorted_entries]
    assert coverage_to_dict(compute_coverage(loaded, fp), loaded) == coverage_to_dict(
        compute_coverage(model, fp), model
    )


def test_illegal_pairs_of_a_footprint_built_in_memory_are_not_coverage():
    model, _ = fixture("arraylist", "classic")
    sym = next(s for s in model.entries if s.fqn == "java.util.ArrayList")
    illegal = UseTriple(sym, UseKind.FIELD_WRITE, Location("F.java", 1, 1))
    fp = Footprint("a", model.library_name, {illegal})
    report = compute_coverage(model, fp)
    assert report.covered_uses == set() and report.use_coverage == 0
    assert report.levels[sym] is CoverageLevel.NONE


# ---------------------------------------------------------------------------
# Per command: model-wide work once, the resolution table only for suf
# ---------------------------------------------------------------------------


@pytest.fixture()
def tablerows_sufs(tmp_path):
    """A model and eight footprints of the tablerows corpus."""
    sum_path = tmp_path / "sum.json"
    assert main(["sum", str(FIXTURES / "tablerows" / "lib"), "-o", str(sum_path)]) == 0
    sufs = []
    for i in range(8):
        out = tmp_path / f"g{i}.json"
        root = str(FIXTURES / "tablerows" / "client")
        assert main(["suf", "--sum", str(sum_path), "--label", f"g{i}", root, "-o", str(out)]) == 0
        sufs.append(str(out))
    return str(sum_path), sufs


def test_model_wide_sorts_do_not_grow_with_the_number_of_reports(
    tablerows_sufs, monkeypatch, capsys
):
    sum_path, sufs = tablerows_sufs
    calls = Counter()
    sort_key = Symbol.sort_key

    def counted(sym):
        calls["sort_key"] += 1
        return sort_key(sym)

    monkeypatch.setattr(Symbol, "sort_key", counted)
    symbols = len(json.loads(Path(sum_path).read_text())["symbols"])
    counts = []
    for n in (1, 8):
        calls.clear()
        assert main(["coverage", "--sum", sum_path, *sufs[:n]]) == 0
        counts.append(calls["sort_key"])
    assert counts[0] == counts[1] == symbols
    assert len(json.loads(capsys.readouterr().out.splitlines()[-1])["reports"]) == 9


def test_coverage_compare_and_profile_never_build_the_table(tablerows_sufs, monkeypatch, capsys):
    sum_path, sufs = tablerows_sufs

    def refuse(resolution):
        raise AssertionError("resolution table built")

    monkeypatch.setattr(model_module, "_table_from_dict", refuse)
    assert main(["coverage", "--sum", sum_path, *sufs]) == 0
    assert main(["compare", "--sum", sum_path, *sufs]) == 0
    assert main(["profile", "--sum", sum_path]) == 0
    assert main(["profile", "--sum", sum_path, "--suf", sufs[0]]) == 0
    assert main(["suf", "--sum", sum_path, str(FIXTURES / "tablerows" / "client"),
                 "-o", sufs[0]]) == 3
    assert "resolution table built" in capsys.readouterr().err


def test_suf_runs_from_a_serialized_model():
    model, fp = fixture("tablerows", "client")
    loaded = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
    assert extract_uses(client_units("tablerows"), loaded, label="client").triples == fp.triples


def test_malformed_resolution_section_fails_suf_only(tablerows_sufs, tmp_path, capsys):
    sum_path, sufs = tablerows_sufs
    data = json.loads(Path(sum_path).read_text())
    del data["resolution"]["members"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    capsys.readouterr()
    out = tmp_path / "f.json"
    assert main(["suf", "--sum", str(broken), str(FIXTURES / "tablerows" / "client"),
                 "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'members'" in err and err.count("\n") == 1
    assert main(["coverage", "--sum", str(broken), *sufs]) == 0


# ---------------------------------------------------------------------------
# A field and a nested type of the same name share a levels key
# ---------------------------------------------------------------------------

COLLIDING_LIB = "package a; public class B { public int C; public static class C { } }"
COLLIDING_CLIENTS = {
    "field": "package c; import a.B; public class D { int f(B b) { int x = b.C; return x; } }",
    "class": "package c; import a.B; public class E { B.C f() { return null; } }",
}


def test_colliding_level_keys_warn_and_keep_the_json(tmp_path):
    (tmp_path / "lib" / "a").mkdir(parents=True)
    (tmp_path / "lib" / "a" / "B.java").write_text(COLLIDING_LIB)
    sum_path = tmp_path / "sum.json"
    assert main(["sum", str(tmp_path / "lib"), "-o", str(sum_path)]) == 0
    sufs = []
    for label, text in COLLIDING_CLIENTS.items():
        (tmp_path / label).mkdir()
        (tmp_path / label / "C.java").write_text(text)
        sufs.append(tmp_path / f"{label}.json")
        assert main(["suf", "--sum", str(sum_path), "--label", label, str(tmp_path / label),
                     "-o", str(sufs[-1])]) == 0
    env = {k: v for k, v in os.environ.items() if k != "UCOV_LOG"}
    env["PYTHONPATH"] = str(SRC)
    run = subprocess.run(
        [sys.executable, "-m", "ucov.cli", "coverage", "--sum", str(sum_path), *map(str, sufs)],
        env=env, capture_output=True, text=True, check=True,
    )
    warnings = [line for line in run.stderr.splitlines() if line.startswith("WARNING")]
    assert len(warnings) == 1
    assert "Class and Field a.B.C" in warnings[0]

    model = model_from_dict(json.loads(sum_path.read_text()))
    fps = [footprint_from_dict(json.loads(p.read_text()), model) for p in sufs]
    fps.append(merge(*fps))
    reports = [naive_coverage_to_dict(naive_coverage(model, fp), model) for fp in fps]
    labels = ["field", "class", "All"]
    assert json.loads(run.stdout) == {
        "library": "lib",
        "reports": [{"label": label, **r} for label, r in zip(labels, reports)],
    }
    assert len(model.entries) == 5 and all(len(r["levels"]) == 4 for r in reports)
    # the key shows the field, read but never written, even where only the class is used
    assert [r["levels"]["a.B.C"] for r in reports] == ["Partial", "None", "Partial"]


def colliding_coverage(tmp_path, ucov_log) -> list[str]:
    """The warning lines of ``coverage`` over the colliding library's two
    footprints, run with ``UCOV_LOG`` set to ``ucov_log`` (unset if None)."""
    (tmp_path / "lib" / "a").mkdir(parents=True)
    (tmp_path / "lib" / "a" / "B.java").write_text(COLLIDING_LIB)
    sum_path = tmp_path / "sum.json"
    assert main(["sum", str(tmp_path / "lib"), "-o", str(sum_path)]) == 0
    sufs = []
    for label, text in COLLIDING_CLIENTS.items():
        (tmp_path / label).mkdir()
        (tmp_path / label / "C.java").write_text(text)
        sufs.append(str(tmp_path / f"{label}.json"))
        assert main(["suf", "--sum", str(sum_path), "--label", label, str(tmp_path / label),
                     "-o", sufs[-1]]) == 0
    env = {k: v for k, v in os.environ.items() if k != "UCOV_LOG"}
    env["PYTHONPATH"] = str(SRC)
    if ucov_log is not None:
        env["UCOV_LOG"] = ucov_log
    run = subprocess.run(
        [sys.executable, "-m", "ucov.cli", "coverage", "--sum", str(sum_path), *sufs],
        env=env, capture_output=True, text=True, check=True,
    )
    return [line for line in run.stderr.splitlines() if line.startswith("WARNING")]


@pytest.mark.parametrize("ucov_log", [None, "warn", "info", "debug", "other", "error", "ERROR"])
def test_a_warning_prints_unless_ucov_log_is_error(tmp_path, ucov_log):
    shown = ucov_log not in ("error", "ERROR")
    assert colliding_coverage(tmp_path, ucov_log) == [
        "WARNING ucov: coverage levels share a key and show only the second symbol's "
        "level: Class and Field a.B.C"
    ] * shown


def test_symbol_modifiers_are_those_of_the_declaration_of_that_kind(tmp_path):
    """A field and a nested class share an FQN; each symbol gets its own
    declaration's modifiers."""
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "B.java").write_text(COLLIDING_LIB)
    sum_path = tmp_path / "sum.json"
    assert main(["sum", str(tmp_path), "-o", str(sum_path)]) == 0
    symbols = json.loads(sum_path.read_text())["symbols"]
    modifiers = {(s["fqn"], s["kind"]): s["modifiers"] for s in symbols}
    assert modifiers[("a.B.C", "Field")] == ["public"]
    assert modifiers[("a.B.C", "Class")] == ["public", "static"]


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------


def naive_weights(kinds: list[UseKind]) -> dict[UseKind, Fraction]:
    weights = {k: Fraction(0) for k in UseKind}
    for k in kinds:
        weights[k] += Fraction(1, len(kinds))
    return weights


@pytest.mark.parametrize("corpus,group", CORPORA, ids=[f"{c}/{g}" for c, g in CORPORA])
def test_profile_weights_equal_the_naive_sum(corpus, group):
    model, fp = fixture(corpus, group)
    bases = [
        (model, [u for uses in model.entries.values() for u in uses]),
        (fp, [use for _, use in fp.unique_uses]),
    ]
    for basis, kinds in bases:
        weights = profile(basis).weights
        assert weights == naive_weights(kinds)
        assert sum(weights.values()) == (1 if kinds else 0)


def test_profile_of_an_empty_basis_is_all_zero():
    weights = profile(Footprint("a", "lib")).weights
    assert set(weights) == set(UseKind) and not any(weights.values())
