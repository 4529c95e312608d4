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
    build_sum,
    compute_coverage,
    extract_uses,
    footprint_from_dict,
    merge,
    model_from_dict,
    model_to_dict,
    parse_unit,
    profile,
)
from ucov import model as model_module
from ucov.cli import main
from ucov.metrics import CoverageLevel, CoverageReport, coverage_to_dict

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
    data = json.loads(model_to_dict(model))
    rng.shuffle(data["symbols"])
    return model_from_dict(json.loads(json.dumps(data)))


def random_footprint(rng: random.Random, model: UsageModel, label: str) -> Footprint:
    legal = [(s, u) for s, uses in model.entries.items() for u in uses]
    triples = {
        UseTriple(sym, use, Location("F.java", rng.randint(1, 9), 1))
        for sym, use in rng.sample(legal, rng.randint(0, len(legal)))
    }
    return Footprint(label, model.library_name, triples)


def compact(data) -> str:
    """The text ``json.dumps`` writes for ``data`` under the writer's rules."""
    return json.dumps(data, ensure_ascii=False, separators=(",", ":"))


def assert_matches_reference(model: UsageModel, fp: Footprint, label: str) -> None:
    """The report equals the reference report, and its text is byte for byte
    what ``json.dumps`` writes for the reference dict, led by the label."""
    got, want = compute_coverage(model, fp), naive_coverage(model, fp)
    assert got == want
    want_dict = {"label": label, **naive_coverage_to_dict(want, model)}
    assert coverage_to_dict(got, model, label) == compact(want_dict)


def all_legal_uses(model: UsageModel, label: str) -> Footprint:
    triples = {
        UseTriple(sym, use, Location("F.java", 1, 1))
        for sym, uses in model.entries.items()
        for use in uses
    }
    return Footprint(label, model.library_name, triples)


@pytest.mark.parametrize("corpus,group", CORPORA, ids=[f"{c}/{g}" for c, g in CORPORA])
def test_fixture_reports_match_the_reference(corpus, group):
    model, fp = fixture(corpus, group)
    assert_matches_reference(model, fp, group)
    assert_matches_reference(shuffled_copy(model, random.Random(0)), fp, group)
    full = all_legal_uses(model, "full")
    assert_matches_reference(model, full, "full")
    assert '"uncovered_uses":[]' in coverage_to_dict(compute_coverage(model, full), model, "full")
    assert_matches_reference(model, Footprint("empty", model.library_name), "empty")


@settings(max_examples=200, deadline=None)
@given(
    corpus=st.sampled_from(CORPORA),
    seed=st.integers(min_value=0, max_value=2**32),
    merged=st.booleans(),
    shuffled=st.booleans(),
    label=st.text(),
)
def test_random_footprints_match_the_reference(corpus, seed, merged, shuffled, label):
    rng = random.Random(seed)
    model, extracted = fixture(*corpus)
    if shuffled:
        model = shuffled_copy(model, rng)
    subset = set(rng.sample(sorted(extracted.triples, key=UseTriple.sort_key),
                            rng.randint(0, len(extracted.triples))))
    fp = Footprint("a", model.library_name, subset)
    if merged:
        fp = merge(fp, random_footprint(rng, model, "b"))
    assert_matches_reference(model, fp, label)


def test_empty_model_matches_the_reference():
    model = UsageModel("empty", {}, SymbolTable())
    fp = Footprint("a", "empty")
    assert_matches_reference(model, fp, "a")
    assert compute_coverage(model, fp).use_coverage == 1
    assert coverage_to_dict(compute_coverage(model, fp), model, "a").endswith(
        '"levels":{},"uncovered_uses":[]}'
    )


def test_out_of_order_symbols_are_reported_in_symbol_order():
    model, fp = fixture("tablerows", "client")
    data = json.loads(model_to_dict(model))
    data["symbols"].reverse()
    loaded = model_from_dict(data)
    assert list(loaded.entries) != [s for s, _ in loaded.sorted_entries]
    assert coverage_to_dict(compute_coverage(loaded, fp), loaded, "t") == coverage_to_dict(
        compute_coverage(model, fp), model, "t"
    )


def test_the_writer_leaves_non_ascii_text_unescaped():
    lib = parse_unit("package straße; public class Café { public void grüße() { } }",
                     "straße/Café.java")
    client = parse_unit(
        "package k; import straße.Café; public class Ü { void f(Café c) { c.grüße(); } }",
        "Ü.java",
    )
    model = build_sum([lib], "bücher")
    fp = extract_uses([client], model, label="ü")
    assert_matches_reference(model, fp, "ü")
    assert_matches_reference(model, Footprint("ü", "bücher"), 'a "quoted"\tlabel\n')
    text = coverage_to_dict(compute_coverage(model, fp), model, "ü")
    assert "straße.Café.grüße#grüße()" in text and "\\u" not in text


def test_illegal_pairs_of_a_footprint_built_in_memory_are_not_coverage():
    model, _ = fixture("arraylist", "classic")
    sym = next(s for s in model.entries if s.fqn == "java.util.ArrayList")
    illegal = UseTriple(sym, UseKind.FIELD_WRITE, Location("F.java", 1, 1))
    fp = Footprint("a", model.library_name, {illegal})
    report = compute_coverage(model, fp)
    assert report.covered_uses == set() and report.use_coverage == 0
    assert sym in model.entries and sym not in report.levels


@pytest.mark.parametrize("corpus,group", CORPORA, ids=[f"{c}/{g}" for c, g in CORPORA])
def test_a_report_holds_only_what_its_footprint_covers(corpus, group):
    model, _ = fixture(corpus, group)
    assert not {"uncovered_symbols", "uncovered_uses"} & set(CoverageReport._fields)
    empty = compute_coverage(model, Footprint("empty", model.library_name))
    assert empty.levels == {} and empty.covered_uses == set()
    for sym, uses in model.entries.items():
        for use in uses:
            triple = UseTriple(sym, use, Location("F.java", 1, 1))
            report = compute_coverage(model, Footprint("one", model.library_name, {triple}))
            assert report.covered_uses == {(sym, use)}
            level = CoverageLevel.FULL if len(uses) == 1 else CoverageLevel.PARTIAL
            assert report.levels == {sym: level}


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
    loaded = model_from_dict(json.loads(model_to_dict(model)))
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
    "new": "package c; import a.B; public class G { Object g() { return new B(); } }",
}


def colliding_files(tmp_path, count: int = 2) -> tuple[Path, list[str]]:
    """The colliding library's model and the footprints of its first
    ``count`` clients, written by the CLI."""
    (tmp_path / "lib" / "a").mkdir(parents=True)
    (tmp_path / "lib" / "a" / "B.java").write_text(COLLIDING_LIB)
    sum_path = tmp_path / "sum.json"
    assert main(["sum", str(tmp_path / "lib"), "-o", str(sum_path)]) == 0
    sufs = []
    for label, text in list(COLLIDING_CLIENTS.items())[:count]:
        (tmp_path / label).mkdir()
        (tmp_path / label / "C.java").write_text(text)
        sufs.append(str(tmp_path / f"{label}.json"))
        assert main(["suf", "--sum", str(sum_path), "--label", label, str(tmp_path / label),
                     "-o", sufs[-1]]) == 0
    return sum_path, sufs


def colliding_coverage(tmp_path, ucov_log) -> subprocess.CompletedProcess:
    """``coverage`` over the colliding library's two footprints, run with
    ``UCOV_LOG`` set to ``ucov_log`` (unset if None)."""
    sum_path, sufs = colliding_files(tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "UCOV_LOG"}
    env["PYTHONPATH"] = str(SRC)
    if ucov_log is not None:
        env["UCOV_LOG"] = ucov_log
    return subprocess.run(
        [sys.executable, "-m", "ucov.cli", "coverage", "--sum", str(sum_path), *sufs],
        env=env, capture_output=True, text=True, check=True,
    )


def warnings_of(run: subprocess.CompletedProcess) -> list[str]:
    return [line for line in run.stderr.splitlines() if line.startswith("WARNING")]


def reference_reports(sum_path: Path, sufs: list[str]) -> list[dict]:
    """The dict form of each report ``coverage`` writes for ``sufs``: one per
    footprint, and an "All" report of more than one."""
    model = model_from_dict(json.loads(sum_path.read_text()))
    fps = [footprint_from_dict(json.loads(Path(p).read_text()), model) for p in sufs]
    labels = [fp.label for fp in fps]
    if len(fps) > 1:
        fps.append(functools.reduce(merge, fps))
        labels.append("All")
    return [{"label": label, **naive_coverage_to_dict(naive_coverage(model, fp), model)}
            for label, fp in zip(labels, fps)]


def test_colliding_level_keys_warn_and_keep_the_json(tmp_path):
    run = colliding_coverage(tmp_path, None)
    warnings = warnings_of(run)
    assert len(warnings) == 1
    assert "Class and Field a.B.C" in warnings[0]
    reports = reference_reports(tmp_path / "sum.json",
                                [str(tmp_path / f"{label}.json") for label in ("field", "class")])
    assert [r["label"] for r in reports] == ["field", "class", "All"]
    assert run.stdout == compact({"library": "lib", "reports": reports}) + "\n"
    assert all(r["totals"]["api_symbols"] == 5 and len(r["levels"]) == 4 for r in reports)
    # the key shows the field, read but never written, even where only the class is used
    assert [r["levels"]["a.B.C"] for r in reports] == ["Partial", "None", "Partial"]


class Recorder:
    """A text stream that logs each write, under its name, to a shared list."""

    def __init__(self, name: str, log: list[tuple[str, str]]) -> None:
        self.name, self.log = name, log

    def write(self, text: str) -> int:
        self.log.append((self.name, text))
        return len(text)

    def flush(self) -> None:
        pass


def recorded_main(monkeypatch, argv: list[str]) -> list[tuple[str, str]]:
    """Each write of ``main(argv)`` to standard output or error, in order."""
    log: list[tuple[str, str]] = []
    with monkeypatch.context() as patch:
        patch.delenv("UCOV_LOG", raising=False)
        patch.setattr(sys, "stdout", Recorder("out", log))
        patch.setattr(sys, "stderr", Recorder("err", log))
        assert main(argv) == 0
    return log


@pytest.mark.parametrize("count", [1, 2, 3])
def test_coverage_writes_its_reports_one_at_a_time(tmp_path, monkeypatch, count):
    sum_path, sufs = colliding_files(tmp_path, count)
    log = recorded_main(monkeypatch, ["coverage", "--sum", str(sum_path), *sufs])
    streams = [name for name, _ in log]
    # the warning of the shared key, then the output
    assert "share a key" in log[0][1]
    assert streams == ["err"] * streams.index("out") + ["out"] * streams.count("out")
    writes = [text for name, text in log if name == "out"]
    reports = reference_reports(sum_path, sufs)
    assert len(reports) == count + (count > 1)
    assert "".join(writes) == compact({"library": "lib", "reports": reports}) + "\n"
    assert len(writes) == len(reports) + 2  # the head, each report, the tail
    assert max(map(len, writes)) <= max(len(compact(r)) for r in reports) + len(",")


def test_coverage_text_is_one_table_of_every_report(tmp_path, monkeypatch):
    sum_path, sufs = colliding_files(tmp_path, 3)
    log = recorded_main(monkeypatch, ["coverage", "--sum", str(sum_path), "--format", "text",
                                      *sufs])
    assert "".join(text for name, text in log if name == "out") == (
        "                             field           class             new             All\n"
        "API symbols                      5               5               5               5\n"
        "Legal uses                      10              10              10              10\n"
        "Symbols used                     2               1               2               4\n"
        "Unique uses                      2               1               2               5\n"
        "Total uses                       2               1               2               5\n"
        "Symbol coverage             0.4000          0.2000          0.4000          0.8000\n"
        "Use coverage                0.2000          0.1000          0.2000          0.5000\n"
    )


@pytest.mark.parametrize("ucov_log", [None, "warn", "info", "debug", "other", "error", "ERROR"])
def test_a_warning_prints_unless_ucov_log_is_error(tmp_path, ucov_log):
    shown = ucov_log not in ("error", "ERROR")
    assert warnings_of(colliding_coverage(tmp_path, ucov_log)) == [
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
