"""Acceptance suite.

Each criterion is marked with ``@pytest.mark.criterion(n, title)``; the
terminal summary prints one PASS/FAIL line per criterion (see conftest).

1. ArrayList usage-model reproduction
2. Classical/framework footprint reproduction
3. Union and individual coverage scores
4. Per-rule extraction suite (one fixture line per rule)
5. Extractor equivalence with an independent brute-force oracle
6. Randomized property suites (>= 1000 cases each)
7. Byte-identical determinism of every command
8. Polymorphic invocation covers supertype declarations
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, client_units, model_for
from oracle import oracle_extract
from ucov import (
    Footprint,
    Location,
    UseKind,
    UseTriple,
    build_sum,
    compute_coverage,
    exclusive_regions,
    extract_uses,
    merge,
    parse_unit,
)
from ucov.cli import main
from ucov.lexer import KEYWORDS
from ucov.metrics import CoverageLevel
from ucov.model import Symbol, SymbolKind, UsageModel
from ucov.symtab import SymbolTable

U = UseKind

PROPERTY_SETTINGS = settings(max_examples=1000, deadline=None)


def located(fp):
    return {
        (t.symbol.fqn, t.symbol.signature, t.use, t.location.line) for t in fp.triples
    }


# ---------------------------------------------------------------------------
# Criterion 1: usage model of the ArrayList excerpt
# ---------------------------------------------------------------------------


@pytest.mark.criterion(1, "ArrayList usage-model reproduction")
def test_criterion_1_arraylist_model(arraylist_model):
    entries = {
        (s.fqn, s.signature): set(uses) for s, uses in arraylist_model.entries.items()
    }
    assert entries == {
        ("java.util.ArrayList", None): {
            U.TYPE_REFERENCE,
            U.INSTANTIATION,
            U.INHERITANCE,
        },
        # the implicit public zero-arg constructor is part of the exported API
        ("java.util.ArrayList.ArrayList", "ArrayList()"): {U.CONSTRUCTOR_INVOCATION},
        ("java.util.ArrayList.add", "add(java.lang.Object)"): {
            U.METHOD_INVOCATION,
            U.OVERRIDING,
        },
    }
    # the private size field is absent
    assert all(s.fqn != "java.util.ArrayList.size" for s in arraylist_model.entries)
    assert arraylist_model.legal_use_count == 6


# ---------------------------------------------------------------------------
# Criterion 2: footprints of the classical and framework clients
# ---------------------------------------------------------------------------


@pytest.mark.criterion(2, "classical/framework footprint reproduction")
def test_criterion_2_classical_footprint(arraylist_model):
    fp = extract_uses(client_units("arraylist", "classic"), arraylist_model)
    assert located(fp) == {
        ("java.util.ArrayList", None, U.TYPE_REFERENCE, 7),
        ("java.util.ArrayList", None, U.INSTANTIATION, 7),
        ("java.util.ArrayList.ArrayList", "ArrayList()", U.CONSTRUCTOR_INVOCATION, 7),
        ("java.util.ArrayList.add", "add(java.lang.Object)", U.METHOD_INVOCATION, 8),
        ("java.util.ArrayList.add", "add(java.lang.Object)", U.METHOD_INVOCATION, 9),
    }
    assert fp.total_uses == 5  # the two add call sites are distinct triples


@pytest.mark.criterion(2, "classical/framework footprint reproduction")
def test_criterion_2_framework_footprint(arraylist_model):
    fp = extract_uses(client_units("arraylist", "framework"), arraylist_model)
    assert located(fp) == {
        ("java.util.ArrayList", None, U.INHERITANCE, 5),
        ("java.util.ArrayList.add", "add(java.lang.Object)", U.OVERRIDING, 7),
    }


# ---------------------------------------------------------------------------
# Criterion 3: coverage of the union and of the individual clients
# ---------------------------------------------------------------------------


@pytest.mark.criterion(3, "union and individual coverage scores")
def test_criterion_3_coverage(arraylist_model):
    classic = extract_uses(
        client_units("arraylist", "classic"), arraylist_model, label="classic"
    )
    framework = extract_uses(
        client_units("arraylist", "framework"), arraylist_model, label="framework"
    )
    union = compute_coverage(arraylist_model, merge(classic, framework))
    assert union.use_coverage == 1
    assert union.symbol_coverage == 1
    assert compute_coverage(arraylist_model, classic).use_coverage == Fraction(4, 6)
    assert compute_coverage(arraylist_model, framework).use_coverage == Fraction(2, 6)


# ---------------------------------------------------------------------------
# Criterion 4: one-line fixture per extraction rule
# ---------------------------------------------------------------------------

RULE_CASES = [
    ("java.lang.String", None, U.TYPE_REFERENCE, 11),  # field type
    ("java.util.List", None, U.TYPE_REFERENCE, 12),  # generic field type
    ("java.lang.String", None, U.TYPE_REFERENCE, 12),  # type argument
    ("java.lang.Integer", None, U.TYPE_REFERENCE, 14),  # parameter type
    ("java.lang.Integer", None, U.TYPE_REFERENCE, 15),  # return type
    ("java.io.IOException", None, U.TYPE_REFERENCE, 16),  # throws clause
    ("java.io.IOException", None, U.TYPE_REFERENCE, 21),  # catch clause
    ("java.lang.Integer", None, U.INSTANTIATION, 26),  # new expression
    ("java.lang.Integer.Integer", "Integer(int)", U.CONSTRUCTOR_INVOCATION, 26),
    ("java.lang.String.length", "length()", U.METHOD_INVOCATION, 30),
    ("java.lang.String.valueOf", "valueOf(int)", U.STATIC_INVOCATION, 34),
    ("java.lang.Integer.MAX_VALUE", None, U.FIELD_READ, 38),
    ("java.awt.Point.x", None, U.FIELD_WRITE, 42),
    ("java.awt.Point.x", None, U.FIELD_READ, 7),  # Step.java: Point.x++ reads
    ("java.awt.Point.x", None, U.FIELD_WRITE, 7),  # and writes
    ("java.lang.Runnable", None, U.IMPLEMENTATION, 46),  # lambda
    ("java.lang.Runnable.run", "run()", U.OVERRIDING, 46),  # lambda
    ("java.lang.Thread", None, U.INHERITANCE, 5),  # extends clause
    ("java.lang.Thread.run", "run()", U.OVERRIDING, 7),  # subclass override
    ("java.lang.Runnable", None, U.IMPLEMENTATION, 5),  # implements clause
    ("java.lang.Runnable", None, U.INTERFACE_EXTENSION, 5),  # interface extends
]


@pytest.fixture(scope="module")
def tablerows_footprint(tablerows_model):
    return extract_uses(client_units("tablerows"), tablerows_model)


@pytest.mark.criterion(4, "per-rule extraction suite")
@pytest.mark.parametrize("fqn,sig,use,line", RULE_CASES)
def test_criterion_4_rule(tablerows_footprint, fqn, sig, use, line):
    assert (fqn, sig, use, line) in located(tablerows_footprint)


@pytest.mark.criterion(4, "per-rule extraction suite")
def test_criterion_4_is_exact(tablerows_footprint):
    assert len(located(tablerows_footprint)) == 23
    assert tablerows_footprint.diagnostics == []


# ---------------------------------------------------------------------------
# Criterion 5: equivalence with an independent brute-force oracle
# ---------------------------------------------------------------------------

CORPORA = [
    ("arraylist", "classic"),
    ("arraylist", "framework"),
    ("tablerows", "client"),
    ("fluent", "client"),
    ("framework", "client"),
    ("hierarchy", "client"),
    ("edges", "client"),
    ("statements", "client"),
]


@pytest.mark.criterion(5, "independent-oracle equivalence")
@pytest.mark.parametrize("corpus,group", CORPORA, ids=[f"{c}/{g}" for c, g in CORPORA])
def test_criterion_5_oracle_equivalence(corpus, group):
    model = model_for(corpus)
    units = client_units(corpus, group)
    fp = extract_uses(units, model, label=group)
    got = {(t.symbol.fqn, t.symbol.signature, t.use, t.location) for t in fp.triples}
    want = oracle_extract(units, model)
    assert got == want


# ---------------------------------------------------------------------------
# Criterion 6: randomized property suites
# ---------------------------------------------------------------------------

_USE_KINDS = sorted(U, key=lambda k: k.value)


def _synthetic_model(rng: random.Random) -> UsageModel:
    entries = {}
    for i in range(rng.randint(1, 6)):
        sym = Symbol(f"lib.S{i}", SymbolKind.CLASS)
        entries[sym] = frozenset(rng.sample(_USE_KINDS, rng.randint(1, 4)))
    return UsageModel("syn", entries, SymbolTable())


def _synthetic_footprint(rng: random.Random, model: UsageModel, label: str) -> Footprint:
    legal = [(s, u) for s, uses in model.entries.items() for u in uses]
    chosen = rng.sample(legal, rng.randint(0, len(legal)))
    triples = set()
    for sym, use in chosen:
        for _ in range(rng.randint(1, 2)):
            line = rng.randint(1, 40)
            triples.add(UseTriple(sym, use, Location("F.java", line, 1)))
    return Footprint(label, model.library_name, triples)


@st.composite
def model_with_footprints(draw, n=2):
    # One drawn seed per example keeps the 1000-case suites fast while
    # still exercising a fresh random model and footprints every time.
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**48)))
    model = _synthetic_model(rng)
    fps = [_synthetic_footprint(rng, model, f"fp{i}") for i in range(n)]
    return model, fps


@pytest.mark.criterion(6, "randomized property suites")
@PROPERTY_SETTINGS
@given(model_with_footprints(n=3))
def test_property_merge_algebra(data):
    _, (a, b, c) = data
    assert merge(a, b).triples == merge(b, a).triples
    assert merge(merge(a, b), c).triples == merge(a, merge(b, c)).triples
    assert merge(a, a).triples == a.triples


@pytest.mark.criterion(6, "randomized property suites")
@PROPERTY_SETTINGS
@given(model_with_footprints(n=2))
def test_property_coverage_monotone_under_merge(data):
    model, (a, b) = data
    ra = compute_coverage(model, a)
    rb = compute_coverage(model, b)
    rm = compute_coverage(model, merge(a, b))
    assert rm.use_coverage >= max(ra.use_coverage, rb.use_coverage)
    assert rm.symbol_coverage >= max(ra.symbol_coverage, rb.symbol_coverage)
    assert rm.covered_uses == ra.covered_uses | rb.covered_uses


@pytest.mark.criterion(6, "randomized property suites")
@PROPERTY_SETTINGS
@given(model_with_footprints(n=1))
def test_property_symbol_coverage_is_projection(data):
    model, (fp,) = data
    r = compute_coverage(model, fp)
    assert r.covered_symbols == {sym for sym, _ in r.covered_uses}
    assert r.symbol_coverage == Fraction(len(r.covered_symbols), len(model.entries))


@pytest.mark.criterion(6, "randomized property suites")
@PROPERTY_SETTINGS
@given(model_with_footprints(n=1))
def test_property_levels_partition_api(data):
    model, (fp,) = data
    r = compute_coverage(model, fp)
    counts = {lvl: 0 for lvl in CoverageLevel}
    for sym in model.entries:
        counts[r.levels.get(sym, CoverageLevel.NONE)] += 1
    assert sum(counts.values()) == len(model.entries)
    assert counts[CoverageLevel.NONE] == len(model.entries) - len(r.covered_symbols)


@pytest.mark.criterion(6, "randomized property suites")
@PROPERTY_SETTINGS
@given(model_with_footprints(n=3))
def test_property_region_counts_sum_to_union(data):
    _, fps = data
    regions = exclusive_regions(fps)
    union = set().union(*(fp.unique_uses for fp in fps))
    assert sum(regions.regions.values()) == len(union)
    assert len(regions.regions) == 2 ** len(fps) - 1


@functools.lru_cache(maxsize=None)
def _method_uses(method_name: str, final: bool) -> tuple:
    mods = "public final" if final else "public"
    src = (
        f"package p; public class A {{ public A() {{ }} "
        f"{mods} void {method_name}() {{ }} }}"
    )
    model = build_sum([parse_unit(src, "A.java")], "lib")
    sym = Symbol(f"p.A.{method_name}", SymbolKind.METHOD, f"{method_name}()")
    return tuple(sorted(model.entries[sym], key=lambda u: u.value))


@pytest.mark.criterion(6, "randomized property suites")
@PROPERTY_SETTINGS
@given(
    st.from_regex(r"[a-z][a-zA-Z0-9]{0,6}", fullmatch=True).filter(
        lambda name: name not in KEYWORDS
    )
)
def test_property_final_removes_exactly_overriding(name):
    open_uses = set(_method_uses(name, final=False))
    final_uses = set(_method_uses(name, final=True))
    assert open_uses - final_uses == {U.OVERRIDING}
    assert final_uses == open_uses - {U.OVERRIDING}
    assert U.METHOD_INVOCATION in final_uses


# ---------------------------------------------------------------------------
# Criterion 7: byte-identical determinism of every command
# ---------------------------------------------------------------------------


@pytest.mark.criterion(7, "byte-identical determinism")
def test_criterion_7_determinism(tmp_path, capsys):
    lib = str(FIXTURES / "arraylist" / "lib")
    classic = str(FIXTURES / "arraylist" / "classic")
    framework = str(FIXTURES / "arraylist" / "framework")

    def run_all(tag: str):
        base = tmp_path / tag
        base.mkdir()
        sum_p = base / "sum.json"
        outputs = []
        for argv in (
            ["sum", lib, "-o", str(sum_p), "--name", "arraylist"],
            ["suf", "--sum", str(sum_p), "--label", "classic", classic,
             "-o", str(base / "classic.json")],
            ["suf", "--sum", str(sum_p), "--label", "framework", framework,
             "-o", str(base / "framework.json")],
            ["coverage", "--sum", str(sum_p), str(base / "classic.json"),
             str(base / "framework.json")],
            ["coverage", "--sum", str(sum_p), "--format", "text",
             str(base / "classic.json")],
            ["compare", "--sum", str(sum_p), str(base / "classic.json"),
             str(base / "framework.json"), "-o", str(base / "regions.json")],
            ["profile", "--sum", str(sum_p)],
            ["profile", "--sum", str(sum_p), "--suf", str(base / "classic.json")],
        ):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        files = {
            p.name: p.read_bytes() for p in sorted(base.iterdir()) if p.is_file()
        }
        return outputs, files

    assert run_all("first") == run_all("second")


# ---------------------------------------------------------------------------
# Criterion 8: invocation on a subtype covers the supertype declaration
# ---------------------------------------------------------------------------


@pytest.mark.criterion(8, "polymorphic invocation closure")
def test_criterion_8_polymorphism_closure():
    model = model_for("hierarchy")
    fp = extract_uses(client_units("hierarchy"), model)
    invocations = {
        (t.symbol.fqn, t.use, t.location.line)
        for t in fp.triples
        if t.use is U.METHOD_INVOCATION
    }
    # one call site, triples for both the subtype and supertype declarations
    assert invocations == {
        ("coll.ArrayList.size", U.METHOD_INVOCATION, 8),
        ("coll.List.size", U.METHOD_INVOCATION, 8),
    }
