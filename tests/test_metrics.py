"""Coverage scores and levels, popularity, profiles, and intersection regions."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from conftest import client_units, model_for
from ucov import (
    CoverageLevel,
    Footprint,
    ModelMismatch,
    UnknownSymbol,
    UseKind,
    compute_coverage,
    coverage_level,
    exclusive_regions,
    extract_uses,
    merge,
    popularity,
    profile,
)
from ucov.metrics import coverage_to_dict, profile_to_dict, regions_to_dict
from ucov.model import Symbol, SymbolKind, UsageModel
from ucov.symtab import SymbolTable

U = UseKind


@pytest.fixture(scope="module")
def arraylist():
    model = model_for("arraylist")
    classic = extract_uses(client_units("arraylist", "classic"), model, label="classic")
    framework = extract_uses(
        client_units("arraylist", "framework"), model, label="framework"
    )
    return model, classic, framework


def test_coverage_scores_are_exact_rationals(arraylist):
    model, classic, framework = arraylist
    rc = compute_coverage(model, classic)
    assert rc.use_coverage == Fraction(4, 6)
    assert rc.symbol_coverage == Fraction(3, 3)
    rf = compute_coverage(model, framework)
    assert rf.use_coverage == Fraction(2, 6)
    assert rf.symbol_coverage == Fraction(2, 3)


def test_union_coverage_is_total(arraylist):
    model, classic, framework = arraylist
    r = compute_coverage(model, merge(classic, framework))
    assert r.use_coverage == 1
    assert r.symbol_coverage == 1
    assert set(model.legal_pairs) - r.covered_uses == set()
    assert set(model.entries) - r.covered_symbols == set()


def test_coverage_levels_partition(arraylist):
    model, classic, _ = arraylist
    r = compute_coverage(model, classic)
    by_fqn = {(s.fqn, s.signature): lvl for s, lvl in r.levels.items()}
    assert by_fqn[("java.util.ArrayList", None)] is CoverageLevel.PARTIAL
    assert by_fqn[("java.util.ArrayList.ArrayList", "ArrayList()")] is CoverageLevel.FULL
    assert by_fqn[("java.util.ArrayList.add", "add(java.lang.Object)")] is CoverageLevel.PARTIAL
    assert len(r.levels) == len(model.entries)


def test_coverage_level_lookup(arraylist):
    model, classic, _ = arraylist
    sym = model.symbol_for("java.util.ArrayList.ArrayList", "ArrayList()")
    assert coverage_level(sym, model, classic) is CoverageLevel.FULL
    unused = model.symbol_for("java.util.ArrayList.add", "add(java.lang.Object)")
    empty = Footprint("empty", model.library_name)
    assert coverage_level(unused, model, empty) is CoverageLevel.NONE
    stranger = Symbol("x.Y", SymbolKind.CLASS)
    with pytest.raises(UnknownSymbol):
        coverage_level(stranger, model, classic)


def test_coverage_requires_matching_library(arraylist):
    model, _, _ = arraylist
    with pytest.raises(ModelMismatch):
        compute_coverage(model, Footprint("f", "otherlib"))


def test_empty_model_coverage_is_vacuous():
    empty = UsageModel("void", {}, SymbolTable())
    r = compute_coverage(empty, Footprint("f", "void"))
    assert r.use_coverage == 1
    assert r.symbol_coverage == 1


def test_popularity_by_symbol_use(arraylist):
    _, classic, _ = arraylist
    ranked = popularity(classic, by="SymbolUse")
    (sym, use), count = ranked[0]
    assert (sym.fqn, use, count) == (
        "java.util.ArrayList.add",
        U.METHOD_INVOCATION,
        2,
    )
    assert all(c == 1 for _, c in ranked[1:])
    counts = [c for _, c in ranked]
    assert counts == sorted(counts, reverse=True)


def test_popularity_by_symbol_breaks_ties_deterministically(arraylist):
    _, classic, _ = arraylist
    ranked = popularity(classic, by="Symbol")
    assert [(s.fqn, c) for s, c in ranked] == [
        ("java.util.ArrayList", 2),
        ("java.util.ArrayList.add", 2),
        ("java.util.ArrayList.ArrayList", 1),
    ]


def test_model_profile_covers_every_kind(arraylist):
    model, _, _ = arraylist
    dist = profile(model)
    assert dist.basis == "LegalUses"
    assert set(dist.weights) == set(U)
    assert sum(dist.weights.values()) == 1
    expected_sixth = {
        U.TYPE_REFERENCE,
        U.INSTANTIATION,
        U.INHERITANCE,
        U.CONSTRUCTOR_INVOCATION,
        U.METHOD_INVOCATION,
        U.OVERRIDING,
    }
    for kind in U:
        assert dist.weights[kind] == (
            Fraction(1, 6) if kind in expected_sixth else 0
        )


def test_footprint_profile_uses_unique_pairs(arraylist):
    _, classic, _ = arraylist
    dist = profile(classic)
    assert dist.basis == "ActualUniqueUses"
    # the two add call sites collapse into one unique pair
    assert dist.weights[U.METHOD_INVOCATION] == Fraction(1, 4)
    assert sum(dist.weights.values()) == 1


def test_empty_footprint_profile_is_all_zero(arraylist):
    model, _, _ = arraylist
    dist = profile(Footprint("empty", model.library_name))
    assert all(w == 0 for w in dist.weights.values())


def test_framework_style_leans_on_implementation_and_overriding():
    fw_model = model_for("framework")
    fw = profile(extract_uses(client_units("framework"), fw_model)).weights
    cl_model = model_for("arraylist")
    cl = profile(
        extract_uses(client_units("arraylist", "classic"), cl_model)
    ).weights
    assert fw[U.IMPLEMENTATION] > cl[U.IMPLEMENTATION]
    assert fw[U.OVERRIDING] > cl[U.OVERRIDING]


def test_exclusive_regions(arraylist):
    model, classic, framework = arraylist
    regions = exclusive_regions([classic, framework])
    assert regions.labels == ["classic", "framework"]
    assert regions.regions == {
        frozenset({"classic"}): 4,
        frozenset({"framework"}): 2,
        frozenset({"classic", "framework"}): 0,
    }


def test_region_counts_sum_to_union(arraylist):
    model, classic, framework = arraylist
    regions = exclusive_regions([classic, framework])
    union = classic.unique_uses | framework.unique_uses
    assert sum(regions.regions.values()) == len(union)


def test_regions_validation(arraylist):
    model, classic, framework = arraylist
    with pytest.raises(ValueError):
        exclusive_regions([classic])
    with pytest.raises(ValueError):
        exclusive_regions([classic, classic])  # duplicate labels
    with pytest.raises(ModelMismatch):
        exclusive_regions([classic, Footprint("other", "different")])


def test_three_way_regions_enumerate_all_subsets(arraylist):
    model, classic, framework = arraylist
    third = Footprint("empty", model.library_name)
    regions = exclusive_regions([classic, framework, third])
    assert len(regions.regions) == 7  # 2^3 - 1, zero-count regions included
    assert regions.regions[frozenset({"empty"})] == 0


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_coverage_dict(arraylist):
    model, classic, _ = arraylist
    d = json.loads(coverage_to_dict(compute_coverage(model, classic), model, "classic"))
    assert d["use_coverage"] == 0.6667
    assert d["symbol_coverage"] == 1.0
    assert d["totals"] == {
        "api_symbols": 3,
        "legal_uses": 6,
        "symbols_used": 3,
        "unique_uses": 4,
        "total_uses": 5,
    }
    assert d["levels"]["java.util.ArrayList.ArrayList#ArrayList()"] == "Full"
    assert {(u["fqn"], u["use"]) for u in d["uncovered_uses"]} == {
        ("java.util.ArrayList", "Inheritance"),
        ("java.util.ArrayList.add", "Overriding"),
    }


def test_profile_dict(arraylist):
    model, _, _ = arraylist
    d = profile_to_dict(profile(model))
    assert d["basis"] == "LegalUses"
    assert len(d["weights"]) == len(U)
    assert d["weights"]["TypeReference"] == 0.1667
    assert d["weights"]["FieldRead"] == 0.0
    assert list(d["weights"]) == sorted(d["weights"])


def test_regions_dict(arraylist):
    model, classic, framework = arraylist
    d = regions_to_dict(exclusive_regions([classic, framework]))
    assert d["labels"] == ["classic", "framework"]
    assert d["regions"] == [
        {"members": ["classic"], "count": 4},
        {"members": ["framework"], "count": 2},
        {"members": ["classic", "framework"], "count": 0},
    ]
