"""Coverage scores, coverage levels, popularity, profiles, and intersection
regions derived from a usage model and one or more footprints."""

from __future__ import annotations

from collections import Counter
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Union

from .errors import ModelMismatch, UnknownSymbol, warn
from .uses import Footprint
from .model import Symbol, UsageModel, UsePair, UseKind, level_key


class CoverageLevel(Enum):
    FULL = "Full"
    PARTIAL = "Partial"
    NONE = "None"


class CoverageReport(NamedTuple):
    covered_symbols: set[Symbol]
    covered_uses: set[UsePair]
    symbol_coverage: Fraction
    use_coverage: Fraction
    levels: dict[Symbol, CoverageLevel]
    uncovered_symbols: set[Symbol]
    uncovered_uses: set[UsePair]
    total_uses: int


class ProfileDistribution(NamedTuple):
    weights: dict[UseKind, Fraction]
    basis: str  # "LegalUses" or "ActualUniqueUses"


class IntersectionRegions(NamedTuple):
    labels: list[str]
    regions: dict[frozenset[str], int]


def _check_governed(model: UsageModel, fp: Footprint) -> None:
    if fp.library != model.library_name:
        raise ModelMismatch(
            f"footprint is for {fp.library!r}, model is {model.library_name!r}"
        )


def _covered_pairs(model: UsageModel, fp: Footprint) -> set[UsePair]:
    """The footprint's (symbol, use) pairs that are legal uses in the model."""
    legal = model.legal_pairs
    return {pair for pair in fp.unique_uses if pair in legal}


def compute_coverage(model: UsageModel, fp: Footprint) -> CoverageReport:
    """Coverage of a footprint with respect to its governing model.

    Both scores are exact rationals: covered symbols over API symbols, and
    covered unique uses over legal uses. Coverage of an empty model is 1
    by vacuous truth (with a warning). Only the covered pairs are looked
    at one by one; the model-wide sets are copied from the model.
    """
    _check_governed(model, fp)
    covered_uses = _covered_pairs(model, fp)
    hits = Counter(sym for sym, _ in covered_uses)
    covered_symbols = set(hits)
    legal_uses = len(model.legal_pairs)
    if not model.entries:
        warn("coverage over an empty API is vacuously 1.0")
        symbol_coverage = Fraction(1)
    else:
        symbol_coverage = Fraction(len(covered_symbols), len(model.entries))
    if not legal_uses:
        if model.entries:
            warn("model has no legal uses; use coverage is vacuously 1.0")
        use_coverage = Fraction(1)
    else:
        use_coverage = Fraction(len(covered_uses), legal_uses)
    levels = dict.fromkeys(model.entries, CoverageLevel.NONE)
    for sym, hit in hits.items():
        levels[sym] = _grade(hit, len(model.entries[sym]))
    uncovered_symbols = set(model.entries)
    uncovered_symbols -= covered_symbols
    uncovered_uses = set(model.legal_pairs)
    uncovered_uses -= covered_uses
    return CoverageReport(
        covered_symbols=covered_symbols,
        covered_uses=covered_uses,
        symbol_coverage=symbol_coverage,
        use_coverage=use_coverage,
        levels=levels,
        uncovered_symbols=uncovered_symbols,
        uncovered_uses=uncovered_uses,
        total_uses=len(fp.triples),
    )


def _grade(hit: int, legal: int) -> CoverageLevel:
    """The level of a symbol with ``hit`` of its ``legal`` uses covered."""
    if not hit:
        return CoverageLevel.NONE
    return CoverageLevel.FULL if hit == legal else CoverageLevel.PARTIAL


def coverage_level(sym: Symbol, model: UsageModel, fp: Footprint) -> CoverageLevel:
    _check_governed(model, fp)
    if sym not in model.entries:
        raise UnknownSymbol(f"{sym.fqn} is not an exported symbol of the model")
    covered = _covered_pairs(model, fp)
    legal = model.entries[sym]
    return _grade(sum((sym, u) in covered for u in legal), len(legal))


def popularity(fp: Footprint, by: str = "SymbolUse") -> list[tuple[object, int]]:
    """Occurrence counts of triples, ranked descending.

    ``by`` is "Symbol" (counts per symbol) or "SymbolUse" (counts per
    (symbol, use) pair). Ties are broken by symbol order, then by use, so
    the ranking is deterministic.
    """
    if by == "Symbol":
        counts = Counter(t.symbol for t in fp.triples)
        return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0].sort_key()))
    counts = Counter(t.pair for t in fp.triples)
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0][0].sort_key(), kv[0][1].value))


def profile(basis: Union[UsageModel, Footprint]) -> ProfileDistribution:
    """Normalized distribution of use kinds.

    For a model the distribution is over legal uses; for a footprint it is
    over unique (symbol, use) pairs. Every use kind appears in the output,
    with weight zero when absent; all-zero when the basis set is empty.
    """
    if isinstance(basis, UsageModel):
        kinds = [u for uses in basis.entries.values() for u in uses]
        basis_name = "LegalUses"
    else:
        kinds = [use for _, use in basis.unique_uses]
        basis_name = "ActualUniqueUses"
    counts = Counter(kinds)
    total = len(kinds)
    weights = {k: Fraction(counts[k], total) if total else Fraction(0) for k in UseKind}
    return ProfileDistribution(weights, basis_name)


def exclusive_regions(footprints: list[Footprint]) -> IntersectionRegions:
    """Partition the union of unique uses by the exact subset of labeled
    footprints containing each use. Zero-count regions are included for
    every non-empty subset of labels."""
    if len(footprints) < 2:
        raise ValueError("at least two footprints are required")
    libraries = {fp.library for fp in footprints}
    if len(libraries) > 1:
        raise ModelMismatch(f"footprints span different models: {sorted(libraries)}")
    labels = [fp.label for fp in footprints]
    if len(set(labels)) != len(labels):
        raise ValueError(f"footprint labels are not unique: {labels}")
    membership: dict[UsePair, frozenset[str]] = {}
    for fp in footprints:
        for pair in fp.unique_uses:
            membership[pair] = membership.get(pair, frozenset()) | {fp.label}
    regions: dict[frozenset[str], int] = {}
    for r in range(1, 2 ** len(labels)):
        subset = frozenset(l for i, l in enumerate(labels) if r >> i & 1)
        regions[subset] = 0
    for subset in membership.values():
        regions[subset] += 1
    return IntersectionRegions(labels, regions)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _fmt_ratio(x: Fraction) -> float:
    return float(f"{float(x):.4f}")


def coverage_to_dict(report: CoverageReport, model: UsageModel) -> dict:
    """Serializable form of a report of ``model``. Levels and uncovered uses
    are read off the model's precomputed orders: a level key shows None
    unless its symbol is covered, and so graded higher, and a legal use is
    uncovered unless the report covers it."""
    level_keys = model.level_keys
    levels = dict.fromkeys(level_keys, CoverageLevel.NONE.value)
    for sym in report.covered_symbols:
        key = level_key(sym)
        if level_keys.get(key) == sym:
            levels[key] = report.levels[sym].value
    legal = model.legal_pairs
    covered = {legal.get(pair) for pair in report.covered_uses}
    uncovered = [
        {"fqn": fqn, "signature": signature, "use": use}
        for i, (fqn, signature, use) in enumerate(model.use_rows)
        if i not in covered
    ]
    return {
        "symbol_coverage": _fmt_ratio(report.symbol_coverage),
        "use_coverage": _fmt_ratio(report.use_coverage),
        "totals": {
            "api_symbols": len(model.entries),
            "legal_uses": len(legal),
            "symbols_used": len(report.covered_symbols),
            "unique_uses": len(report.covered_uses),
            "total_uses": report.total_uses,
        },
        "levels": levels,
        "uncovered_uses": uncovered,
    }


def profile_to_dict(dist: ProfileDistribution) -> dict:
    return {
        "basis": dist.basis,
        "weights": {k.value: _fmt_ratio(w) for k, w in sorted(
            dist.weights.items(), key=lambda kv: kv[0].value
        )},
    }


def regions_to_dict(regions: IntersectionRegions) -> dict:
    entries = [
        {"members": sorted(subset), "count": count}
        for subset, count in regions.regions.items()
    ]
    entries.sort(key=lambda e: (len(e["members"]), e["members"], e["count"]))
    return {"labels": list(regions.labels), "regions": entries}
