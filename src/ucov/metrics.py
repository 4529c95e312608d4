"""Coverage scores, coverage levels, popularity, profiles, and intersection
regions derived from a usage model and one or more footprints."""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import KeysView
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Union

from .errors import ModelMismatch, UnknownSymbol, warn
from .uses import Footprint
from .model import Symbol, UsageModel, UsePair, UseKind


class CoverageLevel(Enum):
    FULL = "Full"
    PARTIAL = "Partial"
    NONE = "None"


class CoverageReport(NamedTuple):
    """The coverage of one footprint. ``levels`` maps only the symbols it uses,
    to Full or Partial; every other exported symbol has level None."""

    covered_uses: set[UsePair]
    levels: dict[Symbol, CoverageLevel]
    symbol_coverage: Fraction
    use_coverage: Fraction
    total_uses: int

    @property
    def covered_symbols(self) -> KeysView[Symbol]:
        return self.levels.keys()


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


def compute_coverage(model: UsageModel, fp: Footprint) -> CoverageReport:
    """Coverage of a footprint with respect to its governing model.

    Both scores are exact rationals: covered symbols over API symbols, and
    covered unique uses over legal uses. Coverage of an empty model is 1
    by vacuous truth (with a warning). Only the footprint's pairs are
    looked at: the report holds nothing that the footprint does not cover.
    """
    _check_governed(model, fp)
    legal = model.legal_pairs
    covered_uses = {pair for pair in fp.sites if pair in legal}
    hits = Counter(sym for sym, _ in covered_uses)
    levels = {
        sym: CoverageLevel.FULL if hit == len(model.entries[sym]) else CoverageLevel.PARTIAL
        for sym, hit in hits.items()
    }
    if not model.entries:
        warn("coverage over an empty API is vacuously 1.0")
        symbol_coverage = Fraction(1)
    else:
        symbol_coverage = Fraction(len(levels), len(model.entries))
    if not legal:
        if model.entries:
            warn("model has no legal uses; use coverage is vacuously 1.0")
        use_coverage = Fraction(1)
    else:
        use_coverage = Fraction(len(covered_uses), len(legal))
    return CoverageReport(
        covered_uses=covered_uses,
        levels=levels,
        symbol_coverage=symbol_coverage,
        use_coverage=use_coverage,
        total_uses=fp.total_uses,
    )


def coverage_level(sym: Symbol, model: UsageModel, fp: Footprint) -> CoverageLevel:
    _check_governed(model, fp)
    if sym not in model.entries:
        raise UnknownSymbol(f"{sym.fqn} is not an exported symbol of the model")
    return compute_coverage(model, fp).levels.get(sym, CoverageLevel.NONE)


def popularity(fp: Footprint, by: str = "SymbolUse") -> list[tuple[object, int]]:
    """Occurrence counts of use sites, ranked descending.

    ``by`` is "Symbol" (counts per symbol) or "SymbolUse" (counts per
    (symbol, use) pair). Ties are broken by symbol order, then by use, so
    the ranking is deterministic.
    """
    if by == "Symbol":
        counts: Counter[Symbol] = Counter()
        for (sym, _), locations in fp.sites.items():
            counts[sym] += len(locations)
        return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0].sort_key()))
    pairs = [(pair, len(locations)) for pair, locations in fp.sites.items()]
    return sorted(pairs, key=lambda kv: (-kv[1], kv[0][0].sort_key(), kv[0][1].value))


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
        kinds = [use for _, use in basis.sites]
        basis_name = "ActualUniqueUses"
    counts = Counter(kinds)
    total = len(kinds)
    weights = {k: Fraction(counts[k], total) if total else Fraction(0) for k in UseKind}
    return ProfileDistribution(weights, basis_name)


# Every non-empty subset of labels is a region, so each footprint doubles
# the regions and the memory they take: 16 footprints make 65,535 regions.
MAX_REGION_FOOTPRINTS = 16


def exclusive_regions(footprints: list[Footprint]) -> IntersectionRegions:
    """Partition the union of unique uses by the exact subset of labeled
    footprints containing each use. Zero-count regions are included for
    every non-empty subset of labels, so at most ``MAX_REGION_FOOTPRINTS``
    footprints are taken."""
    if len(footprints) < 2:
        raise ValueError("at least two footprints are required")
    if len(footprints) > MAX_REGION_FOOTPRINTS:
        raise ValueError(
            f"at most {MAX_REGION_FOOTPRINTS} footprints can be compared "
            f"({2 ** MAX_REGION_FOOTPRINTS - 1:,} regions); got {len(footprints)}"
        )
    libraries = {fp.library for fp in footprints}
    if len(libraries) > 1:
        raise ModelMismatch(f"footprints span different models: {sorted(libraries)}")
    labels = [fp.label for fp in footprints]
    if len(set(labels)) != len(labels):
        raise ValueError(f"footprint labels are not unique: {labels}")
    membership: dict[UsePair, frozenset[str]] = {}
    for fp in footprints:
        for pair in fp.sites:
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


_LEVEL_TEXT = {level: f'"{level.value}"' for level in CoverageLevel}


def coverage_to_dict(report: CoverageReport, model: UsageModel, label: str) -> str:
    """The report of ``model`` labeled ``label``, as JSON text: the bytes
    ``json.dumps(..., ensure_ascii=False, separators=(",", ":"))`` writes
    for its dict form. ``levels`` and ``uncovered_uses`` are joined from the
    model's encoded fragments: a key shows None unless the report has a
    level for its symbol, and the uncovered rows are the runs of
    ``encoded_rows`` between the rows of the covered pairs. (The name is
    the dict form's, which ``perfbench`` traces.)"""
    legal = model.legal_pairs
    head = {
        "label": label,
        "symbol_coverage": _fmt_ratio(report.symbol_coverage),
        "use_coverage": _fmt_ratio(report.use_coverage),
        "totals": {
            "api_symbols": len(model.entries),
            "legal_uses": len(legal),
            "symbols_used": len(report.levels),
            "unique_uses": len(report.covered_uses),
            "total_uses": report.total_uses,
        },
    }
    prefixes, levels = model.encoded_levels, model.encoded_unused_levels.copy()
    for sym, level in report.levels.items():
        if sym in levels:  # not hidden by a shared key
            levels[sym] = prefixes[sym] + _LEVEL_TEXT[level]
    rows, uncovered, start = model.encoded_rows, [], 0
    for i in sorted([legal[pair] for pair in report.covered_uses]):
        uncovered += rows[start:i]
        start = i + 1
    uncovered += rows[start:]
    text = json.dumps(head, ensure_ascii=False, separators=(",", ":"))[:-1]
    levels_text, uncovered_text = ",".join(levels.values()), ",".join(uncovered)
    return f'{text},"levels":{{{levels_text}}},"uncovered_uses":[{uncovered_text}]}}'


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
