"""Reference coverage: the per-report algorithm that rebuilds the model's use
set, grades every symbol and sorts every row for each report.

The program computes the model-wide parts once per model instead; the tests
check that both give equal reports and equal serialized reports.

Reference footprint reader: the per-row loop that decodes, looks up and
checks every row. The program decodes each distinct (use, fqn, signature)
key once; the tests check that both read equal footprints and fail on the
same rows.

Reference footprint writer: the dict form, one dict per sorted row. The
program encodes each distinct (symbol, use) pair's head once; the tests
check that its text is what ``json.dumps`` writes for this dict.
"""

from __future__ import annotations

from fractions import Fraction

from ucov.errors import ModelMismatch
from ucov.footprint import Footprint
from ucov.metrics import CoverageLevel, CoverageReport, _fmt_ratio
from ucov.model import TYPE_USES, Symbol, UsageModel, UseKind
from ucov.uses import Diagnostic, DiagnosticKind, Location, UseTriple

UsePair = tuple[Symbol, UseKind]


def naive_coverage(model: UsageModel, fp: Footprint) -> CoverageReport:
    covered_uses = {
        (t.symbol, t.use) for t in fp.triples if t.use in model.entries.get(t.symbol, ())
    }
    covered_symbols = {s for s, _ in covered_uses}
    api_symbols = set(model.entries)
    all_uses = {(s, u) for s, uses in model.entries.items() for u in uses}
    symbol_coverage = (
        Fraction(len(covered_symbols), len(api_symbols)) if api_symbols else Fraction(1)
    )
    use_coverage = Fraction(len(covered_uses), len(all_uses)) if all_uses else Fraction(1)
    levels = {s: _level_of(s, model.entries[s], covered_uses) for s in api_symbols}
    return CoverageReport(
        covered_uses=covered_uses,
        levels={s: level for s, level in levels.items() if level is not CoverageLevel.NONE},
        symbol_coverage=symbol_coverage,
        use_coverage=use_coverage,
        total_uses=len(fp.triples),
    )


def _level_of(
    sym: Symbol, legal: frozenset[UseKind], covered: set[UsePair]
) -> CoverageLevel:
    hit = {u for u in legal if (sym, u) in covered}
    if not hit:
        return CoverageLevel.NONE
    if hit == set(legal):
        return CoverageLevel.FULL
    return CoverageLevel.PARTIAL


def naive_coverage_to_dict(report: CoverageReport, model: UsageModel) -> dict:
    """The dict form of a report: every exported symbol has a level, None
    unless the report has one, and every legal use it does not cover is
    an uncovered row."""
    level_names = {}
    for sym in sorted(model.entries, key=Symbol.sort_key):
        key = f"{sym.fqn}{'#' + sym.signature if sym.signature else ''}"
        level_names[key] = report.levels.get(sym, CoverageLevel.NONE).value
    all_uses = {(s, u) for s, uses in model.entries.items() for u in uses}
    uncovered = [
        {"fqn": s.fqn, "signature": s.signature, "use": u.value}
        for s, u in sorted(
            all_uses - report.covered_uses, key=lambda su: (su[0].sort_key(), su[1].value)
        )
    ]
    return {
        "symbol_coverage": _fmt_ratio(report.symbol_coverage),
        "use_coverage": _fmt_ratio(report.use_coverage),
        "totals": {
            "api_symbols": len(model.entries),
            "legal_uses": sum(len(uses) for uses in model.entries.values()),
            "symbols_used": len({s for s, _ in report.covered_uses}),
            "unique_uses": len(report.covered_uses),
            "total_uses": report.total_uses,
        },
        "levels": level_names,
        "uncovered_uses": uncovered,
    }


def naive_footprint_from_dict(data: dict, model: UsageModel) -> Footprint:
    if data["library"] != model.library_name:
        raise ModelMismatch(
            f"footprint is for {data['library']!r}, model is {model.library_name!r}"
        )
    label = data["label"]
    if not isinstance(label, str):
        raise TypeError(f"footprint label must be a string, found {type(label).__name__}")
    triples: set[UseTriple] = set()
    for u in data["uses"]:
        use = UseKind(u["use"])
        if use in TYPE_USES:
            sym = model.type_symbol(u["fqn"])
        else:
            # The member of that name and signature at which ``use`` is
            # legal: a constructor and a method named like its class share
            # both, but no legal use.
            fqn, signature = u["fqn"], u["signature"]
            sym = next((s for s, legal in model.entries.items()
                        if s.fqn == fqn and s.signature == signature and use in legal), None)
        if sym is None or use not in model.entries[sym]:
            raise ModelMismatch(
                f"{use.value} of {u['fqn']} is not a legal use in model "
                f"{model.library_name!r}"
            )
        triples.add(UseTriple(sym, use, _checked_location(u)))
    diagnostics = []
    for d in data.get("diagnostics", []):
        location, kind, message = _checked_location(d), DiagnosticKind(d["kind"]), d["message"]
        if not isinstance(message, str):
            raise TypeError(f"message must be a string, found {message!r}")
        diagnostics.append(Diagnostic(location, kind, message))
    return Footprint(label, data["library"], triples, diagnostics)


def _checked_location(row: dict) -> Location:
    """A string ``file``, and ``line`` and ``col`` that are integers and
    not booleans."""
    location = Location(row["file"], row["line"], row["col"])
    rules = (("file", str, "a string"), ("line", int, "an integer"), ("col", int, "an integer"))
    for (key, want, what), value in zip(rules, location):
        if type(value) is not want:
            raise TypeError(f"{key} must be {what}, found {value!r}")
    return location


def naive_footprint_to_dict(fp: Footprint) -> dict:
    uses = sorted(fp.triples, key=lambda t: t.sort_key())
    diagnostics = sorted(
        fp.diagnostics, key=lambda d: (d.location, d.kind.value, d.message)
    )
    return {
        "label": fp.label,
        "library": fp.library,
        "uses": [
            {
                "fqn": t.symbol.fqn,
                "signature": t.symbol.signature,
                "use": t.use.value,
                "file": t.location.file,
                "line": t.location.line,
                "col": t.location.column,
            }
            for t in uses
        ],
        "diagnostics": [
            {
                "kind": d.kind.value,
                "file": d.location.file,
                "line": d.location.line,
                "col": d.location.column,
                "message": d.message,
            }
            for d in diagnostics
        ],
    }
