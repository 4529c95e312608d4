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

Reference model writer: the dict form, one dict per type, member and
symbol, each list sorted as it is written. The program encodes each
distinct name list and use set once; the tests check that its text is what
``json.dumps`` writes for this dict.

Reference model reader: every name checked by a call and every list of
names checked and converted row by row. The program checks names in line
and each distinct list once; the tests check that both read equal models
and tables and fail with the same error.
"""

from __future__ import annotations

from fractions import Fraction

from ucov.errors import CyclicHierarchy, ModelMismatch
from ucov.footprint import Footprint
from ucov.metrics import CoverageLevel, CoverageReport, _fmt_ratio
from ucov.model import (
    _SIGNED_KINDS,
    _TYPE_KINDS,
    TYPE_USES,
    Symbol,
    SymbolKind,
    UsageModel,
    UseKind,
    _declared_kind,
    _flag,
    _kind,
    _name,
    _name_or_null,
    _names,
)
from ucov.symtab import MemberInfo, SymbolTable, TypeInfo, check_acyclic
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
    uses = sorted(fp.triples, key=lambda t: (t.symbol.sort_key(), t.use.value, t.location))
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


def naive_model_to_dict(model: UsageModel) -> dict:
    # by (fqn, kind, signature): a plain tuple equals the Symbol of that content
    modifiers: dict[tuple, frozenset[str]] = {}
    types = []
    members = []
    for info in sorted(model.table.types.values(), key=lambda t: t.fqn):
        modifiers[(info.fqn, info.kind, None)] = info.modifiers
        types.append(
            {
                "fqn": info.fqn,
                "kind": info.kind.value,
                "modifiers": sorted(info.modifiers),
                "type_params": list(info.type_params),
                "supertypes": list(info.supertypes),
                "external": sorted(info.external_supertypes),
                "enclosing": info.enclosing,
            }
        )
        for m in sorted(info.members, key=lambda m: (m.name, m.signature or "")):
            modifiers[(m.fqn, m.kind, m.signature)] = m.modifiers
            members.append(
                {
                    "declaring": m.declaring,
                    "kind": m.kind.value,
                    "name": m.name,
                    "modifiers": sorted(m.modifiers),
                    "signature": m.signature,
                    "params": list(m.param_types),
                    "returns": None if m.kind is SymbolKind.FIELD else m.type,
                    "field_type": m.type if m.kind is SymbolKind.FIELD else None,
                    "synthesized": m.synthesized,
                }
            )
    symbols = [
        {
            "fqn": sym.fqn,
            "kind": sym.kind.value,
            "signature": sym.signature,
            "modifiers": sorted(modifiers[sym]),
            "uses": sorted(u.value for u in uses),
        }
        for sym, uses in sorted(model.entries.items(), key=lambda kv: kv[0].sort_key())
    ]
    return {
        "library": model.library_name,
        "symbols": symbols,
        "resolution": {"types": types, "members": members},
    }


def naive_model_from_dict(data: dict) -> UsageModel:
    """The model in ``data``, each name checked by a call and each list of
    names in full on every row; its table is read by
    ``_naive_table_from_dict`` when first used."""
    resolution = data.get("resolution")
    if resolution is None:
        raise ModelMismatch("model file lacks the resolution section")
    entries: dict[Symbol, frozenset[UseKind]] = {}
    use_sets: dict[tuple[str, ...], frozenset[UseKind]] = {}  # a handful, shared
    type_fqns: set[str] = set()
    for s in data["symbols"]:
        sym = Symbol(_name(s["fqn"]), _kind(s["kind"]), _name_or_null(s["signature"]))
        if sym.kind in _SIGNED_KINDS:
            if sym.signature is None:
                raise ValueError(f"{sym.kind.value} {sym.fqn} has no signature")
        elif sym.signature is not None:
            raise ValueError(
                f"{sym.kind.value} {sym.fqn} has a signature, found {sym.signature!r}"
            )
        if sym in entries:
            raise ValueError(f"{sym.kind.value} {sym} is listed twice")
        if sym.kind in _TYPE_KINDS:
            if sym.fqn in type_fqns:
                raise ValueError(f"type {sym.fqn} is listed twice")
            type_fqns.add(sym.fqn)
        names = _names(s["uses"])
        uses = use_sets.get(names)
        if uses is None:
            uses = use_sets[names] = frozenset(UseKind(u) for u in names)
        entries[sym] = uses
    return UsageModel(_name(data["library"]), entries, lambda: _naive_table_from_dict(resolution))


def _naive_table_from_dict(resolution: dict) -> SymbolTable:
    """The resolution table of a serialized model's resolution section. A
    supertype cycle among its types is malformed content, as a repeated
    type is."""
    table = SymbolTable()
    members_by_type: dict[str, dict[tuple, MemberInfo]] = {}  # by kind, name, signature
    for m in resolution["members"]:
        kind = _declared_kind(m["kind"], of_type=False)
        returns, of_field = _name_or_null(m["returns"]), _name_or_null(m["field_type"])
        member = MemberInfo(
            declaring=_name(m["declaring"]),
            kind=kind,
            name=_name(m["name"]),
            modifiers=frozenset(_names(m["modifiers"])),
            signature=(_name_or_null if kind is SymbolKind.FIELD else _name)(m["signature"]),
            param_types=_names(m["params"]),
            type=of_field if kind is SymbolKind.FIELD else returns,
            synthesized=_flag(m.get("synthesized", False)),
        )
        members = members_by_type.setdefault(member.declaring, {})
        if members.setdefault((kind, member.name, member.signature), member) is not member:
            sym = Symbol(member.fqn, kind, member.signature)
            raise ValueError(f"{kind.value} {sym} is listed twice")
    for t in resolution["types"]:
        fqn = _name(t["fqn"])
        if fqn in table.types:
            raise ValueError(f"type {fqn} is listed twice")
        table.types[fqn] = TypeInfo(
            fqn=fqn,
            kind=_declared_kind(t["kind"], of_type=True),
            modifiers=frozenset(_names(t["modifiers"])),
            type_params=_names(t["type_params"]),
            supertypes=_names(t["supertypes"]),
            external_supertypes=frozenset(_names(t["external"])),
            members=tuple(members_by_type.get(fqn, {}).values()),
            enclosing=_name_or_null(t.get("enclosing")),
        )
    try:
        check_acyclic(table.types, table.types)
    except CyclicHierarchy as exc:  # the model's fault, not a client's
        raise ValueError(str(exc)) from exc
    return table
