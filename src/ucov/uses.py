"""Footprint values: located uses, diagnostics, their set algebra and JSON
form, without the frontend or the extractor (``ucov.nodes`` and
``ucov.footprint`` re-export them)."""

from __future__ import annotations

import json
from collections.abc import Iterable, KeysView
from enum import Enum
from json.encoder import encode_basestring
from typing import NamedTuple, Optional

from .errors import ModelMismatch
from .model import MEMBER_USES, Symbol, UsageModel, UseKind, UsePair, _name, new_value


class Location(NamedTuple):
    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class DiagnosticKind(Enum):
    UNRESOLVED = "Unresolved"
    AMBIGUOUS = "Ambiguous"
    ILLEGAL_USE = "IllegalUse"
    PARSE_ERROR = "ParseError"


class Diagnostic(NamedTuple):
    location: Location
    kind: DiagnosticKind
    message: str


class UseTriple(NamedTuple):
    symbol: Symbol
    use: UseKind
    location: Location

    @property
    def pair(self) -> UsePair:
        return (self.symbol, self.use)

    def sort_key(self):
        return (self.symbol.sort_key(), self.use.value, self.location)


class Footprint:
    """The located uses of a labeled client corpus, and its diagnostics.

    ``sites`` maps each (symbol, use) pair, in first-seen order, to the set
    of locations where the corpus makes that use; it is the footprint's
    only record of its uses. Given ``triples`` instead, the constructor
    groups them once. A footprint does not change after it is made.
    """

    def __init__(self, label: str, library: str, triples: Optional[Iterable[UseTriple]] = None,
                 diagnostics: Optional[list[Diagnostic]] = None, *,
                 sites: Optional[dict[UsePair, set[Location]]] = None) -> None:
        if sites is None:
            sites = {}
            for sym, use, loc in triples or ():
                locations = sites.get((sym, use))
                if locations is None:
                    sites[sym, use] = {loc}
                else:
                    locations.add(loc)
        elif triples is not None:
            raise ValueError("a footprint is made from triples or from sites, not both")
        self.label = label
        self.library = library
        self.sites = sites
        self.diagnostics = [] if diagnostics is None else diagnostics

    @property
    def unique_uses(self) -> KeysView[UsePair]:
        """The (symbol, use) pairs of the footprint."""
        return self.sites.keys()

    @property
    def total_uses(self) -> int:
        return sum(map(len, self.sites.values()))

    @property
    def triples(self) -> frozenset[UseTriple]:
        """The located use triples, built from ``sites`` on each read."""
        return frozenset([new_value(UseTriple, (sym, use, loc))
                          for (sym, use), locations in self.sites.items() for loc in locations])


def merge(f1: Footprint, f2: Footprint, label: Optional[str] = None) -> Footprint:
    """Set union of two footprints governed by the same model: each pair's
    locations are the union of its locations in either, in a set of the
    result's own."""
    if f1.library != f2.library:
        raise ModelMismatch(f"cannot merge footprints of {f1.library} and {f2.library}")
    sites = {pair: set(locations) for pair, locations in f1.sites.items()}
    for pair, locations in f2.sites.items():
        mine = sites.get(pair)
        if mine is None:
            sites[pair] = set(locations)
        else:
            mine |= locations
    return Footprint(
        label=label if label is not None else f"{f1.label}+{f2.label}",
        library=f1.library,
        diagnostics=f1.diagnostics + f2.diagnostics,
        sites=sites,
    )


def diff(f1: Footprint, f2: Footprint, label: Optional[str] = None) -> Footprint:
    """The sites of f1 whose (symbol, use) pair does not occur in f2.

    The comparison is location-insensitive: it is a difference of unique
    uses, not of individual use sites.
    """
    if f1.library != f2.library:
        raise ModelMismatch(f"cannot diff footprints of {f1.library} and {f2.library}")
    excluded = f2.sites
    return Footprint(
        label=label if label is not None else f"{f1.label}-{f2.label}",
        library=f1.library,
        diagnostics=list(f1.diagnostics),
        sites={pair: set(locations) for pair, locations in f1.sites.items()
               if pair not in excluded},
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def footprint_to_dict(fp: Footprint) -> str:
    """The footprint as JSON text: the bytes ``json.dumps(...,
    ensure_ascii=False, separators=(",", ":"))`` writes for its dict form.
    The use rows are grouped by (symbol, use) pair, pairs in
    ``(symbol.sort_key(), use)`` order and each pair's rows by location;
    each pair's head and each file name are encoded once, and only line and
    column, integers as the reader and the extractor make them, are
    formatted per row. The sites are already grouped by pair, and
    ``Symbol.sort_key`` orders any two distinct symbols, so the text does
    not depend on the order the pairs were found in. (The name is the dict
    form's, which ``perfbench`` traces.)"""
    files: dict[str, str] = {}
    rows = []
    for (sym, use), locations in sorted(
            fp.sites.items(), key=lambda item: (item[0][0].sort_key(), item[0][1].value)):
        signature = "null" if sym.signature is None else encode_basestring(sym.signature)
        head = (f'{{"fqn":{encode_basestring(sym.fqn)},"signature":{signature},'
                f'"use":"{use.value}","file":')
        for file, line, column in sorted(locations):
            name = files.get(file)
            if name is None:
                name = files[file] = encode_basestring(file)
            rows.append(f'{head}{name},"line":{line},"col":{column}}}')
    diagnostics = [
        {
            "kind": d.kind.value,
            "file": d.location.file,
            "line": d.location.line,
            "col": d.location.column,
            "message": d.message,
        }
        for d in sorted(fp.diagnostics, key=lambda d: (d.location, d.kind.value, d.message))
    ]
    label = json.dumps({"label": fp.label, "library": fp.library},
                       ensure_ascii=False, separators=(",", ":"))[:-1]
    diagnostics_text = json.dumps(diagnostics, ensure_ascii=False, separators=(",", ":"))
    return f'{label},"uses":[{",".join(rows)}],"diagnostics":{diagnostics_text}}}'


# The signature part of the key of a row that has none: a type use reads no
# signature, so such a row is legal, and it must not share a key with a row
# whose signature is null.
_NO_SIGNATURE = object()


def footprint_from_dict(data: dict, model: UsageModel) -> Footprint:
    """The footprint in ``data``, checked against ``model``: its library
    must be a string naming the model's.

    Rows that share a (use, fqn, signature) key decode to one pair: the
    use kind, the symbol lookup and the legality check run on the key's
    first row only. A member use names a member of the kind ``MEMBER_USES``
    gives it. Every row adds its location, whose ``file`` must be a
    string and ``line`` and ``col`` integers (``_location``), to its pair's
    sites.
    """
    library = _name(data["library"])
    if library != model.library_name:
        raise ModelMismatch(f"footprint is for {library!r}, model is {model.library_name!r}")
    label = data["label"]
    if not isinstance(label, str):
        raise TypeError(f"footprint label must be a string, found {type(label).__name__}")
    sites: dict[UsePair, set[Location]] = {}
    # The sites of each key's pair: keys that differ only in a signature
    # that a type use does not read share their pair's set.
    groups: dict[tuple, set[Location]] = {}
    for u in data["uses"]:
        key = (u["use"], u["fqn"], u.get("signature", _NO_SIGNATURE))
        locations = groups.get(key)
        if locations is None:
            use = UseKind(u["use"])
            kind = MEMBER_USES.get(use)
            if kind is None:
                sym = model.type_symbol(u["fqn"])
            else:
                sym = model.symbols.get(new_value(Symbol, (u["fqn"], kind, u["signature"])))
            if sym is None or use not in model.entries[sym]:
                raise ModelMismatch(
                    f"{use.value} of {u['fqn']} is not a legal use in model "
                    f"{model.library_name!r}"
                )
            locations = sites.get((sym, use))
            if locations is None:
                locations = sites[sym, use] = set()
            groups[key] = locations
        file, line, column = u["file"], u["line"], u["col"]
        if type(file) is not str or type(line) is not int or type(column) is not int:
            _location(u)  # raises, naming the field; inlined, the check costs no call
        locations.add(new_value(Location, (file, line, column)))
    diagnostics = [
        Diagnostic(_location(d), DiagnosticKind(d["kind"]), _message(d["message"]))
        for d in data.get("diagnostics", [])
    ]
    return Footprint(label, library, diagnostics=diagnostics, sites=sites)


def _location(row: dict) -> Location:
    """The location of a use or diagnostic row: its ``file`` must be a
    string, and its ``line`` and ``col`` integers, not booleans."""
    file, line, column = row["file"], row["line"], row["col"]
    if type(file) is not str:
        raise TypeError(f"file must be a string, found {file!r}")
    if type(line) is not int:
        raise TypeError(f"line must be an integer, found {line!r}")
    if type(column) is not int:
        raise TypeError(f"col must be an integer, found {column!r}")
    return new_value(Location, (file, line, column))


def _message(value: object) -> str:
    if type(value) is not str:
        raise TypeError(f"message must be a string, found {value!r}")
    return value

