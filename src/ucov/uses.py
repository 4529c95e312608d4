"""Footprint values: located uses, diagnostics, their set algebra and JSON
form, without the frontend or the extractor (``ucov.nodes`` and
``ucov.footprint`` re-export them)."""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

from .errors import ModelMismatch
from .model import TYPE_USES, Symbol, UsageModel, UseKind, UsePair


# Builds a value below from a tuple of its fields, ``new_value(Location,
# (file, line, column))``, in C: the ``__new__`` that ``NamedTuple``
# generates is Python code, and the frontend, the extractor and the
# footprint reader build these values by the thousand.
new_value = tuple.__new__


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

    ``unique_uses``, the set of (symbol, use) pairs of ``triples``, is
    computed once at construction, so ``triples`` must not change afterwards.
    """

    def __init__(self, label: str, library: str, triples: Optional[set[UseTriple]] = None,
                 diagnostics: Optional[list[Diagnostic]] = None) -> None:
        self.label = label
        self.library = library
        self.triples = set() if triples is None else triples
        self.diagnostics = [] if diagnostics is None else diagnostics
        self.unique_uses: set[UsePair] = {t.pair for t in self.triples}

    @property
    def total_uses(self) -> int:
        return len(self.triples)


def merge(f1: Footprint, f2: Footprint, label: Optional[str] = None) -> Footprint:
    """Set union of two footprints governed by the same model."""
    if f1.library != f2.library:
        raise ModelMismatch(f"cannot merge footprints of {f1.library} and {f2.library}")
    return Footprint(
        label=label if label is not None else f"{f1.label}+{f2.label}",
        library=f1.library,
        triples=f1.triples | f2.triples,
        diagnostics=f1.diagnostics + f2.diagnostics,
    )


def diff(f1: Footprint, f2: Footprint, label: Optional[str] = None) -> Footprint:
    """Triples of f1 whose (symbol, use) pair does not occur in f2.

    The comparison is location-insensitive: it is a difference of unique
    uses, not of individual use sites.
    """
    if f1.library != f2.library:
        raise ModelMismatch(f"cannot diff footprints of {f1.library} and {f2.library}")
    excluded = f2.unique_uses
    return Footprint(
        label=label if label is not None else f"{f1.label}-{f2.label}",
        library=f1.library,
        triples={t for t in f1.triples if t.pair not in excluded},
        diagnostics=list(f1.diagnostics),
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def footprint_to_dict(fp: Footprint) -> dict:
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


# The signature part of the key of a row that has none: a type use reads no
# signature, so such a row is legal, and it must not share a key with a row
# whose signature is null.
_NO_SIGNATURE = object()


def footprint_from_dict(data: dict, model: UsageModel) -> Footprint:
    """The footprint in ``data``, checked against ``model``.

    Rows that share a (use, fqn, signature) key decode to one pair: the
    use kind, the symbol lookup and the legality check run on the key's
    first row only. Every row adds its own located triple.
    """
    if data["library"] != model.library_name:
        raise ModelMismatch(
            f"footprint is for {data['library']!r}, model is {model.library_name!r}"
        )
    label = data["label"]
    if not isinstance(label, str):
        raise TypeError(f"footprint label must be a string, found {type(label).__name__}")
    pairs: dict[tuple, UsePair] = {}
    triples: set[UseTriple] = set()
    for u in data["uses"]:
        key = (u["use"], u["fqn"], u.get("signature", _NO_SIGNATURE))
        pair = pairs.get(key)
        if pair is None:
            use = UseKind(u["use"])
            if use in TYPE_USES:
                sym = model.type_symbol(u["fqn"])
            else:
                sym = model.symbol_for(u["fqn"], u["signature"])
            if sym is None or use not in model.entries[sym]:
                raise ModelMismatch(
                    f"{use.value} of {u['fqn']} is not a legal use in model "
                    f"{model.library_name!r}"
                )
            pair = pairs[key] = (sym, use)
        sym, use = pair
        location = new_value(Location, (u["file"], u["line"], u["col"]))
        triples.add(new_value(UseTriple, (sym, use, location)))
    diagnostics = [
        Diagnostic(
            Location(d["file"], d["line"], d["col"]),
            DiagnosticKind(d["kind"]),
            d["message"],
        )
        for d in data.get("diagnostics", [])
    ]
    return Footprint(label, data["library"], triples, diagnostics)

