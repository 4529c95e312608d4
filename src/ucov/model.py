"""Usage models: exported API symbols mapped to their sets of legal uses."""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from json.encoder import encode_basestring
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Union

from . import symtab  # run when first used: reading a model does not need it
from .errors import ModelMismatch, warn

if TYPE_CHECKING:
    from .nodes import SourceUnit
    from .symtab import MemberInfo, SymbolTable, TypeInfo


class UseKind(Enum):
    # Members are singletons that compare by identity, so the identity hash
    # agrees with equality. It runs in C, where ``Enum.__hash__`` hashes the
    # member's name in Python on every set or dict operation on a symbol or
    # a (symbol, use) pair.
    __hash__ = object.__hash__

    TYPE_REFERENCE = "TypeReference"
    INSTANTIATION = "Instantiation"
    INHERITANCE = "Inheritance"
    IMPLEMENTATION = "Implementation"
    INTERFACE_EXTENSION = "InterfaceExtension"
    CONSTRUCTOR_INVOCATION = "ConstructorInvocation"
    METHOD_INVOCATION = "MethodInvocation"
    STATIC_INVOCATION = "StaticInvocation"
    OVERRIDING = "Overriding"
    FIELD_READ = "FieldRead"
    FIELD_WRITE = "FieldWrite"


class SymbolKind(Enum):
    """The kind of a declaration: the parser tags each type and member
    declaration with one, and the symbol table and the model keep it."""

    __hash__ = object.__hash__  # as for UseKind

    CLASS = "Class"
    INTERFACE = "Interface"
    METHOD = "Method"
    CONSTRUCTOR = "Constructor"
    FIELD = "Field"


_TYPE_KINDS = frozenset({SymbolKind.CLASS, SymbolKind.INTERFACE})
_SIGNED_KINDS = frozenset({SymbolKind.METHOD, SymbolKind.CONSTRUCTOR})

# The kind of member that each use of a member is a use of.
MEMBER_USES = {
    UseKind.CONSTRUCTOR_INVOCATION: SymbolKind.CONSTRUCTOR,
    UseKind.METHOD_INVOCATION: SymbolKind.METHOD,
    UseKind.STATIC_INVOCATION: SymbolKind.METHOD,
    UseKind.OVERRIDING: SymbolKind.METHOD,
    UseKind.FIELD_READ: SymbolKind.FIELD,
    UseKind.FIELD_WRITE: SymbolKind.FIELD,
}

# Uses of a type: every use kind that is not a use of a member.
TYPE_USES = frozenset(UseKind).difference(MEMBER_USES)


class Symbol(NamedTuple):
    """A uniquely identified library declaration, and nothing more.

    A symbol is identified by FQN, kind and erased signature: the kind
    tells a field from a nested type of the same name, and a constructor
    from a method named like its class.
    """

    fqn: str
    kind: SymbolKind
    signature: Optional[str] = None  # erased; methods and constructors only

    def sort_key(self) -> tuple[str, str, str, bool]:
        # The last field tells a null signature from an empty one, so that
        # any two distinct symbols have distinct keys.
        return (self.fqn, self.signature or "", self.kind.value, self.signature is None)

    def __str__(self) -> str:
        if self.kind in (SymbolKind.METHOD, SymbolKind.CONSTRUCTOR):
            return f"{self.fqn.rsplit('.', 1)[0]}.{self.signature}"
        return self.fqn


UsePair = tuple[Symbol, UseKind]



class UsageModel:
    """Map from exported symbols to their sets of legal use kinds.

    A type is found by its FQN (``type_symbol``); a member's symbol is its
    FQN, kind and erased signature (``symbols``). ``entries`` must not
    change after construction: the data that every coverage report of the
    model shares is computed once, on first use, and is read-only for its
    callers. ``table`` is the resolution table, or a function that builds
    it when ``table`` is first read; only footprint extraction reads it.
    """

    def __init__(
        self,
        library_name: str,
        entries: dict[Symbol, frozenset[UseKind]],
        table: Union[SymbolTable, Callable[[], SymbolTable]],
    ) -> None:
        self.library_name = library_name
        self.entries = entries
        self._table = table
        self._types = {sym.fqn: sym for sym in entries if sym.kind in _TYPE_KINDS}

    @property
    def table(self) -> SymbolTable:
        if callable(self._table):
            self._table = self._table()
        return self._table

    @property
    def legal_use_count(self) -> int:
        return sum(len(uses) for uses in self.entries.values())

    def type_symbol(self, fqn: str) -> Optional[Symbol]:
        return self._types.get(fqn)

    # -- model-wide data, computed once per model --------------------------

    @cached_property
    def symbols(self) -> dict[Symbol, Symbol]:
        """Each exported symbol mapped to itself. The footprint reader and
        the extractor look a member's symbol up here, so their pairs hold
        the model's own symbol objects and compare with the model's pairs by
        identity, not by their strings."""
        return {sym: sym for sym in self.entries}

    @cached_property
    def sorted_entries(self) -> tuple[tuple[Symbol, frozenset[UseKind]], ...]:
        """``entries`` in ``Symbol.sort_key`` order, whatever order they
        were given in."""
        return tuple(sorted(self.entries.items(), key=lambda kv: kv[0].sort_key()))

    @cached_property
    def legal_pairs(self) -> dict[UsePair, int]:
        """Every legal (symbol, use) pair, mapped to the position of its row
        in ``encoded_rows``."""
        return {pair: i for i, pair in enumerate(self.encoded_rows)}

    @cached_property
    def encoded_rows(self) -> dict[UsePair, str]:
        """The uncovered-use row of each legal pair, in symbol order and then
        by use, as the compact JSON object ``{"fqn":…,"signature":…,"use":…}``.
        Strings are encoded as ``json.dumps(..., ensure_ascii=False)``
        encodes them."""
        rows: dict[UsePair, str] = {}
        orders: dict[frozenset[UseKind], list[UseKind]] = {}  # a handful of use sets
        for sym, uses in self.sorted_entries:
            if uses not in orders:
                orders[uses] = sorted(uses, key=lambda u: u.value)
            signature = "null" if sym.signature is None else encode_basestring(sym.signature)
            head = f'{{"fqn":{encode_basestring(sym.fqn)},"signature":{signature},"use":"'
            for use in orders[uses]:
                rows[sym, use] = f'{head}{use.value}"}}'
        return rows

    @cached_property
    def encoded_levels(self) -> dict[Symbol, str]:
        """The encoded ``"key":`` prefix of each coverage-level key, in
        symbol order, under the symbol whose level the key shows. The key is
        ``fqn#signature`` for methods and constructors, ``fqn`` otherwise, so
        a field and a nested type of the same name share a key, which shows
        the later symbol in sort order; a warning names every such collision."""
        keys: dict[str, Symbol] = {}
        shared = []
        for sym, _ in self.sorted_entries:
            key = f"{sym.fqn}#{sym.signature}" if sym.signature else sym.fqn
            if key in keys:
                shared.append(f"{keys[key].kind.value} and {sym.kind.value} {key}")
            keys[key] = sym
        if shared:
            warn(
                "coverage levels share a key and show only the second symbol's "
                f"level: {'; '.join(shared)}"
            )
        return {sym: f"{encode_basestring(key)}:" for key, sym in keys.items()}

    @cached_property
    def encoded_unused_levels(self) -> dict[Symbol, str]:
        """Each ``encoded_levels`` prefix with the level of an uncovered symbol."""
        return {sym: f'{prefix}"None"' for sym, prefix in self.encoded_levels.items()}


# ---------------------------------------------------------------------------
# Model construction and serialization
# ---------------------------------------------------------------------------


def build_sum(
    library_units: list[SourceUnit], library_name: str = "library"
) -> UsageModel:
    """Build the usage model of a library: every exported symbol mapped to
    its legal uses.

    A top-level type is exported when public. A nested type or a member is
    exported when its enclosing type is and it is public, or protected in
    an effectively extensible type.
    """
    table = symtab.build_symbol_table(library_units)
    entries: dict[Symbol, frozenset[UseKind]] = {}
    extensible: dict[str, bool] = {}  # by FQN, of each exported type
    for info in table.types.values():  # in declaration preorder: outer types first
        if info.enclosing is None:
            exported = info.visibility() == "public"
        else:
            outer = extensible.get(info.enclosing)
            exported = outer is not None and _accessible(info.visibility(), outer)
        if not exported:
            continue
        ext = extensible[info.fqn] = _is_extensible(info)
        entries[Symbol(info.fqn, info.kind)] = _type_uses(info, ext)
        for member in info.members:
            if _accessible(member.visibility(), ext):
                sym = Symbol(member.fqn, member.kind, member.signature)
                entries[sym] = _member_uses(member, ext)
    ordered = dict(sorted(entries.items(), key=lambda kv: kv[0].sort_key()))
    return UsageModel(library_name, ordered, table)


def _accessible(vis: str, outer_extensible: bool) -> bool:
    """Whether a declaration of visibility ``vis`` in an exported type is
    exported."""
    return vis == "public" or (vis == "protected" and outer_extensible)


def _is_extensible(info: TypeInfo) -> bool:
    """Neither final nor sealed; a class also needs a public or protected
    constructor."""
    if "final" in info.modifiers or "sealed" in info.modifiers:
        return False
    if info.kind is SymbolKind.CLASS:
        return any(
            m.kind is SymbolKind.CONSTRUCTOR and m.visibility() in ("public", "protected")
            for m in info.members
        )
    return True


def _type_uses(info: TypeInfo, extensible: bool) -> frozenset[UseKind]:
    """The legal client uses of an exported type."""
    uses = {UseKind.TYPE_REFERENCE}
    if info.kind is SymbolKind.INTERFACE:
        if extensible:
            uses.update((UseKind.IMPLEMENTATION, UseKind.INTERFACE_EXTENSION))
    else:
        if "abstract" not in info.modifiers and any(
            m.kind is SymbolKind.CONSTRUCTOR and m.visibility() == "public"
            for m in info.members
        ):
            uses.add(UseKind.INSTANTIATION)
        if extensible:
            uses.add(UseKind.INHERITANCE)
    return frozenset(uses)


def _member_uses(member: MemberInfo, extensible: bool) -> frozenset[UseKind]:
    """The legal client uses of an exported member of a type that is
    ``extensible`` or not."""
    if member.kind is SymbolKind.CONSTRUCTOR:
        return frozenset({UseKind.CONSTRUCTOR_INVOCATION})
    if member.kind is SymbolKind.FIELD:
        if "final" in member.modifiers:
            return frozenset({UseKind.FIELD_READ})
        return frozenset({UseKind.FIELD_READ, UseKind.FIELD_WRITE})
    if "static" in member.modifiers:
        return frozenset({UseKind.STATIC_INVOCATION})
    if extensible and "final" not in member.modifiers:
        return frozenset({UseKind.METHOD_INVOCATION, UseKind.OVERRIDING})
    return frozenset({UseKind.METHOD_INVOCATION})


def model_to_dict(model: UsageModel) -> dict:
    """Serializable form: the normative symbol list plus a resolution
    section (type hierarchy, member types) so client analysis can run from
    the serialized model alone. Each symbol's modifiers are those of its
    declaration in the resolution section."""
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
        for sym, uses in model.sorted_entries
    ]
    return {
        "library": model.library_name,
        "symbols": symbols,
        "resolution": {"types": types, "members": members},
    }


def model_from_dict(data: dict) -> UsageModel:
    """Load a serialized model. Its names, the library's included, must be
    strings and its symbols distinct, and a symbol has a signature exactly
    when it is a method or a constructor, so no two symbols share a
    ``Symbol.sort_key``. The symbols' modifiers are not read, and the
    resolution table is built from the resolution section only when
    ``table`` is first used."""
    resolution = data.get("resolution")
    if resolution is None:
        raise ModelMismatch("model file lacks the resolution section")
    entries: dict[Symbol, frozenset[UseKind]] = {}
    use_sets: dict[tuple[str, ...], frozenset[UseKind]] = {}  # a handful, shared
    for s in data["symbols"]:
        sym = Symbol(_name(s["fqn"]), SymbolKind(s["kind"]), _name_or_null(s["signature"]))
        if sym.kind in _SIGNED_KINDS:
            if sym.signature is None:
                raise ValueError(f"{sym.kind.value} {sym.fqn} has no signature")
        elif sym.signature is not None:
            raise ValueError(
                f"{sym.kind.value} {sym.fqn} has a signature, found {sym.signature!r}"
            )
        if sym in entries:
            raise ValueError(f"{sym.kind.value} {sym} is listed twice")
        names = _names(s["uses"])
        uses = use_sets.get(names)
        if uses is None:
            uses = use_sets[names] = frozenset(UseKind(u) for u in names)
        entries[sym] = uses
    return UsageModel(_name(data["library"]), entries, lambda: _table_from_dict(resolution))


def _table_from_dict(resolution: dict) -> SymbolTable:
    """The resolution table of a serialized model's resolution section."""
    table = symtab.SymbolTable()
    members_by_type: dict[str, dict[tuple, MemberInfo]] = {}  # by kind, name, signature
    for m in resolution["members"]:
        kind = _declared_kind(m["kind"], of_type=False)
        returns, of_field = _name_or_null(m["returns"]), _name_or_null(m["field_type"])
        member = symtab.MemberInfo(
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
        table.types[fqn] = symtab.TypeInfo(
            fqn=fqn,
            kind=_declared_kind(t["kind"], of_type=True),
            modifiers=frozenset(_names(t["modifiers"])),
            type_params=_names(t["type_params"]),
            supertypes=_names(t["supertypes"]),
            external_supertypes=frozenset(_names(t["external"])),
            members=tuple(members_by_type.get(fqn, {}).values()),
            enclosing=_name_or_null(t.get("enclosing")),
        )
    return table


def _name(value: object) -> str:
    """``value`` if it is a name as ``model_to_dict`` writes one: a string."""
    if isinstance(value, str):
        return value
    raise TypeError(f"a name must be a string, found {value!r}")


def _names(value: object) -> tuple[str, ...]:
    """``value`` as a tuple if it is a list of names as ``model_to_dict``
    writes one: a list of strings."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list of names, found {value!r}")
    return tuple(map(_name, value))


def _name_or_null(value: object) -> Optional[str]:
    """``value`` if it is a string or null: a name that may be absent."""
    if value is None or isinstance(value, str):
        return value
    raise TypeError(f"a name must be a string or null, found {value!r}")


def _flag(value: object) -> bool:
    """``value`` if it is a member's ``synthesized`` flag as
    ``model_to_dict`` writes it: true or false."""
    if isinstance(value, bool):
        return value
    raise TypeError(f"synthesized must be true or false, found {value!r}")


def _declared_kind(value: str, of_type: bool) -> SymbolKind:
    """The kind named ``value`` of a type or of a member in a resolution
    section; a member kind for a type, or the reverse, is malformed."""
    kind = SymbolKind(value)
    if (kind in _TYPE_KINDS) is not of_type:
        raise ValueError(f"{value!r} is not the kind of a {'type' if of_type else 'member'}")
    return kind
