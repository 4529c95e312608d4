"""Usage models: exported API symbols mapped to their sets of legal uses."""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from json.encoder import encode_basestring
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, TypeVar, Union

from . import symtab  # run when first used: reading a model does not need it
from .errors import CyclicHierarchy, ModelMismatch, warn

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
_KINDS = {kind.value: kind for kind in SymbolKind}
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
        # any two distinct symbols have distinct keys. ``_value_`` is the
        # stored string that the ``value`` property reads in Python.
        return (self.fqn, self.signature or "", self.kind._value_, self.signature is None)

    def __str__(self) -> str:
        if self.kind in (SymbolKind.METHOD, SymbolKind.CONSTRUCTOR):
            return f"{self.fqn.rsplit('.', 1)[0]}.{self.signature}"
        return self.fqn


UsePair = tuple[Symbol, UseKind]

# Builds a value from a tuple of its fields, ``new_value(Symbol, (fqn,
# kind, signature))``, in C: the ``__new__`` that ``NamedTuple`` generates
# is Python code, and the model reader, the frontend, the extractor and the
# footprint reader build these values by the thousand. Every field is
# given, those with a default too.
new_value = tuple.__new__


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
        were given in. ``build_sum`` sets it when it sorts the entries."""
        return tuple(sorted(self.entries.items(), key=lambda kv: kv[0].sort_key()))

    @cached_property
    def legal_pairs(self) -> dict[UsePair, int]:
        """Every legal (symbol, use) pair, in symbol order and then by use,
        mapped to its position in that order, which is its row's position in
        ``encoded_rows``."""
        pairs: dict[UsePair, int] = {}
        orders: dict[frozenset[UseKind], list[UseKind]] = {}  # a handful of use sets
        for sym, uses in self.sorted_entries:
            order = orders.get(uses)
            if order is None:
                order = orders[uses] = sorted(uses, key=lambda u: u.value)
            for use in order:
                pairs[sym, use] = len(pairs)
        return pairs

    @cached_property
    def encoded_rows(self) -> list[str]:
        """The uncovered-use row of each legal pair, in ``legal_pairs``
        order, as the compact JSON object ``{"fqn":…,"signature":…,"use":…}``.
        Strings are encoded as ``json.dumps(..., ensure_ascii=False)``
        encodes them."""
        rows = []
        last = head = None
        for sym, use in self.legal_pairs:
            if sym is not last:
                last = sym
                signature = "null" if sym.signature is None else encode_basestring(sym.signature)
                head = f'{{"fqn":{encode_basestring(sym.fqn)},"signature":{signature},"use":"'
            rows.append(f'{head}{use.value}"}}')
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
    ordered = tuple(sorted(entries.items(), key=lambda kv: kv[0].sort_key()))
    model = UsageModel(library_name, dict(ordered), table)
    model.sorted_entries = ordered  # the writer reads it: each key is made once
    return model


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


# The legal use sets of members, shared by every member that has one.
_CONSTRUCTOR_USES = frozenset({UseKind.CONSTRUCTOR_INVOCATION})
_FINAL_FIELD_USES = frozenset({UseKind.FIELD_READ})
_FIELD_USES = frozenset({UseKind.FIELD_READ, UseKind.FIELD_WRITE})
_STATIC_USES = frozenset({UseKind.STATIC_INVOCATION})
_OVERRIDABLE_USES = frozenset({UseKind.METHOD_INVOCATION, UseKind.OVERRIDING})
_METHOD_USES = frozenset({UseKind.METHOD_INVOCATION})


def _member_uses(member: MemberInfo, extensible: bool) -> frozenset[UseKind]:
    """The legal client uses of an exported member of a type that is
    ``extensible`` or not."""
    if member.kind is SymbolKind.CONSTRUCTOR:
        return _CONSTRUCTOR_USES
    if member.kind is SymbolKind.FIELD:
        return _FINAL_FIELD_USES if "final" in member.modifiers else _FIELD_USES
    if "static" in member.modifiers:
        return _STATIC_USES
    if extensible and "final" not in member.modifiers:
        return _OVERRIDABLE_USES
    return _METHOD_USES


_KIND_TEXT = {kind: encode_basestring(kind.value) for kind in SymbolKind}


def model_to_dict(model: UsageModel) -> str:
    """The model's JSON text: the normative symbol list plus a resolution
    section (type hierarchy, member types) so client analysis can run from
    the serialized model alone. Each symbol's modifiers are those of its
    declaration in the resolution section.

    The text is the bytes ``json.dumps(..., ensure_ascii=False,
    separators=(",", ":"))`` writes for the dict form ``{"library",
    "symbols", "resolution": {"types", "members"}}``: types by FQN, each
    type's members by name and signature, symbols in ``sorted_entries``
    order, and each set of names or uses sorted. Each distinct modifier
    set, name tuple, use set and declaring type is encoded once. (The name
    is the dict form's, which ``perfbench`` traces.)"""
    lists: dict[Union[frozenset, tuple], str] = {}  # encoded name lists and use lists
    declaring: dict[str, str] = {}

    def encoded(names: Union[frozenset[str], tuple[str, ...]]) -> str:
        text = lists.get(names)
        if text is None:
            items = sorted(names) if isinstance(names, frozenset) else names
            text = lists[names] = f"[{','.join(map(encode_basestring, items))}]"
        return text

    # The head of each declaration's symbol row, up to its uses, by (fqn,
    # kind, signature): a plain tuple equals the Symbol of that content.
    heads: dict[tuple, str] = {}
    types = []
    members = []
    for info in sorted(model.table.types.values(), key=lambda t: t.fqn):
        kind, name = _KIND_TEXT[info.kind], encode_basestring(info.fqn)
        modifiers = encoded(info.modifiers)
        heads[info.fqn, info.kind, None] = (
            f'{{"fqn":{name},"kind":{kind},"signature":null,"modifiers":{modifiers},"uses":')
        enclosing = "null" if info.enclosing is None else encode_basestring(info.enclosing)
        types.append(
            f'{{"fqn":{name},"kind":{kind},"modifiers":{modifiers},'
            f'"type_params":{encoded(info.type_params)},'
            f'"supertypes":{encoded(info.supertypes)},'
            f'"external":{encoded(info.external_supertypes)},"enclosing":{enclosing}}}')
        for m in sorted(info.members, key=lambda m: (m.name, m.signature or "")):
            owner = declaring.get(m.declaring)
            if owner is None:
                owner = declaring[m.declaring] = encode_basestring(m.declaring)
            kind, modifiers = _KIND_TEXT[m.kind], encoded(m.modifiers)
            signature = "null" if m.signature is None else encode_basestring(m.signature)
            of_type = "null" if m.type is None else encode_basestring(m.type)
            returns, field_type = (
                ("null", of_type) if m.kind is SymbolKind.FIELD else (of_type, "null"))
            heads[m.fqn, m.kind, m.signature] = (
                f'{{"fqn":{encode_basestring(m.fqn)},"kind":{kind},"signature":{signature},'
                f'"modifiers":{modifiers},"uses":')
            members.append(
                f'{{"declaring":{owner},"kind":{kind},"name":{encode_basestring(m.name)},'
                f'"modifiers":{modifiers},"signature":{signature},'
                f'"params":{encoded(m.param_types)},"returns":{returns},'
                f'"field_type":{field_type},"synthesized":{"true" if m.synthesized else "false"}}}')
    use_lists: dict[frozenset[UseKind], str] = {}
    symbols = []
    for sym, uses in model.sorted_entries:
        text = use_lists.get(uses)
        if text is None:
            text = use_lists[uses] = encoded(tuple(sorted(u.value for u in uses)))
        symbols.append(f"{heads[sym]}{text}}}")
    return (
        f'{{"library":{encode_basestring(model.library_name)},"symbols":[{",".join(symbols)}],'
        f'"resolution":{{"types":[{",".join(types)}],"members":[{",".join(members)}]}}}}')


def model_from_dict(data: dict) -> UsageModel:
    """Load a serialized model. Its names, the library's included, must be
    strings and its symbols distinct, no FQN may name two types, and a
    symbol has a signature exactly when it is a method or a constructor, so
    no two symbols share a ``Symbol.sort_key``. The symbols' modifiers are not read, and the
    resolution table is built from the resolution section only when
    ``table`` is first used.

    A name is checked in line, and its checker (``_name``, ...) is called
    only when the check fails, to raise its message. Each distinct list of
    use names is checked and converted once (``_read_names``)."""
    resolution = data.get("resolution")
    if resolution is None:
        raise ModelMismatch("model file lacks the resolution section")
    entries: dict[Symbol, frozenset[UseKind]] = {}
    use_sets: dict[tuple[str, ...], frozenset[UseKind]] = {}  # a handful, shared
    type_fqns: set[str] = set()
    for s in data["symbols"]:
        fqn = s["fqn"]
        if type(fqn) is not str:
            fqn = _name(fqn)
        kind = _kind(s["kind"])
        signature = s["signature"]
        if signature is not None and type(signature) is not str:
            signature = _name_or_null(signature)
        sym = new_value(Symbol, (fqn, kind, signature))
        if kind in _SIGNED_KINDS:
            if signature is None:
                raise ValueError(f"{kind.value} {fqn} has no signature")
        elif signature is not None:
            raise ValueError(f"{kind.value} {fqn} has a signature, found {signature!r}")
        if sym in entries:
            raise ValueError(f"{kind.value} {sym} is listed twice")
        if kind in _TYPE_KINDS:
            if fqn in type_fqns:
                raise ValueError(f"type {fqn} is listed twice")
            type_fqns.add(fqn)
        entries[sym] = _read_names(s["uses"], use_sets, _use_set)
    return UsageModel(_name(data["library"]), entries, lambda: _table_from_dict(resolution))


def _use_set(names: tuple[str, ...]) -> frozenset[UseKind]:
    return frozenset(map(UseKind, names))


def _table_from_dict(resolution: dict) -> SymbolTable:
    """The resolution table of a serialized model's resolution section. A
    supertype cycle among its types is malformed content, as a repeated
    type is. Names are checked as ``model_from_dict`` checks them, and
    each distinct list of names is checked once per kind of value it
    becomes: a tuple (parameters, type parameters, supertypes) or a set
    (modifiers, external supertypes)."""
    table = symtab.SymbolTable()
    tuples: dict[tuple[str, ...], tuple[str, ...]] = {}
    sets: dict[tuple[str, ...], frozenset[str]] = {}
    members_by_type: dict[str, dict[tuple, MemberInfo]] = {}  # by kind, name, signature
    for m in resolution["members"]:
        kind = _declared_kind(m["kind"], of_type=False)
        returns = m["returns"]
        if returns is not None and type(returns) is not str:
            returns = _name_or_null(returns)
        of_field = m["field_type"]
        if of_field is not None and type(of_field) is not str:
            of_field = _name_or_null(of_field)
        declaring = m["declaring"]
        if type(declaring) is not str:
            declaring = _name(declaring)
        name = m["name"]
        if type(name) is not str:
            name = _name(name)
        modifiers = _read_names(m["modifiers"], sets, frozenset)
        signature = m["signature"]
        if type(signature) is not str:
            signature = (_name_or_null if kind is SymbolKind.FIELD else _name)(signature)
        params = _read_names(m["params"], tuples, tuple)
        synthesized = m.get("synthesized", False)
        if type(synthesized) is not bool:
            synthesized = _flag(synthesized)
        member = new_value(symtab.MemberInfo, (
            declaring, kind, name, modifiers, signature, params,
            of_field if kind is SymbolKind.FIELD else returns, None, synthesized))
        members = members_by_type.setdefault(declaring, {})
        if members.setdefault((kind, name, signature), member) is not member:
            sym = Symbol(member.fqn, kind, signature)
            raise ValueError(f"{kind.value} {sym} is listed twice")
    for t in resolution["types"]:
        fqn = t["fqn"]
        if type(fqn) is not str:
            fqn = _name(fqn)
        if fqn in table.types:
            raise ValueError(f"type {fqn} is listed twice")
        enclosing = t.get("enclosing")
        table.types[fqn] = new_value(symtab.TypeInfo, (
            fqn,
            _declared_kind(t["kind"], of_type=True),
            _read_names(t["modifiers"], sets, frozenset),
            _read_names(t["type_params"], tuples, tuple),
            _read_names(t["supertypes"], tuples, tuple),
            _read_names(t["external"], sets, frozenset),
            tuple(members_by_type.get(fqn, {}).values()),
            enclosing if enclosing is None or type(enclosing) is str
            else _name_or_null(enclosing),
        ))
    try:
        symtab.check_acyclic(table.types, table.types)
    except CyclicHierarchy as exc:  # the model's fault, not a client's
        raise ValueError(str(exc)) from exc
    return table


T = TypeVar("T")


def _read_names(
    value: object, memo: dict[tuple[str, ...], T], make: Callable[[tuple[str, ...]], T]
) -> T:
    """``make(_names(value))``, made once per distinct list of names:
    ``memo`` maps each list that passed the check, as a tuple, to what
    ``make`` made of it. A list that holds an unhashable element is not
    looked up; ``_names`` rejects it, as it rejects any list not in
    ``memo``, unless it is a list of names."""
    if type(value) is list:
        try:
            made = memo.get(tuple(value))
        except TypeError:  # an unhashable element
            made = None
        if made is not None:
            return made
    names = _names(value)
    made = memo[names] = make(names)
    return made


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


def _kind(value: object) -> SymbolKind:
    """The kind named ``value``, found by a dict lookup, which costs a
    fraction of a ``SymbolKind(value)`` call. A value that names no kind,
    hashable or not, fails in that call, with its message."""
    try:
        return _KINDS[value]
    except (KeyError, TypeError):
        return SymbolKind(value)


def _declared_kind(value: object, of_type: bool) -> SymbolKind:
    """The kind named ``value`` of a type or of a member in a resolution
    section; a member kind for a type, or the reverse, is malformed."""
    kind = _kind(value)
    if (kind in _TYPE_KINDS) is not of_type:
        raise ValueError(f"{value!r} is not the kind of a {'type' if of_type else 'member'}")
    return kind
