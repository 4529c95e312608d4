"""Symbol tables, type-name resolution, signature erasure, and method lookup.

A SymbolTable maps fully qualified names to resolved type information.
Client tables are built as overlays over a library table (the ``base``),
so client code can reference library types without them being re-declared.

Erased signatures identify members: type arguments are dropped and type
parameters are replaced by the root reference type, so ``add(E)`` and
``add(T)`` both erase to ``add(java.lang.Object)``.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import nodes as n
from .errors import CyclicHierarchy, DuplicateSymbol
from .model import SymbolKind

ROOT_TYPE = "java.lang.Object"

PRIMITIVES = frozenset(
    {"int", "long", "short", "byte", "double", "float", "boolean", "char", "void"}
)


def _visibility(declared: MemberInfo | TypeInfo) -> str:
    """The visibility rule shared by type and member declarations."""
    for v in ("public", "protected", "private"):
        if v in declared.modifiers:
            return v
    return "packagePrivate"


class MemberInfo(NamedTuple):
    declaring: str  # FQN of the declaring type
    kind: SymbolKind  # METHOD, CONSTRUCTOR or FIELD
    name: str
    modifiers: frozenset[str]
    signature: Optional[str]  # erased; None for fields
    param_types: tuple[str, ...]  # erased type names
    return_type: Optional[str]  # erased; "void" for void methods; None otherwise
    field_type: Optional[str]
    location: Optional[n.Location] = None
    synthesized: bool = False

    visibility = _visibility

    @property
    def fqn(self) -> str:
        return f"{self.declaring}.{self.name}"


class TypeInfo(NamedTuple):
    """A declared type. ``build_symbol_table`` registers each type with no
    supertypes and no members, then replaces it with the complete info
    once every type of the table is known."""

    fqn: str
    kind: SymbolKind  # CLASS or INTERFACE
    modifiers: frozenset[str]
    type_params: tuple[str, ...]
    supertypes: tuple[str, ...]  # direct, resolved FQNs (raw names when external)
    external_supertypes: frozenset[str]
    members: tuple[MemberInfo, ...]
    enclosing: Optional[str] = None  # FQN of the enclosing type, if nested
    location: Optional[n.Location] = None

    visibility = _visibility


class ResolutionStatus(Enum):
    RESOLVED = "Resolved"
    AMBIGUOUS = "Ambiguous"
    UNRESOLVED = "Unresolved"


class MethodResolution(NamedTuple):
    status: ResolutionStatus
    member: Optional[MemberInfo] = None


class SymbolTable:
    """Immutable-after-build table of types, optionally layered over a base.

    Supertype closures, method candidates and overridden methods are cached
    per table instance on first query, so a table must not be changed once
    it is queried. An overlay keeps its own caches: a client type can
    complete a library type's external supertype, so the answers may
    differ from the base's.
    """

    def __init__(self, base: Optional["SymbolTable"] = None):
        self.types: dict[str, TypeInfo] = {}
        self.base = base
        self._closures: dict[str, tuple[str, ...]] = {}
        self._candidates: dict[tuple[str, str, int], tuple[MemberInfo, ...]] = {}
        self._overridden: dict[tuple[str, Optional[str], bool], tuple[MemberInfo, ...]] = {}

    # -- lookup -----------------------------------------------------------

    def lookup_type(self, fqn: str) -> Optional[TypeInfo]:
        info = self.types.get(fqn)
        if info is None and self.base is not None:
            return self.base.lookup_type(fqn)
        return info

    def own_types(self) -> Iterator[TypeInfo]:
        return iter(self.types.values())

    def supertype_closure(self, fqn: str, include_self: bool = True) -> tuple[str, ...]:
        """BFS over known supertypes, duplicate-free, nearest first."""
        closure = self._closures.get(fqn)
        if closure is None:
            queue = [fqn]
            seen = {fqn}
            for current in queue:  # the list grows while it is walked
                info = self.lookup_type(current)
                if info is not None:
                    for sup in info.supertypes:
                        if sup not in seen:
                            seen.add(sup)
                            queue.append(sup)
            closure = self._closures[fqn] = tuple(queue)
        return closure if include_self else closure[1:]

    def members_of(self, fqn: str) -> tuple[MemberInfo, ...]:
        info = self.lookup_type(fqn)
        return info.members if info is not None else ()

    def find_field(self, receiver: str, name: str) -> Optional[MemberInfo]:
        return next(
            (
                m
                for tfqn in self.supertype_closure(receiver)
                for m in self.members_of(tfqn)
                if m.kind is SymbolKind.FIELD and m.name == name
            ),
            None,
        )

    def super_methods(self, member: MemberInfo) -> tuple[MemberInfo, ...]:
        """Methods in strict supertypes of the declaring type sharing the
        erased signature (the virtual-invocation closure)."""
        return self.overridden_methods(member.declaring, member.signature, include_self=False)

    def overridden_methods(
        self, fqn: str, signature: Optional[str], include_self: bool = True
    ) -> tuple[MemberInfo, ...]:
        """Methods with erased ``signature`` declared in ``fqn``'s supertype
        closure, nearest first: the methods a method of that signature in a
        subtype of ``fqn`` overrides."""
        key = (fqn, signature, include_self)
        found = self._overridden.get(key)
        if found is None:
            found = self._overridden[key] = tuple(
                m
                for tfqn in self.supertype_closure(fqn, include_self)
                for m in self.members_of(tfqn)
                if m.kind is SymbolKind.METHOD and m.signature == signature
            )
        return found

    # -- overload resolution ------------------------------------------------

    def resolve_method(
        self, receiver: str, name: str, arg_types: list[Optional[str]]
    ) -> MethodResolution:
        """Resolve a (possibly overloaded) method deterministically.

        Candidates are arity-matching methods named ``name`` in the receiver
        or its supertypes, nearest declaring type winning per erased
        signature; ``_choose`` picks among them.
        """
        candidates = self._method_candidates(receiver, name, len(arg_types))
        return self._choose(candidates, arg_types)

    def _method_candidates(
        self, receiver: str, name: str, arity: int
    ) -> tuple[MemberInfo, ...]:
        key = (receiver, name, arity)
        candidates = self._candidates.get(key)
        if candidates is None:
            found: list[MemberInfo] = []
            seen_sigs: set[Optional[str]] = set()
            for tfqn in self.supertype_closure(receiver):
                for m in self.members_of(tfqn):
                    if (
                        m.kind is SymbolKind.METHOD
                        and m.name == name
                        and len(m.param_types) == arity
                        and m.signature not in seen_sigs
                    ):
                        seen_sigs.add(m.signature)
                        found.append(m)
            candidates = self._candidates[key] = tuple(found)
        return candidates

    def resolve_constructor(
        self, type_fqn: str, arg_types: list[Optional[str]]
    ) -> MethodResolution:
        candidates = [
            m
            for m in self.members_of(type_fqn)
            if m.kind is SymbolKind.CONSTRUCTOR and len(m.param_types) == len(arg_types)
        ]
        return self._choose(candidates, arg_types)

    def _choose(
        self, candidates: Sequence[MemberInfo], arg_types: list[Optional[str]]
    ) -> MethodResolution:
        """Candidates whose parameter types are compatible with the argument
        types are preferred (an Unknown argument matches anything); if none
        is, all stay. Remaining ties are broken by the lexicographically
        smallest erased signature and flagged Ambiguous."""
        if not candidates:
            return MethodResolution(ResolutionStatus.UNRESOLVED)
        compatible = [m for m in candidates if self._args_compatible(m, arg_types)]
        survivors = compatible or candidates
        if len(survivors) == 1:
            return MethodResolution(ResolutionStatus.RESOLVED, survivors[0])
        chosen = min(survivors, key=lambda m: m.signature or "")
        return MethodResolution(ResolutionStatus.AMBIGUOUS, chosen)

    def _args_compatible(self, m: MemberInfo, arg_types: list[Optional[str]]) -> bool:
        for param, arg in zip(m.param_types, arg_types):
            if arg is None:  # Unknown matches anything
                continue
            if arg == param or param == ROOT_TYPE:
                continue
            if param in self.supertype_closure(arg):
                continue
            return False
        return True


# ---------------------------------------------------------------------------
# Name resolution context
# ---------------------------------------------------------------------------


class UnitContext(NamedTuple):
    """Import/package scope of one source unit, used to resolve type names."""

    table: SymbolTable
    package: str
    single_imports: dict[str, str]
    on_demand_imports: list[str]

    @classmethod
    def for_unit(cls, table: SymbolTable, unit: n.SourceUnit) -> "UnitContext":
        singles: dict[str, str] = {}
        on_demand: list[str] = []
        for imp in unit.imports:
            if imp.on_demand:
                on_demand.append(imp.qname)
            else:
                singles[imp.qname.split(".")[-1]] = imp.qname
        return cls(table, unit.package_name, singles, on_demand)

    def resolve_type_name(
        self,
        name: str,
        enclosing: tuple[str, ...] = (),
        type_params: frozenset[str] = frozenset(),
    ) -> tuple[str, bool]:
        """Resolve a (possibly dotted) type name to (fqn_or_raw, known).

        ``enclosing`` is the chain of enclosing type FQNs, innermost last.
        Type parameters in scope resolve to the root reference type.
        """
        table = self.table
        if "." in name:
            if table.lookup_type(name) is not None:
                return name, True
            if self.package:
                qualified = f"{self.package}.{name}"
                if table.lookup_type(qualified) is not None:
                    return qualified, True
            head, rest = name.split(".", 1)
            head_fqn, known = self.resolve_type_name(head, enclosing, type_params)
            if known:
                nested = f"{head_fqn}.{rest}"
                if table.lookup_type(nested) is not None:
                    return nested, True
            return name, False
        if name in type_params:
            return ROOT_TYPE, table.lookup_type(ROOT_TYPE) is not None
        for outer in reversed(enclosing):
            if outer.split(".")[-1] == name:
                return outer, True
            nested = f"{outer}.{name}"
            if table.lookup_type(nested) is not None:
                return nested, True
        same_pkg = f"{self.package}.{name}" if self.package else name
        if table.lookup_type(same_pkg) is not None:
            return same_pkg, True
        if name in self.single_imports:
            imported = self.single_imports[name]
            return imported, table.lookup_type(imported) is not None
        for pkg in self.on_demand_imports:
            candidate = f"{pkg}.{name}"
            if table.lookup_type(candidate) is not None:
                return candidate, True
        return name, False

    def erase(
        self,
        ref: n.TypeRef,
        enclosing: tuple[str, ...] = (),
        type_params: frozenset[str] = frozenset(),
    ) -> str:
        """Erased type name of a reference: type args dropped, type
        parameters replaced by the root reference type."""
        if ref.name in PRIMITIVES:
            base = ref.name
        else:
            base, _ = self.resolve_type_name(ref.name, enclosing, type_params)
        return base + "[]" * ref.array_dims


# ---------------------------------------------------------------------------
# Table construction
# ---------------------------------------------------------------------------


class Declaration(NamedTuple):
    """One declared type: its syntax, its FQN, the scope of its source unit,
    the FQNs of its enclosing types and itself (innermost last), and the
    type parameters in scope in its body (its own and its enclosing
    types')."""

    decl: n.TypeDecl
    fqn: str
    ctx: UnitContext
    scope: tuple[str, ...]
    type_params: frozenset[str]


def declarations(units: list[n.SourceUnit], table: SymbolTable) -> list[Declaration]:
    """One record per type declared in ``units``, nested types included, in
    source preorder. Names resolve against ``table``, which the records
    reference; the table references no record."""
    out: list[Declaration] = []
    for unit in units:
        ctx = UnitContext.for_unit(table, unit)
        prefix = f"{unit.package_name}." if unit.package_name else ""
        stack = [(decl, prefix, (), frozenset()) for decl in reversed(unit.types)]
        while stack:
            decl, prefix, enclosing, outer_params = stack.pop()
            fqn = prefix + decl.simple_name
            scope = enclosing + (fqn,)
            params = outer_params | frozenset(decl.type_params)
            out.append(Declaration(decl, fqn, ctx, scope, params))
            stack.extend((inner, f"{fqn}.", scope, params) for inner in reversed(decl.nested))
    return out


def build_symbol_table(
    units: list[n.SourceUnit], base: Optional[SymbolTable] = None
) -> SymbolTable:
    """Build a resolved SymbolTable from parsed units.

    Classes declaring no constructor receive a synthesized public zero-arg
    constructor. Unknown supertypes are kept by raw name and flagged
    external. Raises DuplicateSymbol on FQN/signature collisions and
    CyclicHierarchy on supertype cycles.
    """
    table = SymbolTable(base)
    declared = declarations(units, table)
    for d in declared:
        if d.fqn in table.types:
            raise DuplicateSymbol(f"type {d.fqn} declared more than once")
        table.types[d.fqn] = TypeInfo(
            fqn=d.fqn,
            kind=d.decl.kind,
            modifiers=frozenset(d.decl.modifiers),
            type_params=tuple(d.decl.type_params),
            supertypes=(),
            external_supertypes=frozenset(),
            members=(),
            enclosing=d.scope[-2] if len(d.scope) > 1 else None,
            location=d.decl.location,
        )

    for d in declared:
        supertypes: list[str] = []
        externals: set[str] = set()
        for ref in d.decl.extends_refs + d.decl.implements_refs:
            resolved, known = d.ctx.resolve_type_name(ref.name, d.scope, d.type_params)
            supertypes.append(resolved)
            if not known:
                externals.add(resolved)
        table.types[d.fqn] = table.types[d.fqn]._replace(
            supertypes=tuple(supertypes),
            external_supertypes=frozenset(externals),
            members=_build_members(d),
        )

    _check_acyclic(table)
    return table


def erased_signature(name: str, param_types: Iterable[str]) -> str:
    """The signature that identifies a method or constructor: its name and
    its erased parameter types, ``add(java.lang.Object)``."""
    return f"{name}({','.join(param_types)})"


def _build_members(d: Declaration) -> tuple[MemberInfo, ...]:
    decl, ctx, scope = d.decl, d.ctx, d.scope
    out: list[MemberInfo] = []
    seen: set[tuple[str, str]] = set()
    in_interface = decl.kind is SymbolKind.INTERFACE

    def normalize(member: n.MemberDecl) -> frozenset[str]:
        mods = set(member.modifiers)
        if in_interface:
            if not mods & n.VISIBILITY_MODIFIERS:
                mods.add("public")
            if member.kind is SymbolKind.FIELD:
                mods.update(("static", "final"))
            elif member.body is None and "static" not in mods and "default" not in mods:
                mods.add("abstract")
        elif member.kind is SymbolKind.METHOD and member.body is None:
            mods.add("abstract")
        return frozenset(mods)

    for member in decl.members:
        mods = normalize(member)
        if member.kind is SymbolKind.FIELD:
            info = MemberInfo(
                declaring=d.fqn,
                kind=member.kind,
                name=member.name,
                modifiers=mods,
                signature=None,
                param_types=(),
                return_type=None,
                field_type=ctx.erase(member.field_type, scope, d.type_params),
                location=member.location,
            )
            key = (member.name, "")
        else:
            param_types = tuple(
                ctx.erase(prm.type_ref, scope, d.type_params) for prm in member.params
            )
            signature = erased_signature(member.name, param_types)
            if member.kind is SymbolKind.CONSTRUCTOR:
                return_type = None
            elif member.is_void:
                return_type = "void"
            else:
                return_type = ctx.erase(member.return_type, scope, d.type_params)
            info = MemberInfo(
                declaring=d.fqn,
                kind=member.kind,
                name=member.name,
                modifiers=mods,
                signature=signature,
                param_types=param_types,
                return_type=return_type,
                field_type=None,
                location=member.location,
            )
            key = (member.name, signature)
        if key in seen:
            raise DuplicateSymbol(
                f"member {d.fqn}.{member.name} with signature {key[1] or '(field)'} "
                "declared more than once"
            )
        seen.add(key)
        out.append(info)

    if decl.kind is SymbolKind.CLASS and not any(
        m.kind is SymbolKind.CONSTRUCTOR for m in out
    ):
        out.append(
            MemberInfo(
                declaring=d.fqn,
                kind=SymbolKind.CONSTRUCTOR,
                name=decl.simple_name,
                modifiers=frozenset({"public"}),
                signature=erased_signature(decl.simple_name, ()),
                param_types=(),
                return_type=None,
                field_type=None,
                location=decl.location,
                synthesized=True,
            )
        )
    return tuple(out)


def _check_acyclic(table: SymbolTable) -> None:
    color: dict[str, int] = {}
    for fqn in table.types:
        _visit(table, color, fqn, [])


_WHITE, _GRAY, _BLACK = 0, 1, 2


def _visit(table: SymbolTable, color: dict[str, int], fqn: str, path: list[str]) -> None:
    """Depth-first colouring for ``_check_acyclic``. A module function, not a
    closure: a nested function that calls itself is a reference cycle, which
    would keep the table alive until a full collection."""
    state = color.get(fqn, _WHITE)
    if state == _BLACK:
        return
    if state == _GRAY:
        cycle = " -> ".join(path + [fqn])
        raise CyclicHierarchy(f"supertype cycle: {cycle}")
    color[fqn] = _GRAY
    info = table.types.get(fqn)
    if info is not None:
        for sup in info.supertypes:
            if table.lookup_type(sup) is not None:
                _visit(table, color, sup, path + [fqn])
    color[fqn] = _BLACK
