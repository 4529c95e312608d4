"""Symbol tables, type-name resolution, signature erasure, and method lookup.

A SymbolTable maps fully qualified names to resolved type information.
A client table starts as a copy of the library table's types and adds the
client's own, so client code references library types without declaring
them again, and a client type may shadow a library type of the same FQN.

Erased signatures identify members: type arguments are dropped and type
parameters are replaced by the root reference type, so ``add(E)`` and
``add(T)`` both erase to ``add(java.lang.Object)``.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple, Optional, Sequence

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
    # The erased type an access to the member has: a field's type or a
    # method's result type, "void" for a void method, None for a constructor.
    type: Optional[str]
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

    visibility = _visibility


class ResolutionStatus(Enum):
    RESOLVED = "Resolved"
    AMBIGUOUS = "Ambiguous"
    UNRESOLVED = "Unresolved"


class MethodResolution(NamedTuple):
    status: ResolutionStatus
    member: Optional[MemberInfo] = None


class SymbolTable:
    """Immutable-after-build table of types: those of ``base``, if given,
    copied first, then the table's own.

    Supertype closures and member indexes are cached per table instance on
    first query, so a table must not be changed once it is queried. A
    client table keeps its own caches: a client type can complete a library
    type's external supertype, so the answers may differ from the base's.
    """

    def __init__(self, base: Optional["SymbolTable"] = None):
        self.types: dict[str, TypeInfo] = {} if base is None else dict(base.types)
        self._closures: dict[str, tuple[str, ...]] = {}
        self._members: dict[str, dict[str, tuple[MemberInfo, ...]]] = {}

    # -- lookup -----------------------------------------------------------

    def lookup_type(self, fqn: str) -> Optional[TypeInfo]:
        return self.types.get(fqn)

    def supertype_closure(self, fqn: str) -> tuple[str, ...]:
        """``fqn`` and its known supertypes by BFS, duplicate-free, nearest first."""
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
        return closure

    def members_of(self, fqn: str) -> tuple[MemberInfo, ...]:
        info = self.lookup_type(fqn)
        return info.members if info is not None else ()

    def _members_named(self, fqn: str, name: str) -> tuple[MemberInfo, ...]:
        """Members named ``name`` declared in ``fqn``'s supertype closure,
        nearest declaring type first, each type's in declaration order. One
        walk of the closure indexes every name of ``fqn``."""
        index = self._members.get(fqn)
        if index is None:
            grouped: dict[str, list[MemberInfo]] = {}
            for tfqn in self.supertype_closure(fqn):
                for m in self.members_of(tfqn):
                    grouped.setdefault(m.name, []).append(m)
            index = self._members[fqn] = {k: tuple(v) for k, v in grouped.items()}
        return index.get(name, ())

    def find_field(self, receiver: str, name: str) -> Optional[MemberInfo]:
        return next(
            (m for m in self._members_named(receiver, name) if m.kind is SymbolKind.FIELD),
            None,
        )

    def super_methods(self, member: MemberInfo) -> tuple[MemberInfo, ...]:
        """Methods in strict supertypes of the declaring type sharing the
        erased signature (the virtual-invocation closure). Every member of
        a type declares that type, so the type's own are the ones dropped."""
        return tuple(
            m
            for m in self.overridden_methods(member.declaring, member.signature)
            if m.declaring != member.declaring
        )

    def overridden_methods(self, fqn: str, signature: str) -> tuple[MemberInfo, ...]:
        """Methods with erased ``signature`` declared in ``fqn``'s supertype
        closure, nearest first: the methods a method of that signature in a
        subtype of ``fqn`` overrides."""
        return tuple(
            m
            for m in self._members_named(fqn, signature.partition("(")[0])
            if m.kind is SymbolKind.METHOD and m.signature == signature
        )

    # -- overload resolution ------------------------------------------------

    def resolve_method(
        self, receiver: str, name: str, arg_types: list[Optional[str]]
    ) -> MethodResolution:
        """Resolve a (possibly overloaded) method deterministically.

        Candidates are arity-matching methods named ``name`` in the receiver
        or its supertypes, nearest declaring type winning per erased
        signature; ``_choose`` picks among them.
        """
        candidates: dict[Optional[str], MemberInfo] = {}
        for m in self._members_named(receiver, name):
            if m.kind is SymbolKind.METHOD and len(m.param_types) == len(arg_types):
                candidates.setdefault(m.signature, m)
        return self._choose(list(candidates.values()), arg_types)

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
# Name resolution scope
# ---------------------------------------------------------------------------


class Scope(NamedTuple):
    """What a type name in one type body resolves against: the table, the
    unit's package and imports, the type (``this_type``), the FQNs of its
    enclosing types and itself (``enclosing``, innermost last) and the type
    parameters in scope (its own and its enclosing types')."""

    table: SymbolTable
    package: str
    single_imports: dict[str, str]
    on_demand_imports: list[str]
    this_type: Optional[str] = None
    enclosing: tuple[str, ...] = ()
    type_params: frozenset[str] = frozenset()

    @classmethod
    def for_unit(cls, table: SymbolTable, unit: n.SourceUnit) -> "Scope":
        """The scope of ``unit`` outside any type declaration."""
        singles: dict[str, str] = {}
        on_demand: list[str] = []
        for imp in unit.imports:
            if imp.on_demand:
                on_demand.append(imp.qname)
            else:
                singles[imp.qname.split(".")[-1]] = imp.qname
        return cls(table, unit.package_name, singles, on_demand)

    def resolve_type(self, name: str) -> tuple[str, bool]:
        """Resolve a (possibly dotted) type name to (fqn_or_raw, known). A
        single-type import shadows a type of the same package (JLS 6.4.1);
        README "Semantics in brief" states the whole lookup order."""
        table = self.table
        if "." in name:
            if table.lookup_type(name) is not None:
                return name, True
            head, rest = name.split(".", 1)
            head_fqn, known = self.resolve_type(head)
            if known:
                nested = f"{head_fqn}.{rest}"
                if table.lookup_type(nested) is not None:
                    return nested, True
            return name, False
        if name in self.type_params:
            return ROOT_TYPE, table.lookup_type(ROOT_TYPE) is not None
        for outer in reversed(self.enclosing):
            if outer.split(".")[-1] == name:
                return outer, True
            nested = f"{outer}.{name}"
            if table.lookup_type(nested) is not None:
                return nested, True
        if name in self.single_imports:
            imported = self.single_imports[name]
            return imported, table.lookup_type(imported) is not None
        same_pkg = f"{self.package}.{name}" if self.package else name
        if table.lookup_type(same_pkg) is not None:
            return same_pkg, True
        for pkg in self.on_demand_imports:
            candidate = f"{pkg}.{name}"
            if table.lookup_type(candidate) is not None:
                return candidate, True
        return name, False

    def erase(self, ref: n.TypeRef) -> str:
        """Erased type name of a reference: type args dropped, type
        parameters replaced by the root reference type."""
        if ref.name in PRIMITIVES:
            base = ref.name
        else:
            base, _ = self.resolve_type(ref.name)
        return base + "[]" * ref.array_dims


# ---------------------------------------------------------------------------
# Table construction
# ---------------------------------------------------------------------------


class Declaration(NamedTuple):
    """One declared type: its syntax and the scope of its body."""

    decl: n.TypeDecl
    scope: Scope

    @property
    def fqn(self) -> str:
        return self.scope.this_type


def declarations(units: list[n.SourceUnit], table: SymbolTable) -> list[Declaration]:
    """One record per type declared in ``units``, nested types included, in
    source preorder. Names resolve against ``table``, which the records
    reference; the table references no record."""
    out: list[Declaration] = []
    for unit in units:
        unit_scope = Scope.for_unit(table, unit)
        stack = [(decl, unit_scope) for decl in reversed(unit.types)]
        while stack:
            decl, outer = stack.pop()
            prefix = outer.this_type or outer.package
            fqn = f"{prefix}.{decl.simple_name}" if prefix else decl.simple_name
            scope = outer._replace(
                this_type=fqn,
                enclosing=outer.enclosing + (fqn,),
                type_params=outer.type_params | frozenset(decl.type_params),
            )
            out.append(Declaration(decl, scope))
            stack.extend((inner, scope) for inner in reversed(decl.nested))
    return out


def build_symbol_table(
    units: list[n.SourceUnit], base: Optional[SymbolTable] = None
) -> SymbolTable:
    """Build a resolved SymbolTable from parsed units, holding every type
    of ``base`` too; a type of ``units`` replaces a ``base`` type of the
    same FQN.

    Classes declaring no constructor receive a synthesized public zero-arg
    constructor. Unknown supertypes are kept by raw name and flagged
    external. Raises DuplicateSymbol on FQN/kind/signature collisions among
    the types of ``units`` and CyclicHierarchy on a supertype cycle through
    one of them.
    """
    table = SymbolTable(base)
    declared = declarations(units, table)
    own: dict[str, TypeInfo] = {}  # the types of ``units``, in declaration order
    for d in declared:
        if d.fqn in own:
            raise DuplicateSymbol(f"type {d.fqn} declared more than once")
        own[d.fqn] = table.types[d.fqn] = TypeInfo(
            fqn=d.fqn,
            kind=d.decl.kind,
            modifiers=frozenset(d.decl.modifiers),
            type_params=tuple(d.decl.type_params),
            supertypes=(),
            external_supertypes=frozenset(),
            members=(),
            enclosing=d.scope.enclosing[-2] if len(d.scope.enclosing) > 1 else None,
        )

    for d in declared:
        supertypes: list[str] = []
        externals: set[str] = set()
        for ref in d.decl.extends_refs + d.decl.implements_refs:
            resolved, known = d.scope.resolve_type(ref.name)
            supertypes.append(resolved)
            if not known:
                externals.add(resolved)
        own[d.fqn] = table.types[d.fqn] = own[d.fqn]._replace(
            supertypes=tuple(supertypes),
            external_supertypes=frozenset(externals),
            members=_build_members(d),
        )

    check_acyclic(own, table.types)
    return table


def erased_signature(name: str, param_types: Iterable[str]) -> str:
    """The signature that identifies a method or constructor: its name and
    its erased parameter types, ``add(java.lang.Object)``."""
    return f"{name}({','.join(param_types)})"


def _build_members(d: Declaration) -> tuple[MemberInfo, ...]:
    decl, scope = d.decl, d.scope
    out: list[MemberInfo] = []
    seen: set[tuple[SymbolKind, str, Optional[str]]] = set()
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
        param_types = tuple(scope.erase(prm.type_ref) for prm in member.params)
        signature = None
        if member.kind is not SymbolKind.FIELD:
            signature = erased_signature(member.name, param_types)
        if member.type_ref is not None:
            erased_type = scope.erase(member.type_ref)
        else:
            erased_type = "void" if member.kind is SymbolKind.METHOD else None
        key = (member.kind, member.name, signature)
        if key in seen:
            raise DuplicateSymbol(
                f"member {d.fqn}.{member.name} with signature {signature or '(field)'} "
                "declared more than once"
            )
        seen.add(key)
        out.append(
            MemberInfo(
                declaring=d.fqn,
                kind=member.kind,
                name=member.name,
                modifiers=normalize(member),
                signature=signature,
                param_types=param_types,
                type=erased_type,
                location=member.location,
            )
        )

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
                type=None,
                location=decl.location,
                synthesized=True,
            )
        )
    return tuple(out)


def check_acyclic(roots: Iterable[str], types: dict[str, TypeInfo]) -> None:
    """Raise CyclicHierarchy if a supertype path from one of ``roots``
    through ``types`` closes a cycle; the message names the depth-first path
    that closed it. A client's cycle may pass through library types, so
    the path follows every type of the table. An explicit stack walks a
    hierarchy of any depth without recursion."""
    done: set[str] = set()
    for root in roots:
        if root in done:
            continue
        path = [root]
        on_path = {root}
        pending = [iter(types[root].supertypes)]
        while pending:
            sup = next(pending[-1], None)
            if sup is None:
                pending.pop()
                finished = path.pop()
                on_path.remove(finished)
                done.add(finished)
            elif sup in on_path:
                cycle = " -> ".join(path + [sup])
                raise CyclicHierarchy(f"supertype cycle: {cycle}")
            elif sup in types and sup not in done:
                path.append(sup)
                on_path.add(sup)
                pending.append(iter(types[sup].supertypes))
