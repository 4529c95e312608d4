"""Static typing of expressions against a symbol table.

Typing is best-effort: anything that cannot be resolved is Unknown
(represented as None) rather than an error. Unknowns are recorded as
diagnostics by the footprint extractor, not here.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from . import nodes as n
from .model import SymbolKind
from .symtab import PRIMITIVES, MemberInfo, ResolutionStatus, UnitContext

Unknown = None

ChainLink = Union[n.FieldAccess, n.MethodCall]
_CHAIN_LINKS = (n.FieldAccess, n.MethodCall)


class Link(NamedTuple):
    """What typing decided for one receiver-chain link.

    ``receiver_type`` is the type the field or method is looked up on and
    ``receiver_is_expr`` whether the receiver is an expression rather than
    a type name or the implicit ``this``. ``member`` is the chosen field or
    method and ``status`` how it was chosen: Unresolved when there is none.
    ``type`` is the link's static type and ``name`` the dotted name a chain
    of field accesses on a name spells, or None.
    """

    receiver_type: Optional[str]
    receiver_is_expr: bool
    member: Optional[MemberInfo]
    status: ResolutionStatus
    type: Optional[str]
    name: Optional[str]


class Env:
    """Lexical environment mapping in-scope names to declared type FQNs.

    Type names resolve in the unit scope ``ctx``, and fields and methods
    are looked up in its table, ``table``.

    ``returns`` is the expected type of a ``return`` in this scope: the
    declared return type of the enclosing method, or the return type of
    the enclosing lambda's single abstract method; Unknown when there is
    none. Child scopes inherit it.

    ``links`` holds the record of every chain link typed in this scope,
    keyed by the node (AST nodes hash by identity). Child scopes share it;
    a root environment (one per type body) starts its own, so memory is
    bounded by one type body.
    """

    def __init__(
        self,
        ctx: UnitContext,
        this_type: Optional[str] = None,
        enclosing: tuple[str, ...] = (),
        type_params: frozenset[str] = frozenset(),
        parent: Optional["Env"] = None,
    ):
        self.table = ctx.table
        self.ctx = ctx
        self.this_type = this_type
        self.enclosing = enclosing
        self.type_params = type_params
        self.parent = parent
        self.vars: dict[str, Optional[str]] = {}
        self.returns: Optional[str] = parent.returns if parent is not None else Unknown
        self.links: dict[ChainLink, Link] = parent.links if parent is not None else {}

    def child(self) -> "Env":
        return Env(self.ctx, self.this_type, self.enclosing, self.type_params, self)

    def declare(self, name: str, type_fqn: Optional[str]) -> None:
        self.vars[name] = type_fqn

    def lookup(self, name: str) -> tuple[bool, Optional[str]]:
        env: Optional[Env] = self
        while env is not None:
            if name in env.vars:
                return True, env.vars[name]
            env = env.parent
        return False, Unknown

    def resolve_type(self, name: str) -> tuple[str, bool]:
        return self.ctx.resolve_type_name(name, self.enclosing, self.type_params)

    def erase(self, ref: n.TypeRef) -> str:
        return self.ctx.erase(ref, self.enclosing, self.type_params)


def declared_type(ref: n.TypeRef, env: Env) -> Optional[str]:
    """Static type a declared type reference denotes: its erasure, array
    dimensions kept, when that is a primitive or a known type; otherwise
    Unknown. An untyped lambda parameter's empty name is Unknown too."""
    if not ref.name:
        return Unknown
    erased = env.erase(ref)
    base = erased.rstrip("[]")
    if base in PRIMITIVES or env.table.lookup_type(base) is not None:
        return erased
    return Unknown


def as_type_name(expr: n.Expr, env: Env) -> Optional[str]:
    """If the expression is a dotted name chain denoting a known type,
    return its FQN; otherwise None.

    Names shadowed by in-scope variables are never type names. A chain
    of field accesses is typed on the way: its link records hold the name
    it spells.
    """
    if isinstance(expr, n.Name):
        name = expr.identifier
    elif isinstance(expr, n.FieldAccess):
        name = link_of(expr, env).name
        if name is None:
            return None
    else:
        return None
    declared, _ = env.lookup(name.partition(".")[0])
    if declared:
        return None
    fqn, known = env.resolve_type(name)
    return fqn if known else None


def bare_name(expr: n.Name, env: Env) -> tuple[Optional[str], Optional[MemberInfo]]:
    """(static type, field of ``this``) a bare name denotes. A variable in
    scope hides a field of the same name."""
    declared, t = env.lookup(expr.identifier)
    if declared or env.this_type is None:
        return t, None
    f = env.table.find_field(env.this_type, expr.identifier)
    return (f.field_type, f) if f is not None else (Unknown, None)


_LITERAL_TYPES = {
    "int": "int",
    "long": "long",
    "float": "float",
    "double": "double",
    "boolean": "boolean",
    "char": "char",
    "string": "java.lang.String",
    "null": Unknown,
}

_BOOLEAN_OPS = frozenset({"==", "!=", "<", ">", "<=", ">=", "&&", "||"})


def static_type_of(expr: n.Expr, env: Env) -> Optional[str]:
    """Declared static type of an expression, or Unknown (None)."""
    while True:  # assignments and operators take the type of one operand
        if isinstance(expr, _CHAIN_LINKS):
            return link_of(expr, env).type
        if isinstance(expr, n.Name):
            return bare_name(expr, env)[0]
        if isinstance(expr, n.Literal):
            return _LITERAL_TYPES.get(expr.kind, Unknown)
        if isinstance(expr, n.This):
            return env.this_type
        if isinstance(expr, (n.New, n.Cast)):
            return declared_type(expr.type_ref, env)
        if isinstance(expr, n.Assign):
            expr = expr.target
        elif isinstance(expr, n.Binary):
            if expr.op in _BOOLEAN_OPS:
                return "boolean"
            expr = expr.left
        elif isinstance(expr, n.Unary):
            if expr.op == "!":
                return "boolean"
            expr = expr.operand
        else:
            return Unknown  # lambdas are context-typed


def link_of(link: ChainLink, env: Env) -> Link:
    """The record of a chain link, made when it is first asked for.

    A left-deep chain is typed iteratively, innermost link first, so a
    chain of any length costs linear time and constant stack. An
    expression is only typed while its own statement is visited, so its
    record holds for the rest of the scope.
    """
    links = env.links
    record = links.get(link)
    if record is None:
        pending = [link]
        node = link.receiver
        while isinstance(node, _CHAIN_LINKS) and node not in links:
            pending.append(node)
            node = node.receiver
        for node in reversed(pending):  # ends with ``link`` itself
            record = links[node] = _type_link(node, env)
    return record


def _type_link(link: ChainLink, env: Env) -> Link:
    """Decide one link whose receiver link, if any, has its record.

    This is the one receiver rule of typing and extraction. An unqualified
    call's receiver is ``this``. A call names a type receiver before typing
    it, so in ``Foo.make()`` a visible type ``Foo`` wins over a field
    ``Foo``. A field access types its receiver first and falls back to a
    type name. A receiver that is neither typed nor a type is an expression
    of Unknown type.
    """
    receiver, name = link.receiver, None
    if isinstance(link, n.MethodCall):
        type_name = env.this_type if receiver is None else as_type_name(receiver, env)
        is_expr = receiver is not None and type_name is None
        receiver_type = static_type_of(receiver, env) if is_expr else type_name
    else:
        head = receiver.identifier if isinstance(receiver, n.Name) else None
        if isinstance(receiver, n.FieldAccess):
            head = env.links[receiver].name
        name = None if head is None else f"{head}.{link.name}"
        receiver_type = static_type_of(receiver, env)
        is_expr = receiver_type is not None
        if not is_expr:
            receiver_type = as_type_name(receiver, env)
            is_expr = receiver_type is None
    if receiver_type is None:
        return Link(None, is_expr, None, ResolutionStatus.UNRESOLVED, Unknown, name)
    if isinstance(link, n.FieldAccess):
        member = env.table.find_field(receiver_type, link.name)
        status = ResolutionStatus.UNRESOLVED if member is None else ResolutionStatus.RESOLVED
    else:
        arg_types = [static_type_of(a, env) for a in link.args]
        res = env.table.resolve_method(receiver_type, link.name, arg_types)
        member, status = res.member, res.status
    if member is None:
        link_type = Unknown
    elif member.kind is SymbolKind.FIELD:
        link_type = member.field_type
    else:
        link_type = Unknown if member.return_type == "void" else member.return_type
    return Link(receiver_type, is_expr, member, status, link_type, name)
