"""Static typing of expressions against a symbol table.

Typing is best-effort: anything that cannot be resolved is Unknown
(represented as None) rather than an error. Unknowns are recorded as
diagnostics by the footprint extractor, not here.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from . import nodes as n
from .symtab import PRIMITIVES, MemberInfo, ResolutionStatus, Scope, SymbolTable

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

    Type names resolve in ``scope``, that of the enclosing type body, and
    members are looked up in its ``table``. In an anonymous class body,
    ``this_type`` is the class it extends or the interface it implements,
    Unknown when that resolved nowhere.

    ``returns`` is the expected type of a ``return`` in this scope: the
    declared return type of the enclosing method, or the return type of
    the enclosing lambda's single abstract method; Unknown when there is
    none. Child scopes inherit it.

    ``parent`` is the enclosing environment, for a member or anonymous
    class body the one it is declared in (JLS §6.4.1, §15.9.5). A class
    body ends where the scope changes; ``bodies`` holds the ``this_type``
    of each body the scope is in, innermost first.

    ``links`` holds the record of every chain link typed in this scope,
    keyed by the node (AST nodes hash by identity), and ``resolved`` what
    each type name written in it resolves to; the tables are complete
    before typing starts, so a resolved name never changes. Child scopes
    share both, but a member class, whose ``enclosing`` types differ,
    starts its own ``resolved``, and a top-level type both.
    """

    def __init__(self, scope: Scope, parent: Optional["Env"] = None):
        self.scope = scope
        self.table = scope.table
        self.this_type = scope.this_type
        self.parent = parent
        self.vars: dict[str, Optional[str]] = {}
        self.returns: Optional[str] = Unknown if parent is None else parent.returns
        self.links: dict[ChainLink, Link] = {} if parent is None else parent.links
        self.resolved: dict[str, tuple[str, bool]] = {}
        self.bodies: tuple[Optional[str], ...] = (scope.this_type,)
        if parent is not None:
            if parent.scope.enclosing == scope.enclosing:
                self.resolved = parent.resolved
            self.bodies = parent.bodies if parent.scope is scope else self.bodies + parent.bodies

    def child(self) -> "Env":
        return Env(self.scope, self)

    def declare(self, name: str, type_fqn: Optional[str]) -> None:
        self.vars[name] = type_fqn

    def resolve_type(self, name: str) -> tuple[str, bool]:
        """``scope.resolve_type(name)``, resolved once per type body."""
        resolved = self.resolved.get(name)
        if resolved is None:
            resolved = self.resolved[name] = self.scope.resolve_type(name)
        return resolved


def declared_type(ref: n.TypeRef, env: Env) -> Optional[str]:
    """Static type a declared type reference denotes: its erasure, array
    dimensions kept, when that is a primitive or a known type; otherwise
    Unknown. An untyped lambda parameter's empty name is Unknown too."""
    name = ref.name
    if not name:
        return Unknown
    if name not in PRIMITIVES:  # else a primitive, as erasure takes it
        name, known = env.resolve_type(name)
        if not known:  # never the raw spelling (JLS §7.4.2, §7.5)
            return Unknown
    return name + "[]" * ref.array_dims


def as_type_name(expr: n.Expr, env: Env) -> Optional[str]:
    """If the expression is a dotted name chain denoting a known type,
    return its FQN; otherwise None.

    A name is a variable if one is in scope, else a type (JLS §6.5.2): a
    chain whose first name ``bare_name`` finds, or whose last name is a
    field, is no type name. A chain of field accesses is typed on the way:
    its link records hold the name it spells.
    """
    if isinstance(expr, n.Name):
        name = expr.identifier
    elif isinstance(expr, n.FieldAccess) and link_of(expr, env).member is None:
        name = env.links[expr].name
    else:
        return None
    if name is None or bare_name(name.partition(".")[0], env) is not NOWHERE:
        return None
    fqn, known = env.resolve_type(name)
    return fqn if known else None


NOWHERE: tuple[Optional[str], Optional[MemberInfo]] = (Unknown, None)  # no variable or field


def bare_name(name: str, env: Env) -> tuple[Optional[str], Optional[MemberInfo]]:
    """(static type, field) the bare name ``name`` denotes, the innermost
    declaration winning: the variables of each scope, and where a class
    body ends (an ``Env`` with no parent, or whose parent has another
    scope) the fields its ``this_type`` declares or inherits, before those
    of the enclosing scopes (JLS §6.4.1, §15.9.5); else ``NOWHERE``."""
    while True:
        if name in env.vars:
            return env.vars[name], None
        parent = env.parent
        if parent is None or parent.scope is not env.scope:
            if env.this_type is not None:
                f = env.table.find_field(env.this_type, name)
                if f is not None:
                    return f.type, f
            if parent is None:
                return NOWHERE
        env = parent


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
            return bare_name(expr.identifier, env)[0]
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


# The methods of java.lang.Object, which every class body has (JLS §4.3.2)
# and no table lists.
OBJECT_METHODS = frozenset({"clone", "equals", "finalize", "getClass", "hashCode", "notify",
                            "notifyAll", "toString", "wait"})


def _type_link(link: ChainLink, env: Env) -> Link:
    """Decide one link whose receiver link, if any, has its record.

    This is the one receiver rule of typing and extraction. A receiver is
    read as a type name (``as_type_name``), and only otherwise typed as an
    expression; one that is neither is an expression of Unknown type. An
    unqualified call's receiver is the innermost of ``env.bodies`` with a
    method of its name and arity (JLS §15.12.1), or when none has one the
    innermost body, whose type the failed call names. A call named like an
    ``OBJECT_METHODS`` method looks in the innermost body only. A call that
    passes over a body whose methods the table cannot list (``_lists_methods``)
    is Ambiguous: that body may declare or inherit the method.
    """
    receiver, name = link.receiver, None
    receivers, is_expr = env.bodies, False  # an unqualified call's
    if receiver is not None:
        if isinstance(link, n.FieldAccess):
            head = receiver.identifier if isinstance(receiver, n.Name) else None
            if isinstance(receiver, n.FieldAccess):
                head = env.links[receiver].name
            name = None if head is None else f"{head}.{link.name}"
        type_name = as_type_name(receiver, env)
        is_expr = type_name is None
        receivers = (static_type_of(receiver, env) if is_expr else type_name,)
    elif link.name in OBJECT_METHODS:
        receivers = receivers[:1]
    if not any(receivers):  # no receiver type is known
        return Link(None, is_expr, None, ResolutionStatus.UNRESOLVED, Unknown, name)
    receiver_type = receivers[0]
    if isinstance(link, n.FieldAccess):
        member = env.table.find_field(receiver_type, link.name)
        status = ResolutionStatus.UNRESOLVED if member is None else ResolutionStatus.RESOLVED
    else:
        arg_types = [static_type_of(a, env) for a in link.args]
        for passed, body in enumerate(receivers):
            if body is not None:
                res = env.table.resolve_method(body, link.name, arg_types)
                if res.member is not None:
                    receiver_type = body
                    break
        member, status = res.member, res.status
        if member is not None and not all(
                _lists_methods(b, env.table) for b in receivers[:passed]):
            status = ResolutionStatus.AMBIGUOUS
    link_type = Unknown if member is None or member.type == "void" else member.type
    return Link(receiver_type, is_expr, member, status, link_type, name)


def _lists_methods(body: Optional[str], table: SymbolTable) -> bool:
    """Whether ``table`` lists every method of the class body ``body`` but
    those of java.lang.Object: the body's type and its supertypes are known."""
    return body is not None and all(t in table.types for t in table.supertype_closure(body))
