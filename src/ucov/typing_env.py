"""Static typing of expressions against a symbol table.

Typing is best-effort: anything that cannot be resolved is Unknown
(represented as None) rather than an error. Unknowns are recorded as
diagnostics by the footprint extractor, not here.
"""

from __future__ import annotations

from typing import Optional, Union

from . import nodes as n
from .symtab import MethodResolution, ResolutionStatus, SymbolTable, UnitContext

Unknown = None


class TypingMemo:
    """Types and call resolutions of expression nodes, keyed by the node.

    AST nodes hash by identity. An expression is only typed while its own
    statement is visited, so its type does not change afterwards.
    """

    __slots__ = ("types", "calls", "names")

    def __init__(self) -> None:
        self.types: dict[n.Expr, Optional[str]] = {}
        self.calls: dict[n.MethodCall, tuple[str, MethodResolution]] = {}
        self.names: dict[n.FieldAccess, Optional[str]] = {}


class Env:
    """Lexical environment mapping in-scope names to declared type FQNs.

    ``memo`` holds the types and call resolutions computed for expressions
    in this scope. Child scopes share it; a root environment (one per
    type body) starts its own, so memory is bounded by one type body.
    """

    def __init__(
        self,
        table: SymbolTable,
        ctx: UnitContext,
        this_type: Optional[str] = None,
        enclosing: tuple[str, ...] = (),
        type_params: frozenset[str] = frozenset(),
        parent: Optional["Env"] = None,
    ):
        self.table = table
        self.ctx = ctx
        self.this_type = this_type
        self.enclosing = enclosing
        self.type_params = type_params
        self.parent = parent
        self.vars: dict[str, Optional[str]] = {}
        self.memo = parent.memo if parent is not None else TypingMemo()

    def child(self) -> "Env":
        return Env(
            self.table, self.ctx, self.this_type, self.enclosing, self.type_params, self
        )

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


def as_type_name(expr: n.Expr, env: Env) -> Optional[str]:
    """If the expression is a dotted name chain denoting a known type,
    return its FQN; otherwise None.

    Names shadowed by in-scope variables are never type names.
    """
    name = _dotted_name(expr, env.memo)
    if name is None:
        return None
    declared, _ = env.lookup(name.partition(".")[0])
    if declared:
        return None
    fqn, known = env.resolve_type(name)
    return fqn if known else None


def _dotted_name(expr: n.Expr, memo: TypingMemo) -> Optional[str]:
    """The dotted name a chain of field accesses on a name spells, or None.

    Each link's name is memoized and extends its receiver's, so naming
    every link of a chain costs time linear in its length.
    """
    names = memo.names
    links = []
    while isinstance(expr, n.FieldAccess):
        if expr in names:
            name = names[expr]
            break
        links.append(expr)
        expr = expr.receiver
    else:
        name = expr.identifier if isinstance(expr, n.Name) else None
    for link in reversed(links):
        if name is not None:
            name = f"{name}.{link.name}"
        names[link] = name
    return name


_LITERAL_TYPES = {
    "int": "int",
    "boolean": "boolean",
    "char": "char",
    "string": "java.lang.String",
    "null": Unknown,
}

_BOOLEAN_OPS = frozenset({"==", "!=", "<", ">", "<=", ">=", "&&", "||"})


def static_type_of(expr: n.Expr, env: Env, table: SymbolTable) -> Optional[str]:
    """Declared static type of an expression, or Unknown (None).

    ``table`` is the table ``env`` was built over. A left-deep receiver
    chain is typed iteratively, innermost link first, and each link's type
    is memoized in ``env.memo``, so chains of any length cost linear time
    and constant stack.
    """
    while True:  # assignments and operators take the type of one operand
        if isinstance(expr, _CHAIN_LINKS):
            return _chain_type(expr, env)
        if isinstance(expr, n.Name):
            declared, t = env.lookup(expr.identifier)
            if declared:
                return t
            if env.this_type is not None:
                f = table.find_field(env.this_type, expr.identifier)
                if f is not None:
                    return f.field_type
            return Unknown
        if isinstance(expr, n.Literal):
            return _LITERAL_TYPES.get(expr.kind, Unknown)
        if isinstance(expr, n.This):
            return env.this_type
        if isinstance(expr, n.New):
            fqn, known = env.resolve_type(expr.type_ref.name)
            return fqn if known else Unknown
        if isinstance(expr, n.Cast):
            if expr.type_ref.name in ("int", "boolean", "char"):
                return expr.type_ref.name
            fqn, known = env.resolve_type(expr.type_ref.name)
            return fqn if known else Unknown
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


_CHAIN_LINKS = (n.FieldAccess, n.MethodCall)


def receiver_of(
    link: Union[n.FieldAccess, n.MethodCall], env: Env
) -> tuple[Optional[str], bool]:
    """(receiver type, whether the receiver is an expression) of a chain link.

    This is the one receiver rule of typing and extraction. An unqualified
    call's receiver is ``this``. A call names a type receiver before typing
    it, so in ``Foo.make()`` a visible type ``Foo`` wins over a field
    ``Foo``. A field access types its receiver first and falls back to a
    type name. A receiver that is neither typed nor a type is an expression
    of Unknown type.
    """
    receiver = link.receiver
    if isinstance(link, n.MethodCall):
        if receiver is None:
            return env.this_type, False
        type_name = as_type_name(receiver, env)
        if type_name is not None:
            return type_name, False
        return static_type_of(receiver, env, env.table), True
    receiver_type = static_type_of(receiver, env, env.table)
    if receiver_type is not None:
        return receiver_type, True
    type_name = as_type_name(receiver, env)
    return type_name, type_name is None


def _chain_type(expr: Union[n.FieldAccess, n.MethodCall], env: Env) -> Optional[str]:
    types = env.memo.types
    links = []
    node: Optional[n.Expr] = expr
    while isinstance(node, _CHAIN_LINKS) and node not in types:
        links.append(node)
        node = node.receiver
    for link in reversed(links):  # innermost first: a receiver link is typed first
        types[link] = _link_type(link, env)
    return types[expr]


def _link_type(link: Union[n.FieldAccess, n.MethodCall], env: Env) -> Optional[str]:
    receiver_type, _ = receiver_of(link, env)
    if receiver_type is None:
        return Unknown
    if isinstance(link, n.FieldAccess):
        f = env.table.find_field(receiver_type, link.name)
        return f.field_type if f is not None else Unknown
    res = resolve_call(link, receiver_type, env)
    if res.status is ResolutionStatus.UNRESOLVED or res.member is None:
        return Unknown
    rt = res.member.return_type
    return Unknown if rt == "void" else rt


def resolve_call(call: n.MethodCall, receiver_type: str, env: Env) -> MethodResolution:
    """Resolution of ``call`` on ``receiver_type``, memoized per call node,
    so typing a call and extracting its use resolve it once. A resolution
    on another receiver type is stale and is redone."""
    calls = env.memo.calls
    hit = calls.get(call)
    if hit is not None and hit[0] == receiver_type:
        return hit[1]
    arg_types = [static_type_of(a, env, env.table) for a in call.args]
    res = env.table.resolve_method(receiver_type, call.name, arg_types)
    calls[call] = (receiver_type, res)
    return res
