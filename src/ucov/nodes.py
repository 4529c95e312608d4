"""AST node definitions for the J-lite subject language.

A node carries a ``location`` (the file and the 1-based line and column
of its head token) only where extraction can report a use site or a
diagnostic there: ``TypeRef``, ``Name``, ``FieldAccess``, ``MethodCall``
(its name token), ``Lambda`` (its opening parenthesis), ``MemberDecl``
and ``TypeDecl`` (their names). A ``New`` is located at its
``type_ref``, and a ``Location`` holds its file, so a ``SourceUnit`` holds
no path. A node holds no field that repeats another, and no field that no
later phase reads: a member's one ``type_ref`` is a field's type or a
method's result type, so a method is void exactly when it is None, and a
type's ``permits`` clause is parsed but not kept.

Nodes are plain classes with ``__slots__`` that compare and hash by
identity, so analyses can key tables by node; ``Location`` is a value.
A declaration's kind is a ``ucov.model.SymbolKind``, the one kind of the
parser, the symbol table and the usage model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from .uses import Location

if TYPE_CHECKING:
    from .model import SymbolKind


class Node:
    """The base of every node: a node's fields are its class's ``__slots__``.
    A node can be weakly referenced, so a caller can see it freed."""

    __slots__ = ("__weakref__",)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class TypeRef(Node):
    """A possibly-generic, possibly-array type reference such as ``List<String>[]``."""

    __slots__ = ("name", "type_args", "array_dims", "location")

    def __init__(
        self,
        name: str,  # dotted qualified name as written
        type_args: list[TypeRef],
        array_dims: int,
        location: Location,
    ) -> None:
        self.name = name
        self.type_args = type_args
        self.array_dims = array_dims
        self.location = location


class ImportDecl(Node):
    __slots__ = ("qname", "on_demand")

    def __init__(self, qname: str, on_demand: bool) -> None:
        self.qname = qname
        self.on_demand = on_demand


class Param(Node):
    __slots__ = ("name", "type_ref")

    def __init__(self, name: str, type_ref: TypeRef) -> None:
        self.name = name
        self.type_ref = type_ref


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Literal(Node):
    __slots__ = ("value", "kind")

    def __init__(
        self,
        value: str,  # the token's text, a string's or char's without its quotes
        kind: str,  # int, long, float, double, string, char, boolean, null
    ) -> None:
        self.value = value
        self.kind = kind


class Name(Node):
    __slots__ = ("identifier", "location")

    def __init__(self, identifier: str, location: Location) -> None:
        self.identifier = identifier
        self.location = location


class This(Node):
    __slots__ = ()


class FieldAccess(Node):
    __slots__ = ("receiver", "name", "location")

    def __init__(
        self,
        receiver: Expr,
        name: str,
        location: Location,  # of the accessed member's identifier
    ) -> None:
        self.receiver = receiver
        self.name = name
        self.location = location


class MethodCall(Node):
    __slots__ = ("receiver", "name", "args", "location")

    def __init__(
        self,
        receiver: Optional[Expr],  # None for bare calls such as f(x)
        name: str,
        args: list[Expr],
        location: Location,  # of the method name token
    ) -> None:
        self.receiver = receiver
        self.name = name
        self.args = args
        self.location = location


class New(Node):
    __slots__ = ("type_ref", "args", "anon_body")

    def __init__(
        self, type_ref: TypeRef, args: list[Expr], anon_body: Optional[list[MemberDecl]]
    ) -> None:
        self.type_ref = type_ref
        self.args = args
        self.anon_body = anon_body


class Assign(Node):
    __slots__ = ("target", "value")

    def __init__(self, target: Expr, value: Expr) -> None:
        self.target = target
        self.value = value


class Binary(Node):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        self.op = op
        self.left = left
        self.right = right


class Unary(Node):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr) -> None:
        self.op = op
        self.operand = operand


class Cast(Node):
    __slots__ = ("type_ref", "expr")

    def __init__(self, type_ref: TypeRef, expr: Expr) -> None:
        self.type_ref = type_ref
        self.expr = expr


class Lambda(Node):
    __slots__ = ("params", "body", "location")

    def __init__(
        self,
        params: list[Param],  # type_ref.name == "" when the parameter is untyped
        body: Union[Expr, Block],
        location: Location,
    ) -> None:
        self.params = params
        self.body = body
        self.location = location


Expr = Union[
    Literal, Name, This, FieldAccess, MethodCall, New, Assign, Binary, Unary, Cast, Lambda
]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Block(Node):
    __slots__ = ("statements",)

    def __init__(self, statements: list[Stmt]) -> None:
        self.statements = statements


class LocalDecl(Node):
    __slots__ = ("type_ref", "name", "init")

    def __init__(self, type_ref: TypeRef, name: str, init: Optional[Expr]) -> None:
        self.type_ref = type_ref
        self.name = name
        self.init = init


class ExprStmt(Node):
    __slots__ = ("expr",)

    def __init__(self, expr: Expr) -> None:
        self.expr = expr


class If(Node):
    __slots__ = ("cond", "then", "orelse")

    def __init__(self, cond: Expr, then: Stmt, orelse: Optional[Stmt]) -> None:
        self.cond = cond
        self.then = then
        self.orelse = orelse


class While(Node):
    __slots__ = ("cond", "body")

    def __init__(self, cond: Expr, body: Stmt) -> None:
        self.cond = cond
        self.body = body


class For(Node):
    __slots__ = ("init", "cond", "update", "body")

    def __init__(
        self,
        init: Optional[Stmt],  # LocalDecl or ExprStmt
        cond: Optional[Expr],
        update: Optional[Expr],
        body: Stmt,
    ) -> None:
        self.init = init
        self.cond = cond
        self.update = update
        self.body = body


class Return(Node):
    __slots__ = ("expr",)

    def __init__(self, expr: Optional[Expr]) -> None:
        self.expr = expr


class Throw(Node):
    __slots__ = ("expr",)

    def __init__(self, expr: Expr) -> None:
        self.expr = expr


class Catch(Node):
    __slots__ = ("param_type", "name", "body")

    def __init__(self, param_type: TypeRef, name: str, body: Block) -> None:
        self.param_type = param_type
        self.name = name
        self.body = body


class Try(Node):
    __slots__ = ("body", "catches", "finally_block")

    def __init__(self, body: Block, catches: list[Catch], finally_block: Optional[Block]) -> None:
        self.body = body
        self.catches = catches
        self.finally_block = finally_block


Stmt = Union[Block, LocalDecl, ExprStmt, If, While, For, Return, Throw, Try]


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

VISIBILITY_MODIFIERS = frozenset({"public", "protected", "private"})


class MemberDecl(Node):
    __slots__ = ("kind", "name", "modifiers", "location", "type_ref", "params",
                 "throws_refs", "field_init", "body")

    def __init__(
        self,
        kind: SymbolKind,  # METHOD, CONSTRUCTOR or FIELD
        name: str,
        modifiers: set[str],
        location: Location,
        type_ref: Optional[TypeRef],  # a field's type, a method's result type, or None
        params: list[Param],  # empty for a field
        throws_refs: list[TypeRef],
        field_init: Optional[Expr],
        body: Optional[Block],  # None for a field and an abstract method
    ) -> None:
        self.kind = kind
        self.name = name
        self.modifiers = modifiers
        self.location = location
        self.type_ref = type_ref
        self.params = params
        self.throws_refs = throws_refs
        self.field_init = field_init
        self.body = body


class TypeDecl(Node):
    __slots__ = ("kind", "simple_name", "modifiers", "type_params", "extends_refs",
                 "implements_refs", "members", "nested", "location")

    def __init__(
        self,
        kind: SymbolKind,  # CLASS or INTERFACE
        simple_name: str,
        modifiers: set[str],
        type_params: list[str],
        extends_refs: list[TypeRef],
        implements_refs: list[TypeRef],
        members: list[MemberDecl],
        nested: list[TypeDecl],
        location: Location,
    ) -> None:
        self.kind = kind
        self.simple_name = simple_name
        self.modifiers = modifiers
        self.type_params = type_params
        self.extends_refs = extends_refs
        self.implements_refs = implements_refs
        self.members = members
        self.nested = nested
        self.location = location


class SourceUnit(Node):
    __slots__ = ("package_name", "imports", "types")

    def __init__(
        self, package_name: str, imports: list[ImportDecl], types: list[TypeDecl]
    ) -> None:
        self.package_name = package_name
        self.imports = imports
        self.types = types
