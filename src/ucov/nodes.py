"""AST node definitions for the J-lite subject language.

All nodes carry the location of their head identifier token (1-based
line/column) so that downstream analyses can report precise use sites.
Nodes compare and hash by identity, so analyses can key tables by node;
``Location`` is a value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

from .uses import Location  # noqa: F401 - a value, defined with the use triples


class TypeKind(Enum):
    CLASS = "Class"
    INTERFACE = "Interface"


class MemberKind(Enum):
    METHOD = "Method"
    CONSTRUCTOR = "Constructor"
    FIELD = "Field"


@dataclass(eq=False)
class TypeRef:
    """A possibly-generic, possibly-array type reference such as ``List<String>[]``."""

    name: str  # dotted qualified name as written
    type_args: list["TypeRef"] = field(default_factory=list)
    array_dims: int = 0
    location: Optional[Location] = None


@dataclass(eq=False)
class ImportDecl:
    qname: str
    on_demand: bool
    location: Location


@dataclass(eq=False)
class Param:
    name: str
    type_ref: TypeRef


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Literal:
    value: object
    kind: str  # int, long, float, double, string, char, boolean, null
    location: Location


@dataclass(eq=False)
class Name:
    identifier: str
    location: Location


@dataclass(eq=False)
class This:
    location: Location


@dataclass(eq=False)
class FieldAccess:
    receiver: "Expr"
    name: str
    location: Location  # of the accessed member's identifier


@dataclass(eq=False)
class MethodCall:
    receiver: Optional["Expr"]  # None for bare calls such as f(x)
    name: str
    args: list["Expr"]
    location: Location  # of the method name token


@dataclass(eq=False)
class New:
    type_ref: TypeRef
    args: list["Expr"]
    anon_body: Optional[list["MemberDecl"]]
    location: Location  # of the constructed type's head identifier


@dataclass(eq=False)
class Assign:
    target: "Expr"
    value: "Expr"
    location: Location


@dataclass(eq=False)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"
    location: Location


@dataclass(eq=False)
class Unary:
    op: str
    operand: "Expr"
    location: Location


@dataclass(eq=False)
class Cast:
    type_ref: TypeRef
    expr: "Expr"
    location: Location


@dataclass(eq=False)
class Lambda:
    params: list[Param]  # type_ref.name == "" when the parameter is untyped
    body: Union["Expr", "Block"]
    location: Location


Expr = Union[
    Literal, Name, This, FieldAccess, MethodCall, New, Assign, Binary, Unary, Cast, Lambda
]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Block:
    statements: list["Stmt"]


@dataclass(eq=False)
class LocalDecl:
    type_ref: TypeRef
    name: str
    init: Optional[Expr]
    location: Location


@dataclass(eq=False)
class ExprStmt:
    expr: Expr


@dataclass(eq=False)
class If:
    cond: Expr
    then: "Stmt"
    orelse: Optional["Stmt"]


@dataclass(eq=False)
class While:
    cond: Expr
    body: "Stmt"


@dataclass(eq=False)
class For:
    init: Optional["Stmt"]  # LocalDecl or ExprStmt
    cond: Optional[Expr]
    update: Optional[Expr]
    body: "Stmt"


@dataclass(eq=False)
class Return:
    expr: Optional[Expr]


@dataclass(eq=False)
class Throw:
    expr: Expr


@dataclass(eq=False)
class Catch:
    param_type: TypeRef
    name: str
    body: Block


@dataclass(eq=False)
class Try:
    body: Block
    catches: list[Catch]
    finally_block: Optional[Block]


Stmt = Union[Block, LocalDecl, ExprStmt, If, While, For, Return, Throw, Try]


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

VISIBILITY_MODIFIERS = frozenset({"public", "protected", "private"})


@dataclass(eq=False)
class MemberDecl:
    kind: MemberKind
    name: str
    modifiers: set[str]
    location: Location
    return_type: Optional[TypeRef] = None  # None for void and for non-methods
    is_void: bool = False
    params: list[Param] = field(default_factory=list)
    throws_refs: list[TypeRef] = field(default_factory=list)
    field_type: Optional[TypeRef] = None
    field_init: Optional[Expr] = None
    body: Optional[Block] = None


@dataclass(eq=False)
class TypeDecl:
    kind: TypeKind
    simple_name: str
    modifiers: set[str]
    type_params: list[str]
    extends_refs: list[TypeRef]
    implements_refs: list[TypeRef]
    permits_refs: list[TypeRef]
    members: list[MemberDecl]
    nested: list["TypeDecl"]
    location: Location


@dataclass(eq=False)
class SourceUnit:
    path: str
    package_name: str
    imports: list[ImportDecl]
    types: list[TypeDecl]
