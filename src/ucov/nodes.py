"""AST node definitions for the J-lite subject language.

A node carries a ``location`` (the file and the 1-based line and column
of its head token) only where extraction can report a use site or a
diagnostic there: ``TypeRef``, ``Name``, ``FieldAccess``, ``MethodCall``
(its name token), ``Lambda`` (its opening parenthesis, or the parameter
of a bare ``x -> ...``), ``MemberDecl`` and ``TypeDecl`` (their names). A
``New`` is located at its ``type_ref``, and a ``Location`` holds its
file, so a ``SourceUnit`` holds no path. A node holds no field that
repeats another, and no field that no later phase reads: a member's one
``type_ref`` is a field's type or a method's result type, so a method is
void exactly when it is None, and a type's ``permits`` clause is parsed
but not kept.

Nodes are plain classes with ``__slots__`` that compare and hash by
identity, so analyses can key tables by node; ``Location`` is a value.
A node class lists its fields once, in its ``__slots__``, and ``Node``
gives it the constructor that takes them in slot order, positionally or
by name, and only assigns them; a class with no fields keeps
``object.__init__``. A declaration's kind is a ``ucov.model.SymbolKind``,
the one kind of the parser, the symbol table and the usage model.
"""

from __future__ import annotations

import functools
from types import CodeType, FunctionType
from typing import Union

from .uses import Location


class Node:
    """The base of every node: a node's fields are its class's ``__slots__``.
    A node can be weakly referenced, so a caller can see it freed."""

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls) -> None:
        """Give ``cls`` the constructor ``__init__(self, <slots>)``, filed as
        ``<ucov.nodes.Class>`` so that profiles and tracebacks tell it apart."""
        fields = cls.__slots__
        if fields:
            code = _assigning_code(len(fields)).replace(
                co_filename=f"<{__name__}.{cls.__name__}>", co_names=fields,
                co_varnames=("self", *fields))
            init = cls.__init__ = FunctionType(code, globals())
            init.__qualname__ = f"{cls.__name__}.__init__"

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


@functools.cache
def _assigning_code(arity: int) -> CodeType:
    """The code of ``__init__(self, f0, f1, ...)`` that assigns ``self.f0 =
    f0`` and so on, compiled once per arity: a class renames its names."""
    fields = [f"f{i}" for i in range(arity)]
    assigns = "".join(f"\n    self.{name} = {name}" for name in fields)
    namespace: dict = {}
    exec(f"def __init__(self, {', '.join(fields)}):{assigns}\n", namespace)
    return namespace["__init__"].__code__


class TypeRef(Node):
    """A possibly-generic, possibly-array type reference such as ``List<String>[]``."""

    __slots__ = ("name", "type_args", "array_dims", "location")  # name: dotted, as written


class ImportDecl(Node):
    __slots__ = ("qname", "on_demand")


class Param(Node):
    __slots__ = ("name", "type_ref")


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Literal(Node):
    __slots__ = ("value",  # the token's text, a string's or char's without its quotes
                 "kind")  # int, long, float, double, string, char, boolean, null


class Name(Node):
    __slots__ = ("identifier", "location")


class This(Node):
    __slots__ = ()


class FieldAccess(Node):
    __slots__ = ("receiver", "name", "location")  # location: of the member's identifier


class MethodCall(Node):
    __slots__ = ("receiver",  # None for bare calls such as f(x)
                 "name", "args",
                 "location")  # of the method name token


class New(Node):
    __slots__ = ("type_ref", "args", "anon_body")  # anon_body: None without a class body


class Assign(Node):
    __slots__ = ("target", "value")


class Binary(Node):
    __slots__ = ("op", "left", "right")


class Unary(Node):
    __slots__ = ("op", "operand")


class Cast(Node):
    __slots__ = ("type_ref", "expr")


class Lambda(Node):
    __slots__ = ("params",  # type_ref.name == "" when the parameter is untyped
                 "body", "location")  # body: an Expr or a Block


Expr = Union[
    Literal, Name, This, FieldAccess, MethodCall, New, Assign, Binary, Unary, Cast, Lambda
]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Block(Node):
    __slots__ = ("statements",)


class LocalDecl(Node):
    __slots__ = ("type_ref", "name", "init")  # init: None without an initializer


class ExprStmt(Node):
    __slots__ = ("expr",)


class If(Node):
    __slots__ = ("cond", "then", "orelse")  # orelse: None without an else branch


class While(Node):
    __slots__ = ("cond", "body")


class For(Node):
    __slots__ = ("init",  # a LocalDecl, an ExprStmt or None
                 "cond", "update", "body")  # cond, update: an Expr or None


class Return(Node):
    __slots__ = ("expr",)  # None for a bare return


class Throw(Node):
    __slots__ = ("expr",)


class Catch(Node):
    __slots__ = ("param_type", "name", "body")


class Try(Node):
    __slots__ = ("body", "catches", "finally_block")  # finally_block: None without one


Stmt = Union[Block, LocalDecl, ExprStmt, If, While, For, Return, Throw, Try]


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

VISIBILITY_MODIFIERS = frozenset({"public", "protected", "private"})


class MemberDecl(Node):
    __slots__ = ("kind",  # METHOD, CONSTRUCTOR or FIELD
                 "name", "modifiers", "location",
                 "type_ref",  # a field's type, a method's result type, or None
                 "params",  # empty for a field
                 "throws_refs",
                 "field_init",  # a field's initializer, or None
                 "body")  # None for a field and an abstract method


class TypeDecl(Node):
    __slots__ = ("kind",  # CLASS or INTERFACE
                 "simple_name", "modifiers",
                 "type_params",  # the names of its type parameters
                 "extends_refs", "implements_refs", "members",
                 "nested", "location")  # nested: its member types


class SourceUnit(Node):
    __slots__ = ("package_name",  # "" in the default package
                 "imports", "types")
