"""Recursive-descent parser for J-lite source files.

The grammar covers package/import declarations, class and interface
declarations (with generics, nesting, extends/implements/permits), fields,
methods, constructors, a small statement language, and an expression
language including lambdas, anonymous class bodies, and casts.

Each repeated grammar shape is one method: a comma-separated list
(``comma_list``), a list before a closing token (``enclosed``), a
parenthesized expression (``condition``) and an optional expression before
a closing token (``optional_expr``). Three readings are tried and, when
they fail, backtracked through ``attempt``, the one backtracking point:
type arguments against a ``<`` operator, a local declaration against an
expression statement, and a cast against a parenthesized expression. A
lambda is told from a parenthesized expression by the ``->`` after the
matching ``)``, and a bare ``x -> ...`` from a name by the ``->`` after it.

A reading that cannot continue raises a ``_Failure``: the index of the
token where it stopped and why. A file that does not parse is blamed on
the reading that got furthest, the last one tried among equals, and only
that failure is placed at a line and column, as the ParseError.
"""

from __future__ import annotations

import stat
from bisect import bisect_right
from pathlib import Path
from typing import Callable, Optional, TypeVar, Union

from . import nodes as n
from .errors import ParseError, UcovError
from .lexer import Tokens, _line_starts, _position, tokenize
from .model import SymbolKind
from .uses import Location, new_value

MODIFIER_KEYWORDS = frozenset(
    {"public", "protected", "private", "abstract", "final", "sealed", "static", "default"}
)

_TYPE_KEYWORDS = {"class": SymbolKind.CLASS, "interface": SymbolKind.INTERFACE}

# The tokens that can follow a local declaration's type name: its own name,
# type arguments or array dimensions.
_TYPE_REF_GOES_ON = frozenset({"IDENT", "<", "["})

_EXPR_START = frozenset(
    {"IDENT", "INT", "STRING", "CHAR", "true", "false", "null", "this", "new", "(", "!", "~"}
)

# The kind of a literal by its token type; numbers are typed by
# ``_number_kind``.
_LITERAL_KINDS = {
    "STRING": "string", "CHAR": "char", "true": "boolean", "false": "boolean", "null": "null",
}

_PREFIX_OPS = frozenset({"!", "~", "-", "+", "++", "--"})

# Binary operators, all left-associative, by precedence: a larger number
# binds tighter.
_PRECEDENCE = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "+": 8, "-": 8,
    "*": 9, "/": 9, "%": 9,
}

# Deepest nesting the parser accepts, counted over statements, expressions,
# unary operands, type declarations and type arguments. Measured on the
# deepest accepted file of each construct, the parser spends at most about
# five stack frames per level (type arguments: 5.0; a cast: 2.0) and
# extraction under three (an anonymous class: 2.4). An operand that ends a
# chain of rising operator precedence (``a || b && ... * (...)``) costs the
# most: about seven frames per level to parse and nine to extract. So the
# deepest accepted file parses and extracts within Python's default
# recursion limit; a deeper file is a ParseError, which lenient mode skips.
# Receiver chains (``a.b().c()``) and operator chains (``a + b + c``) are
# not nesting: they are built and walked iteratively at any length.
MAX_NESTING = 80


_T = TypeVar("_T")


class _TooDeep(ParseError):
    """Nesting beyond MAX_NESTING. Backtracking does not retry it: the
    other reading nests as deep, and retrying at every enclosing level
    could take exponential time."""


class _Failure(Exception):
    """A reading that cannot continue at token ``index``, for ``reason``."""

    def __init__(self, index: int, reason: str) -> None:
        self.index = index
        self.reason = reason


class _Parser:
    """A token is known by its index ``i``: its type is ``types[i]`` and its
    text ``values[i]``. ``pos`` is the index of the next token; ``advance``,
    ``accept`` and ``expect`` never move past the EOF token, which no rule
    expects."""

    def __init__(self, tokens: Tokens, path: str):
        self.tokens = tokens
        self.types = [*tokens.types, "EOF"]  # a second EOF to look one past the end
        self.values = tokens.values
        self.starts = tokens.starts
        self.line_starts = tokens.line_starts
        self.pos = 0
        self.path = path
        self.depth = 0
        # The failure of a backtracked reading that got furthest, if any.
        self.furthest: Optional[_Failure] = None

    # -- token helpers ----------------------------------------------------

    def at(self, ttype: str) -> bool:
        return self.types[self.pos] == ttype

    def advance(self) -> int:
        i = self.pos
        if self.types[i] != "EOF":
            self.pos = i + 1
        return i

    def accept(self, ttype: str) -> bool:
        if self.types[self.pos] == ttype:
            self.pos += 1
            return True
        return False

    def expect(self, ttype: str) -> int:
        i = self.pos
        if self.types[i] == ttype:
            self.pos = i + 1
            return i
        raise self.error(f"expected {ttype!r}, found {self.values[i]!r}", i)

    def error(self, msg: str, i: Optional[int] = None) -> _Failure:
        return _Failure(self.pos if i is None else i, msg)

    def blame(self, failure: _Failure) -> ParseError:
        """The ParseError of a file whose parse ends in ``failure``: that of
        the furthest failure, ``failure`` itself among equals."""
        furthest = self.furthest
        if furthest is not None and furthest.index > failure.index:
            failure = furthest
        return ParseError(failure.reason, self.path, *self.tokens.position(failure.index))

    def loc(self, i: int) -> Location:
        offset = self.starts[i]
        line = bisect_right(self.line_starts, offset)
        return new_value(Location, (self.path, line, offset - self.line_starts[line - 1] + 1))

    def enter(self) -> None:
        """Open one nesting level; the caller closes it with ``depth -= 1``.
        A failure leaves levels open, so ``attempt`` restores ``depth``
        with ``pos``."""
        if self.depth >= MAX_NESTING:
            raise _TooDeep(
                f"nesting deeper than {MAX_NESTING} levels", self.path,
                *self.tokens.position(self.pos),
            )
        self.depth += 1

    def ident(self) -> str:
        return self.values[self.expect("IDENT")]

    # -- grammar shapes -----------------------------------------------------

    def comma_list(self, item: Callable[[], _T]) -> list[_T]:
        """One or more ``item``s separated by commas."""
        items = [item()]
        while self.accept(","):
            items.append(item())
        return items

    def enclosed(self, item: Callable[[], _T], close: str) -> list[_T]:
        """Zero or more comma-separated ``item``s, then ``close``."""
        items = [] if self.at(close) else self.comma_list(item)
        self.expect(close)
        return items

    def condition(self) -> n.Expr:
        """``(``, an expression, which may not be left out, and ``)``."""
        self.expect("(")
        expr = self.parse_expr()
        self.expect(")")
        return expr

    def optional_expr(self, close: str) -> Optional[n.Expr]:
        """An expression unless the next token is ``close``, then ``close``."""
        expr = None if self.at(close) else self.parse_expr()
        self.expect(close)
        return expr

    def attempt(self, rule: Callable[[], Optional[_T]]) -> Optional[_T]:
        """``rule()``, or None with ``pos`` and ``depth`` restored when the
        rule fails or answers None. This is the parser's one backtracking
        point. It keeps the failure that got furthest, the later among
        equals, and it never retries ``_TooDeep``, which is no failure. A
        rule answers None only where the reading tried next gets at least
        as far as its failure would have."""
        pos, depth = self.pos, self.depth
        try:
            result = rule()
        except _Failure as failure:
            furthest = self.furthest
            if furthest is None or failure.index >= furthest.index:
                self.furthest = failure
            result = None
        if result is None:
            self.pos, self.depth = pos, depth
        return result

    # -- unit -------------------------------------------------------------

    def parse_unit(self) -> n.SourceUnit:
        package_name = ""
        if self.accept("package"):
            package_name = self.parse_qname()
            self.expect(";")
        imports = []
        while self.accept("import"):
            parts = [self.ident()]
            on_demand = False
            while self.accept("."):
                if self.accept("*"):
                    on_demand = True
                    break
                parts.append(self.ident())
            self.expect(";")
            imports.append(n.ImportDecl(".".join(parts), on_demand))
        types = []
        while not self.at("EOF"):
            types.append(self.parse_type_decl())
        return n.SourceUnit(package_name, imports, types)

    def parse_qname(self) -> str:
        head = i = self.expect("IDENT")
        types = self.types
        while types[i + 1] == "." and types[i + 2] == "IDENT":
            i += 2
        self.pos = i + 1
        return self.values[i] if i == head else "".join(self.values[head:i + 1])

    # -- declarations -----------------------------------------------------

    def parse_modifiers(self) -> set[str]:
        mods: set[str] = set()
        while True:
            t = self.types[self.pos]
            if t in MODIFIER_KEYWORDS:
                self.advance()
                mods.add(t)
            elif t == "@":
                # Marker annotations (e.g. @Override) are lexed and discarded.
                self.advance()
                self.expect("IDENT")
            else:
                return mods

    def parse_type_decl(self, mods: Optional[set[str]] = None) -> n.TypeDecl:
        self.enter()
        if mods is None:
            mods = self.parse_modifiers()
        kind = _TYPE_KEYWORDS.get(self.types[self.pos])
        if kind is None:
            raise self.error("expected 'class' or 'interface'")
        self.advance()
        name_tok = self.expect("IDENT")
        type_params: list[str] = []
        if self.accept("<"):
            type_params = self.comma_list(self.ident)
            self.expect(">")
        extends_refs = self.parse_ref_list("extends")
        implements_refs = self.parse_ref_list("implements")
        self.parse_ref_list("permits")  # parsed for its syntax; no phase reads it
        self.expect("{")
        members: list[n.MemberDecl] = []
        nested: list[n.TypeDecl] = []
        while not self.at("}"):
            member_mods = self.parse_modifiers()
            if self.types[self.pos] in _TYPE_KEYWORDS:
                nested.append(self.parse_type_decl(member_mods))
            else:
                members.append(self.parse_member(member_mods, self.values[name_tok]))
        self.expect("}")
        self.depth -= 1
        return n.TypeDecl(
            kind=kind,
            simple_name=self.values[name_tok],
            modifiers=mods,
            type_params=type_params,
            extends_refs=extends_refs,
            implements_refs=implements_refs,
            members=members,
            nested=nested,
            location=self.loc(name_tok),
        )

    def parse_ref_list(self, keyword: str) -> list[n.TypeRef]:
        return self.comma_list(self.parse_type_ref) if self.accept(keyword) else []

    def parse_member(self, mods: set[str], enclosing_name: str) -> n.MemberDecl:
        # Constructor: the enclosing type's simple name immediately followed by '('.
        is_ctor = (
            self.at("IDENT")
            and self.values[self.pos] == enclosing_name
            and self.types[self.pos + 1] == "("
        )
        is_void = not is_ctor and self.accept("void")
        type_ref = None if is_ctor or is_void else self.parse_type_ref()
        name_tok = self.expect("IDENT")
        params: list[n.Param] = []
        throws: list[n.TypeRef] = []
        init = body = None
        if is_ctor or self.at("("):
            kind = SymbolKind.CONSTRUCTOR if is_ctor else SymbolKind.METHOD
            params = self.parse_params()
            throws = self.parse_ref_list("throws")
            if is_ctor or not self.accept(";"):
                body = self.parse_block()
        elif is_void:
            raise self.error("field cannot have type void", name_tok)
        else:
            kind = SymbolKind.FIELD
            init = self.parse_expr() if self.accept("=") else None
            self.expect(";")
        return n.MemberDecl(
            kind=kind,
            name=self.values[name_tok],
            modifiers=mods,
            location=self.loc(name_tok),
            type_ref=type_ref,
            params=params,
            throws_refs=throws,
            field_init=init,
            body=body,
        )

    def parse_params(self) -> list[n.Param]:
        self.expect("(")
        return self.enclosed(self.parse_param, ")")

    def parse_param(self) -> n.Param:
        type_ref = self.parse_type_ref()
        return n.Param(self.ident(), type_ref)

    def parse_type_ref(self) -> n.TypeRef:
        head = self.pos
        if self.types[head] != "IDENT":
            raise self.error("expected type name")
        name = self.parse_qname()
        types = self.types
        type_args = self.attempt(self.parse_type_args) if types[self.pos] == "<" else None
        dims = 0
        while types[self.pos] == "[" and types[self.pos + 1] == "]":
            self.pos += 2
            dims += 1
        return n.TypeRef(name, type_args or [], dims, self.loc(head))

    def parse_type_args(self) -> list[n.TypeRef]:
        """``<`` type references ``>``; none between them is the diamond."""
        self.advance()  # '<'
        self.enter()
        type_args = self.enclosed(self.parse_type_ref, ">")
        self.depth -= 1
        return type_args

    # -- statements ---------------------------------------------------------

    def parse_block(self) -> n.Block:
        self.expect("{")
        stmts: list[n.Stmt] = []
        types = self.types
        while types[self.pos] != "}":
            stmts.append(self.parse_stmt())
        self.expect("}")
        return n.Block(stmts)

    def parse_stmt(self) -> n.Stmt:
        self.enter()
        stmt = self._parse_stmt()
        self.depth -= 1
        return stmt

    def _parse_stmt(self) -> n.Stmt:
        t = self.types[self.pos]
        if t == "{":
            return self.parse_block()
        if t == "if":
            self.advance()
            cond = self.condition()
            then = self.parse_stmt()
            orelse = self.parse_stmt() if self.accept("else") else None
            return n.If(cond, then, orelse)
        if t == "while":
            self.advance()
            return n.While(self.condition(), self.parse_stmt())
        if t == "for":
            self.advance()
            self.expect("(")
            init = None if self.accept(";") else self.parse_local_or_expr_stmt()
            cond = self.optional_expr(";")
            update = self.optional_expr(")")
            return n.For(init, cond, update, self.parse_stmt())
        if t == "return":
            self.advance()
            return n.Return(self.optional_expr(";"))
        if t == "throw":
            self.advance()
            expr = self.parse_expr()
            self.expect(";")
            return n.Throw(expr)
        if t == "try":
            self.advance()
            body = self.parse_block()
            catches: list[n.Catch] = []
            while self.at("catch"):
                self.advance()
                self.expect("(")
                ctype = self.parse_type_ref()
                cname = self.ident()
                self.expect(")")
                catches.append(n.Catch(ctype, cname, self.parse_block()))
            finally_block = None
            if self.accept("finally"):
                finally_block = self.parse_block()
            if not catches and finally_block is None:
                raise self.error("try requires catch or finally")
            return n.Try(body, catches, finally_block)
        return self.parse_local_or_expr_stmt()

    def parse_local_or_expr_stmt(self) -> n.Stmt:
        decl = self.attempt(self.parse_local_decl)
        if decl is not None:
            return decl
        expr = self.parse_expr()
        self.expect(";")
        return n.ExprStmt(expr)

    def parse_local_decl(self) -> Optional[n.LocalDecl]:
        """A local declaration, or None where it cannot continue after a
        type name of dotted identifiers alone: the expression statement
        reads those too, so it gets at least as far."""
        head = self.pos
        if self.types[head] != "IDENT":
            return None
        self.parse_qname()
        if self.types[self.pos] not in _TYPE_REF_GOES_ON:
            return None
        self.pos = head
        type_ref = self.parse_type_ref()
        name = self.ident()
        init = self.parse_expr() if self.accept("=") else None
        self.expect(";")
        return n.LocalDecl(type_ref, name, init)

    # -- expressions ----------------------------------------------------------

    # The expression rules read each token's type once, and move ``pos``
    # past a token they have read themselves: it is never EOF.

    def parse_expr(self) -> n.Expr:
        self.enter()
        expr = self.parse_binary()
        if self.types[self.pos] == "=":
            self.pos += 1
            expr = n.Assign(expr, self.parse_expr())  # one level deeper
        self.depth -= 1
        return expr

    def parse_binary(self, min_precedence: int = 1) -> n.Expr:
        """Precedence climbing: a right operand binds only operators that
        bind tighter than its own, so recursion is at most one call per
        precedence level however long the chain."""
        left = self.parse_unary()
        types = self.types
        while (precedence := _PRECEDENCE.get(op := types[self.pos], 0)) >= min_precedence:
            self.pos += 1
            left = n.Binary(op, left, self.parse_binary(precedence + 1))
        return left

    def parse_unary(self) -> n.Expr:
        self.enter()
        t = self.types[self.pos]
        if t in _PREFIX_OPS:
            self.pos += 1
            expr: n.Expr = n.Unary(t, self.parse_unary())
        else:
            expr = self.parse_postfix(self.parse_primary(t))
        self.depth -= 1
        return expr

    def parse_postfix(self, expr: n.Expr) -> n.Expr:
        types = self.types
        while True:
            i = self.pos
            t = types[i]
            if t == "." and types[i + 1] == "IDENT":
                self.pos = i + 2
                name = self.values[i + 1]
                if types[i + 2] == "(":
                    expr = n.MethodCall(expr, name, self.parse_args(), self.loc(i + 1))
                else:
                    expr = n.FieldAccess(expr, name, self.loc(i + 1))
            elif t == "++" or t == "--":
                self.pos = i + 1
                expr = n.Unary("post" + t, expr)
            else:
                return expr

    def parse_args(self) -> list[n.Expr]:
        self.expect("(")
        return self.enclosed(self.parse_expr, ")")

    def parse_primary(self, t: str) -> n.Expr:
        """The operand at ``pos``, whose token type is ``t``."""
        tok = self.pos
        value = self.values[tok]
        if t == "IDENT":
            self.pos = tok + 1
            after = self.types[tok + 1]
            if after == "(":
                return n.MethodCall(None, value, self.parse_args(), self.loc(tok))
            if after == "->":  # a bare `x -> ...` lambda
                return self.parse_lambda_body([self.untyped_param(tok)], tok)
            return n.Name(value, self.loc(tok))
        if t == "INT":
            self.pos = tok + 1
            return n.Literal(value, _number_kind(value))
        kind = _LITERAL_KINDS.get(t)
        if kind is not None:
            self.pos = tok + 1
            return n.Literal(value, kind)
        if t == "this":
            self.pos = tok + 1
            return n.This()
        if t == "new":
            return self.parse_new()
        if t == "(":
            lam = self.try_parse_lambda()
            if lam is not None:
                return lam
            type_ref = self.attempt(self.parse_cast_type)
            if type_ref is not None:
                return n.Cast(type_ref, self.parse_unary())
            return self.condition()
        raise self.error(f"unexpected token {value!r} in expression", tok)

    def parse_new(self) -> n.Expr:
        self.expect("new")
        type_ref = self.parse_type_ref()
        args = self.parse_args()
        anon_body: Optional[list[n.MemberDecl]] = None
        if self.at("{"):
            self.advance()
            anon_body = []
            while not self.at("}"):
                mods = self.parse_modifiers()
                anon_body.append(self.parse_member(mods, type_ref.name.split(".")[-1]))
            self.expect("}")
        return n.New(type_ref, args, anon_body)

    def _scan_matching_paren(self) -> int:
        """Index of the token after the ')' matching the '(' at self.pos, or -1."""
        depth = 0
        types = self.types
        for i in range(self.pos, len(types)):
            t = types[i]
            if t == "(":
                depth += 1
            elif t == ")":
                depth -= 1
                if depth == 0:
                    return i + 1
            elif t in ("EOF", "{", "}", ";"):
                return -1
        return -1

    def try_parse_lambda(self) -> Optional[n.Expr]:
        after = self._scan_matching_paren()
        if after < 0 or self.types[after] != "->":
            return None
        head = self.advance()  # '('
        return self.parse_lambda_body(self.enclosed(self.parse_lambda_param, ")"), head)

    def parse_lambda_body(self, params: list[n.Param], head: int) -> n.Lambda:
        self.expect("->")
        body = self.parse_block() if self.at("{") else self.parse_expr()
        return n.Lambda(params, body, self.loc(head))

    def parse_lambda_param(self) -> n.Param:
        # Typed form: `Type name`; untyped form: bare identifier.
        if self.at("IDENT") and self.types[self.pos + 1] in (",", ")"):
            return self.untyped_param(self.advance())
        return self.parse_param()

    def untyped_param(self, tok: int) -> n.Param:
        return n.Param(self.values[tok], n.TypeRef("", [], 0, self.loc(tok)))

    def parse_cast_type(self) -> Optional[n.TypeRef]:
        """The type of a cast: ``(`` a type ``)`` followed by an operand."""
        self.advance()  # '('
        type_ref = self.parse_type_ref()
        self.expect(")")
        return type_ref if self.types[self.pos] in _EXPR_START else None


def _number_kind(text: str) -> str:
    """The primitive type of a numeric literal, read off its form in any
    case: an ``L`` suffix makes a long. A hex number is otherwise an int,
    unless it has a ``p`` exponent: then an ``F`` suffix makes a float and
    no suffix a double. Any other number is a float with an ``F`` suffix,
    and a double with a point, an exponent or a ``D`` suffix."""
    text = text.lower()
    if text.endswith("l"):
        return "long"
    if text.startswith("0x"):
        if "p" not in text:  # 'f' and 'd' are hex digits
            return "int"
        return "float" if text.endswith("f") else "double"
    if text.endswith("f"):
        return "float"
    return "double" if text.endswith("d") or "." in text or "e" in text else "int"


def parse_unit(text: str, path: str) -> n.SourceUnit:
    """Parse a single J-lite source file into a SourceUnit.

    Raises ParseError (carrying file/line/column) on any input outside the
    grammar.
    """
    parser = _Parser(tokenize(text, path), path)
    try:
        return parser.parse_unit()
    except _Failure as failure:
        raise parser.blame(failure) from None


def read_unit(path: Path) -> n.SourceUnit:
    """Parse the source file at ``path``. A file that cannot be read is a
    UcovError naming it, one that is not UTF-8 a ParseError at its first
    invalid byte, placed as the lexer places a character there. An entry
    that is not a regular file, such as a FIFO, is never opened: reading
    it could block forever."""
    try:
        if not stat.S_ISREG(path.stat().st_mode):
            raise UcovError(f"cannot read {path}: not a regular file")
        data = path.read_bytes()
    except OSError as exc:
        raise UcovError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start].decode("utf-8")
        message = f"invalid UTF-8 byte 0x{data[exc.start]:02x}"
        raise ParseError(message, str(path), *_position(_line_starts(before), len(before)))
    return parse_unit(text, str(path))


def collect_source_files(roots: list[Union[str, Path]]) -> list[Path]:
    """The files named in ``roots`` and the ``.java`` files under the
    directories among them, each directory's in sorted order."""
    files: list[Path] = []
    for root in roots:
        root = Path(root)
        if root.is_dir():
            files.extend(sorted(p for p in root.rglob("*.java") if not p.is_dir()))
        else:
            files.append(root)
    return files
