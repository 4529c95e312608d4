"""Recursive-descent parser for J-lite source files.

The grammar covers package/import declarations, class and interface
declarations (with generics, nesting, extends/implements/permits), fields,
methods, constructors, a small statement language, and an expression
language including lambdas, anonymous class bodies, and casts.

Ambiguous constructs (cast vs. parenthesized expression, local declaration
vs. expression statement, lambda vs. parenthesized expression) are handled
by bounded backtracking over the token stream.
"""

from __future__ import annotations

import stat
from pathlib import Path
from typing import Optional, Union

from . import nodes as n
from .errors import ParseError, UcovError
from .lexer import Tokens, _line_starts, _position, tokenize
from .model import SymbolKind
from .uses import Location, new_value

MODIFIER_KEYWORDS = frozenset(
    {"public", "protected", "private", "abstract", "final", "sealed", "static", "default"}
)

_EXPR_START = frozenset(
    {"IDENT", "INT", "STRING", "CHAR", "true", "false", "null", "this", "new", "(", "!", "~"}
)

# The kind of a literal by its token type; numbers are typed by
# ``_number_kind``.
_LITERAL_KINDS = {
    "STRING": "string", "CHAR": "char", "true": "boolean", "false": "boolean", "null": "null",
}

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
# unary operands, type declarations and type arguments. The parser spends
# at most about four stack frames per level (a cast: 4.2) and extraction
# about three (an argument: 2.6). An operand that ends a chain of rising
# operator precedence (``a || b && ... * (...)``) costs the most: about
# eight frames per level to parse and nine to extract. So the deepest
# accepted file parses and extracts within Python's default recursion
# limit; a deeper file is a ParseError, which lenient mode skips.
# Receiver chains (``a.b().c()``) and operator chains (``a + b + c``) are
# not nesting: they are built and walked iteratively at any length.
MAX_NESTING = 80


class _TooDeep(ParseError):
    """Nesting beyond MAX_NESTING. Backtracking does not retry it: the
    other reading nests as deep, and retrying at every enclosing level
    could take exponential time."""


class _Parser:
    """A token is known by its index ``i``: its type is ``types[i]`` and its
    text ``values[i]``. ``pos`` is the index of the next token; ``advance``,
    ``accept`` and ``expect`` never move past the EOF token, which no rule
    expects."""

    def __init__(self, tokens: Tokens, path: str):
        self.tokens = tokens
        self.types = [*tokens.types, "EOF"]  # a second EOF to look one past the end
        self.values = tokens.values
        self.pos = 0
        self.path = path
        self.depth = 0

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

    def error(self, msg: str, i: Optional[int] = None) -> ParseError:
        return ParseError(msg, self.path, *self.tokens.position(self.pos if i is None else i))

    def loc(self, i: int) -> Location:
        return new_value(Location, (self.path, *self.tokens.position(i)))

    def enter(self) -> None:
        """Open one nesting level; the caller closes it with ``depth -= 1``.
        A ParseError leaves levels open, so backtracking restores ``depth``
        with ``pos`` (see ``mark``)."""
        if self.depth >= MAX_NESTING:
            raise _TooDeep(
                f"nesting deeper than {MAX_NESTING} levels", self.path,
                *self.tokens.position(self.pos),
            )
        self.depth += 1

    def mark(self) -> tuple[int, int]:
        return self.pos, self.depth

    def reset(self, mark: tuple[int, int]) -> None:
        self.pos, self.depth = mark

    # -- unit -------------------------------------------------------------

    def parse_unit(self) -> n.SourceUnit:
        package_name = ""
        if self.accept("package"):
            package_name = self.parse_qname()
            self.expect(";")
        imports = []
        while self.accept("import"):
            parts = [self.values[self.expect("IDENT")]]
            on_demand = False
            while self.accept("."):
                if self.accept("*"):
                    on_demand = True
                    break
                parts.append(self.values[self.expect("IDENT")])
            self.expect(";")
            imports.append(n.ImportDecl(".".join(parts), on_demand))
        types = []
        while not self.at("EOF"):
            types.append(self.parse_type_decl())
        return n.SourceUnit(package_name, imports, types)

    def parse_qname(self) -> str:
        parts = [self.values[self.expect("IDENT")]]
        while self.at(".") and self.types[self.pos + 1] == "IDENT":
            self.advance()
            parts.append(self.values[self.advance()])
        return ".".join(parts)

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
        if self.at("class"):
            kind = SymbolKind.CLASS
            self.advance()
        elif self.at("interface"):
            kind = SymbolKind.INTERFACE
            self.advance()
        else:
            raise self.error("expected 'class' or 'interface'")
        name_tok = self.expect("IDENT")
        type_params: list[str] = []
        if self.accept("<"):
            type_params.append(self.values[self.expect("IDENT")])
            while self.accept(","):
                type_params.append(self.values[self.expect("IDENT")])
            self.expect(">")
        extends_refs = self.parse_ref_list("extends")
        implements_refs = self.parse_ref_list("implements")
        self.parse_ref_list("permits")  # parsed for its syntax; no phase reads it
        self.expect("{")
        members: list[n.MemberDecl] = []
        nested: list[n.TypeDecl] = []
        while not self.at("}"):
            member_mods = self.parse_modifiers()
            if self.at("class") or self.at("interface"):
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
        refs: list[n.TypeRef] = []
        if self.accept(keyword):
            refs.append(self.parse_type_ref())
            while self.accept(","):
                refs.append(self.parse_type_ref())
        return refs

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
            if self.accept("="):
                init = self.parse_expr()
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
        params: list[n.Param] = []
        if not self.at(")"):
            params.append(self.parse_param())
            while self.accept(","):
                params.append(self.parse_param())
        self.expect(")")
        return params

    def parse_param(self) -> n.Param:
        type_ref = self.parse_type_ref()
        return n.Param(self.values[self.expect("IDENT")], type_ref)

    def parse_type_ref(self) -> n.TypeRef:
        head = self.pos
        if self.types[head] != "IDENT":
            raise self.error("expected type name")
        name = self.parse_qname()
        type_args: list[n.TypeRef] = []
        if self.at("<"):
            save = self.mark()
            self.advance()
            try:
                self.enter()
                if not self.at(">"):  # <> diamond
                    type_args.append(self.parse_type_ref())
                    while self.accept(","):
                        type_args.append(self.parse_type_ref())
                self.expect(">")
                self.depth -= 1
            except _TooDeep:
                raise
            except ParseError:
                self.reset(save)
                type_args = []
        dims = 0
        while self.at("[") and self.types[self.pos + 1] == "]":
            self.advance()
            self.advance()
            dims += 1
        return n.TypeRef(name, type_args, dims, self.loc(head))

    # -- statements ---------------------------------------------------------

    def parse_block(self) -> n.Block:
        self.expect("{")
        stmts: list[n.Stmt] = []
        while not self.at("}"):
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
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self.parse_stmt()
            orelse = self.parse_stmt() if self.accept("else") else None
            return n.If(cond, then, orelse)
        if t == "while":
            self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            return n.While(cond, self.parse_stmt())
        if t == "for":
            self.advance()
            self.expect("(")
            init = None
            if not self.at(";"):
                init = self.parse_local_or_expr_stmt()
            else:
                self.advance()
            cond = None
            if not self.at(";"):
                cond = self.parse_expr()
            self.expect(";")
            update = None
            if not self.at(")"):
                update = self.parse_expr()
            self.expect(")")
            return n.For(init, cond, update, self.parse_stmt())
        if t == "return":
            self.advance()
            expr = None
            if not self.at(";"):
                expr = self.parse_expr()
            self.expect(";")
            return n.Return(expr)
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
                cname = self.values[self.expect("IDENT")]
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
        save = self.mark()
        if self.at("IDENT"):
            try:
                type_ref = self.parse_type_ref()
                name_tok = self.expect("IDENT")
                init = None
                if self.accept("="):
                    init = self.parse_expr()
                self.expect(";")
                return n.LocalDecl(type_ref, self.values[name_tok], init)
            except _TooDeep:
                raise
            except ParseError:
                self.reset(save)
        expr = self.parse_expr()
        self.expect(";")
        return n.ExprStmt(expr)

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> n.Expr:
        self.enter()
        expr = self.parse_assignment()
        self.depth -= 1
        return expr

    def parse_assignment(self) -> n.Expr:
        left = self.parse_binary()
        if self.accept("="):
            right = self.parse_expr()  # right-associative, one level deeper
            return n.Assign(left, right)
        return left

    def parse_binary(self, min_precedence: int = 1) -> n.Expr:
        """Precedence climbing: a right operand binds only operators that
        bind tighter than its own, so recursion is at most one call per
        precedence level however long the chain."""
        left = self.parse_unary()
        while (precedence := _PRECEDENCE.get(self.types[self.pos], 0)) >= min_precedence:
            op = self.types[self.advance()]
            left = n.Binary(op, left, self.parse_binary(precedence + 1))
        return left

    def parse_unary(self) -> n.Expr:
        self.enter()
        t = self.types[self.pos]
        if t in ("!", "~", "-", "+", "++", "--"):
            self.advance()
            expr: n.Expr = n.Unary(t, self.parse_unary())
        else:
            expr = self.parse_postfix()
        self.depth -= 1
        return expr

    def parse_postfix(self) -> n.Expr:
        expr = self.parse_primary()
        while True:
            if self.at(".") and self.types[self.pos + 1] == "IDENT":
                self.advance()
                name_tok = self.advance()
                name = self.values[name_tok]
                if self.at("("):
                    args = self.parse_args()
                    expr = n.MethodCall(expr, name, args, self.loc(name_tok))
                else:
                    expr = n.FieldAccess(expr, name, self.loc(name_tok))
            elif self.at("++") or self.at("--"):
                expr = n.Unary("post" + self.types[self.advance()], expr)
            else:
                return expr

    def parse_args(self) -> list[n.Expr]:
        self.expect("(")
        args: list[n.Expr] = []
        if not self.at(")"):
            args.append(self.parse_expr())
            while self.accept(","):
                args.append(self.parse_expr())
        self.expect(")")
        return args

    def parse_primary(self) -> n.Expr:
        tok = self.pos
        t, value = self.types[tok], self.values[tok]
        if t == "INT":
            self.advance()
            return n.Literal(value, _number_kind(value))
        kind = _LITERAL_KINDS.get(t)
        if kind is not None:
            self.advance()
            return n.Literal(value, kind)
        if t == "this":
            self.advance()
            return n.This()
        if t == "new":
            return self.parse_new()
        if t == "(":
            lam = self.try_parse_lambda()
            if lam is not None:
                return lam
            cast = self.try_parse_cast()
            if cast is not None:
                return cast
            self.advance()
            expr = self.parse_expr()
            self.expect(")")
            return expr
        if t == "IDENT":
            self.advance()
            if self.at("("):
                return n.MethodCall(None, value, self.parse_args(), self.loc(tok))
            return n.Name(value, self.loc(tok))
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
        params: list[n.Param] = []
        if not self.at(")"):
            params.append(self.parse_lambda_param())
            while self.accept(","):
                params.append(self.parse_lambda_param())
        self.expect(")")
        self.expect("->")
        body: object
        if self.at("{"):
            body = self.parse_block()
        else:
            body = self.parse_expr()
        return n.Lambda(params, body, self.loc(head))

    def parse_lambda_param(self) -> n.Param:
        # Typed form: `Type name`; untyped form: bare identifier.
        if self.at("IDENT") and self.types[self.pos + 1] in (",", ")"):
            tok = self.advance()
            return n.Param(self.values[tok], n.TypeRef("", [], 0, self.loc(tok)))
        return self.parse_param()

    def try_parse_cast(self) -> Optional[n.Expr]:
        save = self.mark()
        self.advance()  # '('
        try:
            type_ref = self.parse_type_ref()
            self.expect(")")
        except _TooDeep:
            raise
        except ParseError:
            self.reset(save)
            return None
        if self.types[self.pos] not in _EXPR_START:
            self.reset(save)
            return None
        operand = self.parse_unary()
        return n.Cast(type_ref, operand)


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
    return parser.parse_unit()


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
