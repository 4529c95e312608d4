"""Frontend tests: lexing, parsing, and parse-print-parse stability."""

from __future__ import annotations

import inspect
import weakref

import pytest

from conftest import FIXTURES, parse_tree
from render import render_expr, render_unit
from ucov import ParseError, parse_unit
from ucov import nodes as n
from ucov.model import SymbolKind


def test_all_fixture_sources_parse():
    units = parse_tree(FIXTURES)
    assert len(units) >= 20
    assert all(isinstance(u, n.SourceUnit) for u in units)


def test_package_imports_and_type():
    unit = parse_unit(
        "package a.b;\nimport c.D;\nimport e.*;\npublic class X { }\n", "X.java"
    )
    assert unit.package_name == "a.b"
    assert [(i.qname, i.on_demand) for i in unit.imports] == [("c.D", False), ("e", True)]
    (decl,) = unit.types
    assert decl.simple_name == "X"
    assert decl.kind is SymbolKind.CLASS
    assert decl.modifiers == {"public"}


def test_generic_and_array_type_refs():
    unit = parse_unit(
        "class X { java.util.Map<String, List<Integer>>[] f; }", "X.java"
    )
    f = unit.types[0].members[0]
    assert f.type_ref.name == "java.util.Map"
    assert f.type_ref.array_dims == 1
    assert [a.name for a in f.type_ref.type_args] == ["String", "List"]
    assert f.type_ref.type_args[1].type_args[0].name == "Integer"


def test_nested_generics_close_without_shift_operator():
    unit = parse_unit("class X { List<List<List<A>>> f; }", "X.java")
    ref = unit.types[0].members[0].type_ref
    assert ref.type_args[0].type_args[0].type_args[0].name == "A"


def test_constructor_vs_method():
    unit = parse_unit(
        "class X { X() { } X f() { return null; } }", "X.java"
    )
    kinds = [m.kind for m in unit.types[0].members]
    assert kinds == [SymbolKind.CONSTRUCTOR, SymbolKind.METHOD]


def test_annotations_are_discarded():
    unit = parse_unit(
        "class X { @Override @Deprecated public void f() { } }", "X.java"
    )
    m = unit.types[0].members[0]
    assert m.name == "f"
    assert m.modifiers == {"public"}


def test_cast_vs_parenthesized_expression():
    unit = parse_unit(
        "class X { void f(Object o) { Object a = (String) o; int b = (1 + 2); } }",
        "X.java",
    )
    body = unit.types[0].members[0].body.statements
    assert isinstance(body[0].init, n.Cast)
    assert body[0].init.type_ref.name == "String"
    assert isinstance(body[1].init, n.Binary)


def test_lambda_forms():
    unit = parse_unit(
        "class X { void f() { g(() -> 1); g((x) -> x); g((a, b) -> { return a; }); "
        "g((String s) -> s); g(y -> y); } }",
        "X.java",
    )
    calls = [s.expr for s in unit.types[0].members[0].body.statements]
    lambdas = [c.args[0] for c in calls]
    assert all(isinstance(l, n.Lambda) for l in lambdas)
    assert [len(l.params) for l in lambdas] == [0, 1, 2, 1, 1]
    assert lambdas[1].params[0].type_ref.name == ""
    assert lambdas[3].params[0].type_ref.name == "String"
    assert isinstance(lambdas[2].body, n.Block)
    # A bare parameter is the untyped ``(y) -> y``, located at ``y``.
    bare = lambdas[4]
    assert (bare.params[0].name, bare.params[0].type_ref.name, bare.body.identifier) == (
        "y", "", "y")
    assert bare.location == bare.params[0].type_ref.location == bare.body.location._replace(
        column=bare.body.location.column - 5)


def test_anonymous_class_body():
    unit = parse_unit(
        "class X { void f() { Runnable r = new Runnable() { public void run() { } }; } }",
        "X.java",
    )
    new = unit.types[0].members[0].body.statements[0].init
    assert isinstance(new, n.New)
    assert new.anon_body is not None
    assert new.anon_body[0].name == "run"


def test_statement_forms():
    unit = parse_unit(
        "class X { int f(int k) { "
        "if (k > 0) { k = 1; } else k = 2; "
        "while (k < 9) k = k + 1; "
        "for (int i = 0; i < 3; i = i + 1) { k = k + i; } "
        "try { g(); } catch (E e) { } finally { k = 0; } "
        "throw new E(); } }",
        "X.java",
    )
    body = unit.types[0].members[0].body.statements
    assert [type(s) for s in body] == [n.If, n.While, n.For, n.Try, n.Throw]


@pytest.mark.parametrize(
    "source, tree",
    [
        (
            "a || b && c | d ^ e & f == g < h + i * j",
            "(a || (b && (c | (d ^ (e & (f == (g < (h + (i * j)))))))))",
        ),
        (
            "a * b + c < d == e & f ^ g | h && i || j",
            "(((((((((a * b) + c) < d) == e) & f) ^ g) | h) && i) || j)",
        ),
        ("a - b - c / d % e", "((a - b) - ((c / d) % e))"),
        ("a <= b != c >= d", "((a <= b) != (c >= d))"),
        ("-a * !b + (c + d) * e", "(((-a) * (!b)) + ((c + d) * e))"),
        ("x = y = a + b", "x = y = (a + b)"),
    ],
    ids=["rising", "falling", "left-associative", "comparisons", "unary", "assignment"],
)
def test_binary_operators_bind_by_precedence_and_associate_left(source, tree):
    unit = parse_unit("class X { void f() { " + source + "; } }", "X.java")
    (stmt,) = unit.types[0].members[0].body.statements
    assert render_expr(stmt.expr) == tree


def test_list_and_clause_forms():
    unit = parse_unit(
        "class A<K, V> extends B, C implements D, E { void f() throws F, G { "
        "for (; c; ) i++; i--; } }",
        "A.java",
    )
    (decl,) = unit.types
    assert decl.type_params == ["K", "V"]
    assert [r.name for r in decl.extends_refs + decl.implements_refs] == ["B", "C", "D", "E"]
    (method,) = decl.members
    assert [r.name for r in method.throws_refs] == ["F", "G"]
    loop, decrement = method.body.statements
    assert (loop.init, loop.cond.identifier, loop.update) == (None, "c", None)
    assert render_expr(loop.body.expr) == "(i++)"
    assert render_expr(decrement.expr) == "(i--)"


def body(statements: str) -> str:
    return "class A { void f() { " + statements + " } }"


# The message of a ParseError at each list, condition, optional clause and
# backtracking point: where readings fail, the error is the one of the
# reading that got furthest, and of the reading tried last among equals.
PARSE_ERRORS = {
    "type parameters empty": ("class A<> { }", "1:9: expected 'IDENT', found '>'"),
    "type parameters trailing comma": ("class A<K, > { }", "1:12: expected 'IDENT', found '>'"),
    "type parameters unclosed": ("class A<K V> { }", "1:11: expected '>', found 'V'"),
    "extends empty": ("class A extends { }", "1:17: expected type name"),
    "extends trailing comma": ("interface A extends B, { }", "1:24: expected type name"),
    "implements missing comma": ("class A implements B C { }", "1:22: expected '{', found 'C'"),
    "permits trailing comma": ("class A permits B, { }", "1:20: expected type name"),
    "throws empty": ("class A { void f() throws { } }", "1:27: expected type name"),
    "throws trailing comma": ("class A { void f() throws E, { } }", "1:30: expected type name"),
    "kind keyword": ("public enum A { }", "1:8: expected 'class' or 'interface'"),
    "parameter without name": ("class A { void f(int) { } }", "1:21: expected 'IDENT', found ')'"),
    "parameters trailing comma": ("class A { void f(int a, ) { } }", "1:25: expected type name"),
    "parameters missing comma": ("class A { void f(int a int b) { } }",
        "1:24: expected ')', found 'int'"),
    "arguments trailing comma": (body("g(1, );"), "1:27: unexpected token ')' in expression"),
    "arguments missing comma": (body("g(1 2);"), "1:26: expected ')', found '2'"),
    "arguments unclosed": (body("g(1;"), "1:25: expected ')', found ';'"),
    "lambda parameters trailing comma": (body("g((a, ) -> a);"), "1:28: expected type name"),
    "lambda parameter with two types": (body("g((A B c) -> c);"), "1:29: expected ')', found 'c'"),
    "lambda without body": (body("g((a) -> );"), "1:31: unexpected token ')' in expression"),
    "type arguments trailing comma": (body("List<A, > x = y;"), "1:30: expected type name"),
    "type arguments unclosed": (body("List<A x = y;"), "1:29: expected ';', found 'x'"),
    "if empty condition": (body("if () g();"), "1:26: unexpected token ')' in expression"),
    "if unclosed condition": (body("if (a g();"), "1:28: expected ')', found 'g'"),
    "if without parenthesis": (body("if a) g();"), "1:25: expected '(', found 'a'"),
    "while empty condition": (body("while () g();"), "1:29: unexpected token ')' in expression"),
    "while unclosed condition": (body("while (a g();"), "1:31: expected ')', found 'g'"),
    "for without init separator": (body("for (int i = 0 i < 3; ) { }"),
        "1:37: expected ';', found 'i'"),
    "for without condition separator": (body("for (; i < 3 ) { }"),
        "1:35: expected ';', found ')'"),
    "for unclosed update": (body("for (; ; i++ { }"), "1:35: expected ')', found '{'"),
    "for empty parentheses": (body("for () { }"), "1:27: unexpected token ')' in expression"),
    "return two expressions": (body("return a b;"), "1:31: expected ';', found 'b'"),
    "return unterminated": (body("return a"), "1:31: expected ';', found '}'"),
    "local without initializer": (body("int x = ;"), "1:30: unexpected token ';' in expression"),
    "local with two names": (body("A x y;"), "1:26: expected ';', found 'y'"),
    "expression statement unterminated": (body("a b c;"), "1:26: expected ';', found 'c'"),
    "cast without operand": (body("x = (A) ! ;"), "1:32: unexpected token ';' in expression"),
    "type arguments too deep in a cast": (body("x = (" + "A<" * 90 + "A" + ">" * 90 + ") y;"),
        "1:179: nesting deeper than 80 levels"),
    "cast unclosed type": (body("x = (A<B) y;"), "1:32: expected ';', found 'y'"),
    "parenthesized unclosed": (body("x = (a + b;"), "1:32: expected ')', found ';'"),
    "parenthesized empty": (body("x = ();"), "1:27: unexpected token ')' in expression"),
}


@pytest.mark.parametrize("case", PARSE_ERRORS)
def test_parse_error_message_at_each_grammar_shape(case):
    source, message = PARSE_ERRORS[case]
    with pytest.raises(ParseError) as exc:
        parse_unit(source, "A.java")
    assert str(exc.value) == "A.java:" + message


def test_locations_are_one_based():
    # Locations point at the head identifier token of the declaration.
    unit = parse_unit("class X {\n    int f;\n}\n", "X.java")
    decl = unit.types[0]
    assert (decl.location.line, decl.location.column) == (1, 7)
    assert decl.members[0].location.line == 2


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_unit("class A { void f( }", "A.java")
    assert exc.value.file == "A.java"
    assert exc.value.line == 1
    assert exc.value.column > 0
    assert "A.java" in str(exc.value)


def test_parse_error_on_garbage_and_unterminated_string():
    with pytest.raises(ParseError):
        parse_unit("class A { # }", "A.java")
    with pytest.raises(ParseError):
        parse_unit('class A { String s = "oops; }', "A.java")


@pytest.mark.parametrize(
    "literal, kind",
    [
        ('"a\\\nb"', "string"),
        ("'\n'", "char"),
        ("'\\\n'", "char"),
        ('"a\rb"', "string"),
        ('"a\\\rb"', "string"),
        ("'\r'", "char"),
    ],
    ids=[
        "string-escaped-line-break",
        "char-line-break",
        "char-escaped-line-break",
        "string-carriage-return",
        "string-escaped-carriage-return",
        "char-carriage-return",
    ],
)
def test_line_break_inside_a_literal_is_an_error_at_its_start(literal, kind):
    # Java forbids line terminators in string and char literals; accepting
    # one without counting it would report every later token a line early.
    with pytest.raises(ParseError) as exc:
        parse_unit("class A {\n  Object s = " + literal + ";\n  int x;\n}", "A.java")
    assert exc.value.reason == f"unterminated {kind} literal"
    assert (exc.value.line, exc.value.column) == (2, 14)


def test_tokens_after_escaped_literals_keep_their_lines():
    unit = parse_unit(
        'class A {\n  String s = "q\\"\\\\";\n  char c = \'\\n\';\n  int x;\n}', "A.java"
    )
    assert [m.location.line for m in unit.types[0].members] == [2, 3, 4]


@pytest.mark.parametrize(
    "cls", sorted(n.Node.__subclasses__(), key=lambda c: c.__name__), ids=lambda c: c.__name__
)
def test_a_node_constructor_takes_its_own_slots(cls):
    # A node's constructor takes exactly its class's fields, in slot order,
    # positionally or by name, and only assigns them. Nodes built from the
    # same values stay distinct keys, and a node can be weakly referenced.
    fields = cls.__slots__
    values = [object() for _ in fields]
    by_position = cls(*values)
    by_name = cls(**dict(zip(fields, values)))
    assert [getattr(by_position, f) for f in fields] == values
    assert [getattr(by_name, f) for f in fields] == values
    assert by_position != by_name
    assert hash(by_position) != hash(by_name)
    assert len({by_position: 1, by_name: 2}) == 2
    assert weakref.ref(by_position)() is by_position
    if fields:
        assert list(inspect.signature(cls).parameters) == list(fields)
        assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
    else:
        assert cls.__init__ is object.__init__
        with pytest.raises(TypeError):
            cls(None)


def test_empty_unit_is_valid():
    unit = parse_unit("", "Empty.java")
    assert unit.types == []
    assert unit.package_name == ""


def _strip_locations(node):
    if isinstance(node, n.Node):
        return {
            name: _strip_locations(getattr(node, name))
            for name in node.__slots__
            if name != "location"
        }
    if isinstance(node, (list, tuple)):
        return [_strip_locations(x) for x in node]
    if isinstance(node, (set, frozenset)):
        return sorted(node)
    return node


@pytest.mark.parametrize(
    "path", sorted(FIXTURES.rglob("*.java")), ids=lambda p: str(p.relative_to(FIXTURES))
)
def test_parse_print_parse_stability(path):
    unit = parse_unit(path.read_text(encoding="utf-8"), str(path))
    text = render_unit(unit)
    reparsed = parse_unit(text, str(path))
    assert _strip_locations(reparsed) == _strip_locations(unit)
