"""Static expression typing and deterministic overload resolution."""

from __future__ import annotations

import re
from pathlib import Path

from ucov import UseKind, build_sum, build_symbol_table, extract_uses, parse_unit, typing_env
from ucov.nodes import TypeRef
from ucov.symtab import ResolutionStatus, UnitContext
from ucov.typing_env import Env, Unknown, as_type_name, declared_type, static_type_of

LIB = """
package lib;

public class Conn<T> {
    public Conn() { }
    public Conn chain(int n) { return this; }
    public Doc done() { return null; }
    public void f(int x) { }
    public void f(Doc d) { }
    public void g(T o) { }
    public int count;
}
"""

DOC = """
package lib;

public class Doc {
    public Doc() { }
    public String title() { return null; }
}
"""


def setup_env(body_vars=None):
    table = build_symbol_table(
        [parse_unit(LIB, "Conn.java"), parse_unit(DOC, "Doc.java")]
    )
    unit = parse_unit("package app; import lib.Conn; import lib.Doc; class X { }", "X.java")
    env = Env(UnitContext.for_unit(table, unit), this_type="app.X")
    for name, t in (body_vars or {}).items():
        env.declare(name, t)
    return table, env


def expr_of(src: str):
    unit = parse_unit(f"class W {{ void w() {{ Object o = {src}; }} }}", "W.java")
    return unit.types[0].members[0].body.statements[0].init


def type_of(src: str, body_vars=None):
    _, env = setup_env(body_vars)
    return static_type_of(expr_of(src), env)


def test_literal_types():
    assert type_of("42") == "int"
    assert type_of("true") == "boolean"
    assert type_of('"hi"') == "java.lang.String"
    assert type_of("null") is Unknown


def test_variable_and_new_types():
    assert type_of("c", {"c": "lib.Conn"}) == "lib.Conn"
    assert type_of("new Conn()") == "lib.Conn"
    assert type_of("nowhere") is Unknown


def test_fluent_chain_type():
    assert type_of("c.chain(1).chain(2).done()", {"c": "lib.Conn"}) == "lib.Doc"
    # title()'s return type is an undeclared external; it erases to its raw name
    assert type_of("c.chain(1).done().title()", {"c": "lib.Conn"}) == "String"


def test_field_and_cast_types():
    assert type_of("c.count", {"c": "lib.Conn"}) == "int"
    assert type_of("(Doc) x", {"x": Unknown}) == "lib.Doc"
    assert type_of("x == null", {"x": Unknown}) == "boolean"


def ref_of(src: str) -> TypeRef:
    unit = parse_unit(f"class W {{ void w() {{ {src} v; }} }}", "W.java")
    return unit.types[0].members[0].body.statements[0].type_ref


def test_declared_type_keeps_primitives_arrays_and_known_types():
    _, env = setup_env()
    assert declared_type(ref_of("int"), env) == "int"
    assert declared_type(ref_of("long"), env) == "long"
    assert declared_type(ref_of("Doc[]"), env) == "lib.Doc[]"
    assert declared_type(ref_of("Nowhere"), env) is Unknown
    # a type parameter erases to java.lang.Object, which this table lacks
    generic = Env(env.ctx, type_params=frozenset({"T"}))
    assert declared_type(ref_of("T"), generic) is Unknown
    # an untyped lambda parameter
    assert declared_type(TypeRef(""), env) is Unknown


def test_casts_and_new_are_typed_like_declarations():
    _, env = setup_env({"o": Unknown, "x": "int"})
    for src, ref, want in (
        ("(Doc[]) o", "Doc[]", "lib.Doc[]"),
        ("(long) x", "long", "long"),
        ("new Doc()", "Doc", "lib.Doc"),
    ):
        assert static_type_of(expr_of(src), env) == declared_type(ref_of(ref), env) == want


def test_a_primitive_cast_receiver_is_diagnosed_like_a_primitive_variable():
    model = build_sum([parse_unit(DOC, "Doc.java")], "lib")

    def diagnostics(body: str):
        unit = parse_unit(f"class C {{ void m(int x) {{ {body} }} }}", "C.java")
        return extract_uses([unit], model).diagnostics

    assert diagnostics("((long) x).bar();") == diagnostics("long y; y.bar();") == []


def test_as_type_name_respects_shadowing():
    table, env = setup_env()
    assert as_type_name(expr_of("Conn"), env) == "lib.Conn"
    env.declare("Conn", "lib.Doc")  # shadowed by a variable
    assert as_type_name(expr_of("Conn"), env) is None
    assert as_type_name(expr_of("c.f"), env) is None


def test_equal_calls_in_different_statements_are_memoized_apart():
    unit = parse_unit(
        "class W { void w() { Object a = c.done(); Object b = c.done(); } }", "W.java"
    )
    first, second = (s.init for s in unit.types[0].members[0].body.statements)
    # AST nodes are hashable and compare by identity, not by structure
    assert first == first and first != second
    assert len({first, second}) == 2
    _, env = setup_env({"c": "lib.Conn"})
    assert static_type_of(first, env) == static_type_of(second, env) == "lib.Doc"
    # one record per call node, each holding its own resolution
    assert set(env.links) == {first, second}
    records = env.links[first], env.links[second]
    assert records[0] is not records[1]
    for record in records:
        assert record.status is ResolutionStatus.RESOLVED
        assert record.member.fqn == "lib.Conn.done" and record.type == "lib.Doc"


def test_typing_memo_is_keyed_by_node_not_by_id():
    assert not re.search(r"\bid\(", Path(typing_env.__file__).read_text(encoding="utf-8"))


def test_resolution_by_argument_type():
    table, _ = setup_env()
    res = table.resolve_method("lib.Conn", "f", ["int"])
    assert res.status is ResolutionStatus.RESOLVED
    assert res.member.signature == "f(int)"
    res = table.resolve_method("lib.Conn", "f", ["lib.Doc"])
    assert res.member.signature == "f(lib.Doc)"


def test_unknown_argument_is_ambiguous_but_deterministic():
    table, _ = setup_env()
    res = table.resolve_method("lib.Conn", "f", [Unknown])
    assert res.status is ResolutionStatus.AMBIGUOUS
    # deterministic lexicographic tie-break
    assert res.member.signature == "f(int)"


def test_root_type_parameter_accepts_anything():
    table, _ = setup_env()
    res = table.resolve_method("lib.Conn", "g", ["lib.Doc"])
    assert res.status is ResolutionStatus.RESOLVED
    assert res.member.signature == "g(java.lang.Object)"


def test_unresolved_method_and_arity_mismatch():
    table, _ = setup_env()
    assert table.resolve_method("lib.Conn", "nope", []).status is ResolutionStatus.UNRESOLVED
    assert table.resolve_method("lib.Conn", "f", []).status is ResolutionStatus.UNRESOLVED


def test_inherited_method_resolution_prefers_nearest_declaration():
    table = build_symbol_table(
        [
            parse_unit(
                "package p; public class A { public void m() { } public void only() { } }",
                "A.java",
            ),
            parse_unit("package p; public class B extends A { public void m() { } }", "B.java"),
        ]
    )
    res = table.resolve_method("p.B", "m", [])
    assert res.status is ResolutionStatus.RESOLVED
    assert res.member.declaring == "p.B"
    res = table.resolve_method("p.B", "only", [])
    assert res.member.declaring == "p.A"


def test_constructor_resolution():
    table = build_symbol_table(
        [
            parse_unit(
                "package p; public class A { public A() { } public A(int x) { } }",
                "A.java",
            )
        ]
    )
    assert table.resolve_constructor("p.A", []).member.signature == "A()"
    assert table.resolve_constructor("p.A", ["int"]).member.signature == "A(int)"
    assert (
        table.resolve_constructor("p.A", ["int", "int"]).status
        is ResolutionStatus.UNRESOLVED
    )


def test_numeric_literals_are_typed_by_their_form():
    assert [type_of(t) for t in ("2", "0x1F", "0b101", "017")] == ["int"] * 4
    assert [type_of(t) for t in ("10L", "10l", "0xFFL")] == ["long"] * 3
    assert [type_of(t) for t in ("2f", "1.5F", "1e3f", "0x1p3f", "0x1.8P-3F")] == ["float"] * 5
    doubles = ("1.5", "1.", "1e3", "1E3", "7d", "7D", "0x1p-3", "0x1.8p3", "0X1P+3", "0x1p3d")
    assert [type_of(t) for t in doubles] == ["double"] * 10


NUMERIC_LIB = "package p; public class A { public void f(int x) { } public void f(double d) { } }"


def call_with(arg: str) -> tuple[list[str], list[str]]:
    """The methods a client call ``a.f(<arg>)`` uses, and its diagnostics' kinds."""
    model = build_sum([parse_unit(NUMERIC_LIB, "A.java")], "p")
    client = parse_unit(
        f"package c; import p.A; class C {{ void g(A a) {{ a.f({arg}); }} }}", "C.java"
    )
    fp = extract_uses([client], model)
    methods = sorted(str(t.symbol) for t in fp.triples if t.use is UseKind.METHOD_INVOCATION)
    return methods, [d.kind.value for d in fp.diagnostics]


def test_a_numeric_argument_picks_the_overload_of_its_type():
    assert call_with("1.5") == (["p.A.f(double)"], [])
    assert call_with("2") == (["p.A.f(int)"], [])
    assert call_with("0x1p-3") == (["p.A.f(double)"], [])  # one hex float, not 0x1p - 3
    # primitive widening is not modelled: a long fits neither overload
    assert call_with("10L") == (["p.A.f(double)"], ["Ambiguous"])


def test_signed_exponents_and_digit_separators_keep_the_type_of_the_literal():
    assert [type_of(t) for t in ("1_000", "0xFF_FF")] == ["int"] * 2
    assert type_of("1_000L") == "long"
    assert [type_of(t) for t in ("1e-5f", "1E+5F")] == ["float"] * 2
    assert [type_of(t) for t in ("1.5e+3", "1e-5", "1_0.5")] == ["double"] * 3
    assert type_of("0x1e-5") == "int"  # a subtraction of two ints


FLOAT_LIB = "package p; public class A { public void f(float x) { } public void f(double d) { } }"


def test_a_float_with_a_signed_exponent_picks_the_float_overload():
    model = build_sum([parse_unit(FLOAT_LIB, "A.java")], "p")
    for arg, want in (("1e-5f", "p.A.f(float)"), ("1e-5", "p.A.f(double)"),
                      ("0x1p-3f", "p.A.f(float)"), ("0x1p-3", "p.A.f(double)")):
        client = parse_unit(
            f"package c; import p.A; class C {{ void g(A a) {{ a.f({arg}); }} }}", "C.java"
        )
        fp = extract_uses([client], model)
        assert [str(t.symbol) for t in fp.triples if t.use is UseKind.METHOD_INVOCATION] == [want]
        assert fp.diagnostics == []
