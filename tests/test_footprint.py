"""Footprint extraction, merge/diff algebra, diagnostics, and serialization."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, client_units, model_for
from naive_coverage import naive_footprint_to_dict
from oracle import oracle_extract
from test_coverage_data import CORPORA, compact, fixture
from ucov import (
    DiagnosticKind,
    Footprint,
    ModelMismatch,
    Symbol,
    SymbolKind,
    UseKind,
    UseTriple,
    build_sum,
    diff,
    extract_uses,
    footprint,
    footprint_from_dict,
    footprint_of_corpus,
    footprint_to_dict,
    merge,
    model_from_dict,
    model_to_dict,
    parse_unit,
    popularity,
    typing_env,
)
from ucov.symtab import Scope, SymbolTable, build_symbol_table, declarations
from ucov.uses import Diagnostic, Location

U = UseKind


def extract(corpus: str, group: str = "client"):
    model = model_for(corpus)
    return model, extract_uses(client_units(corpus, group), model, label=group)


def pairs(fp):
    return {(sym.fqn, sym.signature, use) for sym, use in fp.unique_uses}


def located(fp):
    return {
        (t.symbol.fqn, t.symbol.signature, t.use, t.location.line) for t in fp.triples
    }


# ---------------------------------------------------------------------------
# Worked corpora
# ---------------------------------------------------------------------------


def test_classical_client_triples():
    _, fp = extract("arraylist", "classic")
    assert located(fp) == {
        ("java.util.ArrayList", None, U.TYPE_REFERENCE, 7),
        ("java.util.ArrayList", None, U.INSTANTIATION, 7),
        ("java.util.ArrayList.ArrayList", "ArrayList()", U.CONSTRUCTOR_INVOCATION, 7),
        ("java.util.ArrayList.add", "add(java.lang.Object)", U.METHOD_INVOCATION, 8),
        ("java.util.ArrayList.add", "add(java.lang.Object)", U.METHOD_INVOCATION, 9),
    }
    assert fp.total_uses == 5
    assert fp.diagnostics == []


def test_framework_client_triples():
    _, fp = extract("arraylist", "framework")
    assert located(fp) == {
        ("java.util.ArrayList", None, U.INHERITANCE, 5),
        ("java.util.ArrayList.add", "add(java.lang.Object)", U.OVERRIDING, 7),
    }
    assert fp.diagnostics == []


def test_fluent_chain_triples():
    _, fp = extract("fluent")
    assert pairs(fp) == {
        ("web.Document", None, U.TYPE_REFERENCE),
        ("web.Jsoup.connect", "connect(String)", U.STATIC_INVOCATION),
        ("web.Connection.data", "data(String,String)", U.METHOD_INVOCATION),
        ("web.Connection.userAgent", "userAgent(String)", U.METHOD_INVOCATION),
        ("web.Connection.timeout", "timeout(int)", U.METHOD_INVOCATION),
        ("web.Connection.post", "post()", U.METHOD_INVOCATION),
        ("web.Document.title", "title()", U.METHOD_INVOCATION),
    }
    assert fp.diagnostics == []


def test_framework_lambda_triples():
    _, fp = extract("framework")
    assert located(fp) == {
        ("webfw.Spark.get", "get(String,webfw.Route)", U.STATIC_INVOCATION, 7),
        ("webfw.Spark.post", "post(String,webfw.Route)", U.STATIC_INVOCATION, 11),
        ("webfw.Route", None, U.IMPLEMENTATION, 7),
        ("webfw.Route", None, U.IMPLEMENTATION, 11),
        ("webfw.Route.handle", "handle(webfw.Request,webfw.Response)", U.OVERRIDING, 7),
        ("webfw.Route.handle", "handle(webfw.Request,webfw.Response)", U.OVERRIDING, 11),
        ("webfw.Request.path", "path()", U.METHOD_INVOCATION, 8),
        ("webfw.Response.status", "status(int)", U.METHOD_INVOCATION, 12),
    }
    assert fp.diagnostics == []


def test_hierarchy_invocation_covers_both_declarations():
    _, fp = extract("hierarchy")
    assert located(fp) == {
        ("coll.ArrayList", None, U.TYPE_REFERENCE, 7),
        ("coll.ArrayList", None, U.INSTANTIATION, 7),
        ("coll.ArrayList.ArrayList", "ArrayList()", U.CONSTRUCTOR_INVOCATION, 7),
        ("coll.ArrayList.size", "size()", U.METHOD_INVOCATION, 8),
        ("coll.List.size", "size()", U.METHOD_INVOCATION, 8),
    }


def test_edges_corpus():
    _, fp = extract("edges")
    assert located(fp) == {
        ("edge.FinalClass", None, U.TYPE_REFERENCE, 11),
        ("edge.FinalClass", None, U.INSTANTIATION, 11),
        ("edge.FinalClass.FinalClass", "FinalClass()", U.CONSTRUCTOR_INVOCATION, 11),
        ("edge.FinalClass.m", "m()", U.METHOD_INVOCATION, 12),
        ("edge.Base", None, U.TYPE_REFERENCE, 13),
        ("edge.Impl", None, U.INSTANTIATION, 13),
        ("edge.Impl.Impl", "Impl()", U.CONSTRUCTOR_INVOCATION, 13),
        ("edge.Base.id", "id()", U.METHOD_INVOCATION, 14),
        ("edge.Base.twice", "twice()", U.METHOD_INVOCATION, 15),
        ("edge.Holder", None, U.TYPE_REFERENCE, 16),
        ("edge.Holder", None, U.INSTANTIATION, 16),
        ("edge.Holder.Holder", "Holder()", U.CONSTRUCTOR_INVOCATION, 16),
        ("edge.Holder.count", None, U.FIELD_WRITE, 17),
        ("edge.Holder.count", None, U.FIELD_READ, 18),
        ("edge.Holder.cap", None, U.FIELD_READ, 18),
        ("edge.Holder.total", None, U.FIELD_READ, 18),
        ("edge.Consts.MAX", None, U.FIELD_READ, 19),
        # Sub.java: inheritance plus the implicit zero-arg super constructor
        ("edge.Base", None, U.INHERITANCE, 5),
        ("edge.Base.Base", "Base()", U.CONSTRUCTOR_INVOCATION, 6),
        ("edge.Base.id", "id()", U.OVERRIDING, 7),
    }
    assert fp.diagnostics == []


# ---------------------------------------------------------------------------
# Per-rule single-line cases (tablerows corpus)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def rows():
    model = model_for("tablerows")
    return extract_uses(client_units("tablerows"), model, label="rows")


@pytest.mark.parametrize(
    "fqn,sig,use,line",
    [
        ("java.lang.String", None, U.TYPE_REFERENCE, 11),  # field type
        ("java.util.List", None, U.TYPE_REFERENCE, 12),  # generic field type
        ("java.lang.String", None, U.TYPE_REFERENCE, 12),  # type argument
        ("java.lang.Integer", None, U.TYPE_REFERENCE, 14),  # parameter type
        ("java.lang.Integer", None, U.TYPE_REFERENCE, 15),  # return type
        ("java.io.IOException", None, U.TYPE_REFERENCE, 16),  # throws clause
        ("java.io.IOException", None, U.TYPE_REFERENCE, 21),  # catch clause
        ("java.lang.Integer", None, U.INSTANTIATION, 26),
        ("java.lang.Integer.Integer", "Integer(int)", U.CONSTRUCTOR_INVOCATION, 26),
        ("java.lang.String.length", "length()", U.METHOD_INVOCATION, 30),
        ("java.lang.String.valueOf", "valueOf(int)", U.STATIC_INVOCATION, 34),
        ("java.lang.Integer.MAX_VALUE", None, U.FIELD_READ, 38),
        ("java.awt.Point.x", None, U.FIELD_WRITE, 42),
        ("java.awt.Point.x", None, U.FIELD_READ, 7),  # Step.java: Point.x++
        ("java.awt.Point.x", None, U.FIELD_WRITE, 7),
        ("java.lang.Runnable", None, U.TYPE_REFERENCE, 46),  # local decl type
        ("java.lang.Runnable", None, U.IMPLEMENTATION, 46),  # lambda
        ("java.lang.Runnable.run", "run()", U.OVERRIDING, 46),  # lambda
        ("java.lang.Thread", None, U.INHERITANCE, 5),  # class T extends Thread
        ("java.lang.Thread.run", "run()", U.OVERRIDING, 7),
        ("java.lang.Runnable", None, U.IMPLEMENTATION, 5),  # class R implements
        ("java.lang.Runnable.run", "run()", U.OVERRIDING, 6),
        ("java.lang.Runnable", None, U.INTERFACE_EXTENSION, 5),  # interface R2
    ],
)
def test_rule_case(rows, fqn, sig, use, line):
    assert (fqn, sig, use, line) in located(rows)


def test_rows_corpus_has_no_extras(rows):
    assert len(located(rows)) == 23
    assert rows.diagnostics == []


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


def lib_and_client(lib_src: str, client_src: str):
    model = build_sum([parse_unit(lib_src, "Lib.java")], "lib")
    fp = extract_uses([parse_unit(client_src, "C.java")], model)
    return model, fp


def test_statements_corpus():
    """Every statement form, field initializers, bare-name field access,
    typed lambda parameters and an anonymous interface implementation."""
    _, fp = extract("statements")
    counter, add_int = "stmt.Counter", ("stmt.Counter.add", "add(int)")
    assert located(fp) == {
        (counter, None, U.INHERITANCE, 7),
        (counter, None, U.TYPE_REFERENCE, 8),
        (counter, None, U.INSTANTIATION, 8),
        ("stmt.Counter.Counter", "Counter(int)", U.CONSTRUCTOR_INVOCATION, 8),
        ("stmt.Counter.Counter", "Counter()", U.CONSTRUCTOR_INVOCATION, 10),
        (counter, None, U.TYPE_REFERENCE, 12),
        ("stmt.Counter.count", None, U.FIELD_WRITE, 13),
        ("stmt.Counter.count", None, U.FIELD_READ, 14),
        ("stmt.Counter.done", "done()", U.METHOD_INVOCATION, 15),
        (*add_int, U.METHOD_INVOCATION, 16),
        (*add_int, U.METHOD_INVOCATION, 19),
        ("stmt.Counter.flag", "flag(boolean)", U.METHOD_INVOCATION, 22),
        ("stmt.Counter.done", "done()", U.METHOD_INVOCATION, 22),
        ("stmt.Counter.add", "add(stmt.Counter)", U.METHOD_INVOCATION, 24),
        (*add_int, U.METHOD_INVOCATION, 27),
        ("stmt.Counter.self", "self()", U.METHOD_INVOCATION, 29),
        (*add_int, U.METHOD_INVOCATION, 29),
        ("stmt.Task", None, U.TYPE_REFERENCE, 31),
        ("stmt.Task", None, U.IMPLEMENTATION, 31),
        ("stmt.Task.run", "run(stmt.Counter)", U.OVERRIDING, 32),
        (counter, None, U.TYPE_REFERENCE, 32),
        (*add_int, U.METHOD_INVOCATION, 32),
        ("stmt.Task", None, U.TYPE_REFERENCE, 34),
        ("stmt.Task", None, U.IMPLEMENTATION, 34),
        ("stmt.Task.run", "run(stmt.Counter)", U.OVERRIDING, 34),
        (counter, None, U.TYPE_REFERENCE, 34),
        (*add_int, U.METHOD_INVOCATION, 34),
        (counter, None, U.TYPE_REFERENCE, 37),
        (counter, None, U.INSTANTIATION, 37),
        ("stmt.Failure", None, U.INSTANTIATION, 38),
        ("stmt.Failure.Failure", "Failure(int)", U.CONSTRUCTOR_INVOCATION, 38),
        (counter, None, U.TYPE_REFERENCE, 41),
        *(("stmt.Task", None, use, line) for use in (U.TYPE_REFERENCE, U.IMPLEMENTATION)
          for line in (42, 43)),
        ("stmt.Task.run", "run(stmt.Counter)", U.OVERRIDING, 42),
        ("stmt.Task.run", "run(stmt.Counter)", U.OVERRIDING, 43),
        (*add_int, U.METHOD_INVOCATION, 42),
        (*add_int, U.METHOD_INVOCATION, 43),
    }
    assert [(d.kind, d.location.line, d.message) for d in fp.diagnostics] == [
        (DiagnosticKind.UNRESOLVED, 35, "cannot resolve type Gadget in new expression"),
        (DiagnosticKind.UNRESOLVED, 36, "cannot resolve receiver of spin(...)"),
        (DiagnosticKind.UNRESOLVED, 37, "no matching constructor for stmt.Counter"),
    ]


def test_a_bare_lambda_parameter_gives_the_uses_of_a_parenthesized_one():
    # Lines 42 and 43 of Loops.java differ only in ``  k ->`` against
    # ``(k) ->``: the lambda is located at ``k`` and at ``(``.
    _, fp = extract("statements")
    lambda_uses = {("stmt.Task", U.IMPLEMENTATION), ("stmt.Task.run", U.OVERRIDING)}

    def uses(line):
        return {(t.symbol.fqn, t.use, t.location.column) for t in fp.triples
                if t.location.line == line}

    bare, paren = uses(42), uses(43)
    assert bare - paren == {(*u, 23) for u in lambda_uses}
    assert paren - bare == {(*u, 21) for u in lambda_uses}


def test_unresolved_method_diagnostic():
    _, fp = lib_and_client(
        "package lib; public class A { public A() { } }",
        "package app; import lib.A; class C { void f() { new A().nope(); } }",
    )
    kinds = [d.kind for d in fp.diagnostics]
    assert kinds == [DiagnosticKind.UNRESOLVED]
    assert pairs(fp) == {
        ("lib.A", None, U.INSTANTIATION),
        ("lib.A.A", "A()", U.CONSTRUCTOR_INVOCATION),
    }


def test_extending_final_class_is_illegal():
    _, fp = lib_and_client(
        "package lib; public final class A { public A() { } }",
        "package app; import lib.A; class C extends A { }",
    )
    assert [d.kind for d in fp.diagnostics] == [DiagnosticKind.ILLEGAL_USE]
    assert pairs(fp) == set()


def test_heritage_of_unknown_and_non_exported_supertypes():
    _, fp = lib_and_client(
        "package lib; public class A { public A() { } } interface Hidden { }",
        "package app; import lib.Hidden; class C extends Unseen implements Hidden { }",
    )
    assert [(d.kind, d.message) for d in fp.diagnostics] == [
        (DiagnosticKind.ILLEGAL_USE, "extension of non-exported type lib.Hidden")
    ]
    assert pairs(fp) == set()


@pytest.mark.parametrize("expr, uses", [
    ("a.f++", {U.FIELD_READ, U.FIELD_WRITE}),
    ("++a.f", {U.FIELD_READ, U.FIELD_WRITE}),
    ("a.f--", {U.FIELD_READ, U.FIELD_WRITE}),
    ("--a.f", {U.FIELD_READ, U.FIELD_WRITE}),
    ("-a.f++", {U.FIELD_READ, U.FIELD_WRITE}),
    ("f++", {U.FIELD_READ, U.FIELD_WRITE}),
    ("++this.f", {U.FIELD_READ, U.FIELD_WRITE}),
    ("-a.f", {U.FIELD_READ}),
    ("!~a.f", {U.FIELD_READ}),
])
def test_an_increment_or_decrement_reads_the_field_and_writes_it(expr, uses):
    # JLS 15.14.2 and 15.15.1: the operand of ++ or -- is read, and the
    # result is stored back into it; the other unary operators only read.
    model = build_sum([parse_unit(
        "package lib; public class A { public A() { } public int f; }", "A.java")], "lib")
    units = [parse_unit(
        "package app; import lib.A; class C extends A { void m(A a) { int x = " + expr + "; } }",
        "C.java")]
    fp = extract_uses(units, model)
    assert fp.diagnostics == []
    assert {u for s, u in fp.unique_uses if s.fqn == "lib.A.f"} == uses
    got = {(t.symbol.fqn, t.symbol.signature, t.use, t.location) for t in fp.triples}
    assert got == oracle_extract(units, model)


def test_writing_final_field_is_illegal():
    _, fp = lib_and_client(
        "package lib; public class A { public A() { } public final int k = 1; }",
        "package app; import lib.A; class C { void f(A a) { a.k = 2; } }",
    )
    assert [d.kind for d in fp.diagnostics] == [DiagnosticKind.ILLEGAL_USE]
    assert ("lib.A.k", None, U.FIELD_WRITE) not in pairs(fp)


def test_use_of_non_exported_member_is_illegal():
    _, fp = lib_and_client(
        "package lib; public class A { public A() { } void hidden() { } }",
        "package app; import lib.A; class C { void f(A a) { a.hidden(); } }",
    )
    assert [d.kind for d in fp.diagnostics] == [DiagnosticKind.ILLEGAL_USE]


# A call to B.run covers A.run too, through the library's non-exported
# Hidden.run, which is an IllegalUse at every call site.
CLOSURE_LIB = (
    "package lib; public class A { public A() { } public void run() { } }\n"
    "class Hidden extends A { public Hidden() { } public void run() { } }\n"
    "public class B extends Hidden { public B() { } public void run() { } }"
)


def test_each_call_site_replays_the_invocation_closure_at_its_own_location():
    client = "package app; import lib.B;\nclass C { void f(B b) {\n  b.run();\n    b.run(); } }"
    model, fp = lib_and_client(CLOSURE_LIB, client)
    message = "MethodInvocation of non-exported symbol lib.Hidden.run"
    assert fp.diagnostics == [
        Diagnostic(Location("C.java", 3, 5), DiagnosticKind.ILLEGAL_USE, message),
        Diagnostic(Location("C.java", 4, 7), DiagnosticKind.ILLEGAL_USE, message),
    ]
    assert {(t.symbol.fqn, t.use, t.location) for t in fp.triples if t.symbol.signature} == {
        (fqn, U.METHOD_INVOCATION, Location("C.java", line, col))
        for fqn in ("lib.A.run", "lib.B.run") for line, col in ((3, 5), (4, 7))
    }
    units = [parse_unit(client, "C.java")]
    assert {(t.symbol.fqn, t.symbol.signature, t.use, t.location) for t in fp.triples} == (
        oracle_extract(units, model))


def test_each_called_method_closure_is_resolved_once(monkeypatch):
    # Three calls to B.run and two to A.run resolve two closures; the client
    # method f is looked up once for what it overrides.
    model = build_sum([parse_unit(CLOSURE_LIB, "Lib.java")], "lib")
    unit = parse_unit(
        "package app; import lib.A; import lib.B;\n"
        "class C { void f(A a, B b) { b.run(); a.run(); b.run(); a.run(); b.run(); } }",
        "C.java",
    )
    members = Counter()
    super_methods = SymbolTable.super_methods

    def counted(table, member):
        members[member.fqn] += 1
        return super_methods(table, member)

    monkeypatch.setattr(SymbolTable, "super_methods", counted)
    fp = extract_uses([unit], model)
    assert members == {"app.C.f": 1, "lib.A.run": 1, "lib.B.run": 1}
    invocations = Counter(t.symbol.fqn for t in fp.triples if t.use is U.METHOD_INVOCATION)
    assert invocations == {"lib.A.run": 5, "lib.B.run": 3}
    assert len(fp.diagnostics) == 3


def test_ambiguous_call_is_flagged_but_extracted():
    _, fp = lib_and_client(
        "package lib; public class A { public A() { } "
        "public void f(int x) { } public void f(boolean b) { } }",
        "package app; import lib.A; class C { void g(A a, Object o) { a.f(o); } }",
    )
    assert [d.kind for d in fp.diagnostics] == [DiagnosticKind.AMBIGUOUS]
    # deterministic choice: lexicographically smallest signature
    assert ("lib.A.f", "f(boolean)", U.METHOD_INVOCATION) in pairs(fp)


def test_field_and_nested_type_of_same_name_are_distinct():
    model = build_sum(
        [
            parse_unit(
                "package a; public class B { public B() { } public int C; "
                "public static class C { } }",
                "Lib.java",
            )
        ],
        "lib",
    )
    units = [
        parse_unit(
            "package app; import a.B; class K { void f(B b) { int x = b.C; "
            "B.C y = new B.C(); } }",
            "C.java",
        )
    ]
    fp = extract_uses(units, model)
    assert fp.diagnostics == []
    assert {(t.symbol.kind, t.use) for t in fp.triples if t.symbol.fqn == "a.B.C"} == {
        (SymbolKind.FIELD, U.FIELD_READ),
        (SymbolKind.CLASS, U.TYPE_REFERENCE),
        (SymbolKind.CLASS, U.INSTANTIATION),
    }
    got = {(t.symbol.fqn, t.symbol.signature, t.use, t.location) for t in fp.triples}
    assert got == oracle_extract(units, model)
    clone_model = model_from_dict(json.loads(model_to_dict(model)))
    assert {s.kind for s in clone_model.entries if s.fqn == "a.B.C"} == {
        SymbolKind.FIELD,
        SymbolKind.CLASS,
    }
    assert clone_model.entries == model.entries
    clone = footprint_from_dict(json.loads(footprint_to_dict(fp)), clone_model)
    assert clone.triples == fp.triples


# Probes whose expected uses follow what javac compiles them to; each is a
# library of one unit per type and a client (test_each_probe_compiles_with_javac).
FIELD_AND_TYPE = (
    {
        "Foo": "package p; public class Foo { public static Bar make() { return null; } }",
        "Bar": "package p; public class Bar { public Bar make() { return this; } "
               "public int size() { return 0; } }",
    },
    "import p.Foo; import p.Bar; class C { Bar Foo; void m() { Foo.make().size(); } }",
)


def test_call_on_a_name_that_is_both_a_type_and_a_field_uses_the_field():
    # A name is a variable if one is in scope, else a type (JLS 6.5.2), for a
    # call's receiver as for a field access's: the field Foo obscures the
    # type Foo, so Foo.make() calls make() on the field, as javac compiles it
    # (getfield Foo, then invokevirtual p/Bar.make), and its result types the
    # next call.
    triples, diagnostics = typed_extract(*FIELD_AND_TYPE)
    assert triples == {
        ("p.Bar", None, U.TYPE_REFERENCE, 1),
        ("p.Bar.make", "make()", U.METHOD_INVOCATION, 1),
        ("p.Bar.size", "size()", U.METHOD_INVOCATION, 1),
    }
    assert diagnostics == []


QUALIFIED_FIELD_AND_TYPE = (
    {
        "Foo": "package p; public class Foo { public static Bar Inner; "
               "public static class Inner { public static Bar make() { return null; } "
               "public static int count; } }",
        "Bar": "package p; public class Bar { public Bar make() { return this; } "
               "public int count; }",
    },
    "package q;\n"
    "import p.Foo;\n"
    "class C { void m() {\n"
    "  Foo.Inner.make();\n"
    "  int n = Foo.Inner.count; } }",
)


def test_a_qualified_name_whose_last_name_is_a_field_is_the_field():
    # In Foo.Inner, Inner is the field of the type Foo before the member
    # type Foo.Inner (JLS 6.5.2), for a call as for a field access.
    triples, diagnostics = typed_extract(*QUALIFIED_FIELD_AND_TYPE)
    assert triples == {
        ("p.Foo.Inner", None, U.FIELD_READ, 4),
        ("p.Bar.make", "make()", U.METHOD_INVOCATION, 4),
        ("p.Foo.Inner", None, U.FIELD_READ, 5),
        ("p.Bar.count", None, U.FIELD_READ, 5),
    }
    assert diagnostics == []


def typed_extract(lib: dict[str, str], client_src: str):
    """The located triples and diagnostics of one client file against a
    library of one unit per type; the triples must agree with the oracle."""
    model = build_sum([parse_unit(src, f"{name}.java") for name, src in lib.items()], "p")
    units = [parse_unit(client_src, "C.java")]
    fp = extract_uses(units, model)
    got = {(t.symbol.fqn, t.symbol.signature, t.use, t.location) for t in fp.triples}
    assert got == oracle_extract(units, model)
    return located(fp), fp.diagnostics


def test_an_array_cast_is_not_typed_as_its_element_type():
    triples, diagnostics = typed_extract(
        {"Foo": "package p; public class Foo { public Foo() { } public void bar() { } }"},
        "import p.Foo; class C { void m(Object o) { ((Foo[]) o).bar(); } }",
    )
    assert triples == {("p.Foo", None, U.TYPE_REFERENCE, 1)}
    assert diagnostics == []


def test_a_single_type_import_shadows_a_type_of_the_same_package():
    # JLS 6.4.1: in App, ``import q.Conn`` shadows the client's own p.Conn.
    model = build_sum(
        [parse_unit("package q; public class Conn { public void close() { } }", "Conn.java")],
        "q",
    )
    units = [
        parse_unit("package p; class Conn { }", "p/Conn.java"),
        parse_unit(
            "package p; import q.Conn;\nclass App { void run(Conn c) { c.close(); } }",
            "p/App.java",
        ),
    ]
    fp = extract_uses(units, model)
    assert located(fp) == {
        ("q.Conn", None, U.TYPE_REFERENCE, 2),
        ("q.Conn.close", "close()", U.METHOD_INVOCATION, 2),
    }
    assert fp.diagnostics == []


def test_a_qualified_type_name_resolves_its_qualifier_through_the_imports():
    # JLS 6.5.5.2: in ``Outer.Inner`` the qualifier ``Outer`` is the
    # imported q.Outer, as it is when written alone, not p.Outer.
    nested = "public class Outer { public static class Inner { public void m() { } } }"
    triples, diagnostics = typed_extract(
        {"p/Outer": "package p; " + nested, "q/Outer": "package q; " + nested},
        "package p; import q.Outer;\n"
        "class C { void f(Outer.Inner i) { i.m(); } void g(Outer o) { } }",
    )
    assert triples == {
        ("q.Outer.Inner", None, U.TYPE_REFERENCE, 2),
        ("q.Outer.Inner.m", "m()", U.METHOD_INVOCATION, 2),
        ("q.Outer", None, U.TYPE_REFERENCE, 2),
    }
    assert diagnostics == []


def test_a_constructor_whose_library_superclass_has_no_zero_arg_constructor_invokes_none():
    triples, diagnostics = typed_extract(
        {"B": "package p; public class B { public B(int x) { } }"},
        "import p.B;\nclass C extends B { C() { } }",
    )
    assert triples == {("p.B", None, U.INHERITANCE, 2)}
    assert diagnostics == []


NEW_LIB = {
    "A": "package p; public class A { public A() { } public void g() { } }",
    "K": "package p; public class K { public K(int x) { } }",
    "I": "package p; public interface I { void run(); void stop(); }",
}


@pytest.mark.parametrize("statement, triples, diagnostics", [
    (
        "A a = new A();",
        {("p.A", None, U.TYPE_REFERENCE), ("p.A", None, U.INSTANTIATION),
         ("p.A.A", "A()", U.CONSTRUCTOR_INVOCATION)},
        [],
    ),
    (
        "I i = new I();",
        {("p.I", None, U.TYPE_REFERENCE)},
        [(DiagnosticKind.ILLEGAL_USE, "Instantiation is not a legal use of p.I")],
    ),
    (
        "K k = new K();",
        {("p.K", None, U.TYPE_REFERENCE), ("p.K", None, U.INSTANTIATION)},
        [(DiagnosticKind.UNRESOLVED, "no matching constructor for p.K")],
    ),
    (
        "K k = new K() { };",
        {("p.K", None, U.TYPE_REFERENCE), ("p.K", None, U.INHERITANCE)},
        [],
    ),
    (
        "I i = new I() { public void run() { } public void other() { } };",
        {("p.I", None, U.TYPE_REFERENCE), ("p.I", None, U.IMPLEMENTATION),
         ("p.I.run", "run()", U.OVERRIDING)},
        [],
    ),
    (
        "Thread t = new Thread() { public void run() { A b = new A(); b.g(); } };",
        {("p.A", None, U.TYPE_REFERENCE), ("p.A", None, U.INSTANTIATION),
         ("p.A.A", "A()", U.CONSTRUCTOR_INVOCATION), ("p.A.g", "g()", U.METHOD_INVOCATION)},
        [(DiagnosticKind.UNRESOLVED, "cannot resolve type Thread in new expression")],
    ),
], ids=[
    "class", "interface", "class-without-constructor", "anonymous-class-without-constructor",
    "anonymous-interface", "anonymous-body-of-unknown-type",
])
def test_every_shape_of_new_has_the_uses_of_its_one_rule(statement, triples, diagnostics):
    # A plain ``new`` is an Instantiation and invokes a constructor; with a
    # body it is an Inheritance that invokes one or an Implementation that
    # does not, and overrides what its methods override. Only a plain
    # ``new`` of a class lacks a constructor; the body of an unknown type is
    # still visited.
    located_triples, found = typed_extract(
        NEW_LIB, "import p.*;\nclass C {\n  void m() { " + statement + " } }"
    )
    assert located_triples == {(*t, 3) for t in triples}
    assert [(d.kind, d.location.line, d.message) for d in found] == [
        (kind, 3, message) for kind, message in diagnostics
    ]


def test_an_anonymous_body_sees_the_enclosing_locals_parameters_and_fields():
    # An anonymous body extends the enclosing environment (JLS 15.9.5): a
    # local, a parameter and a field of the enclosing class type its calls
    # there as they do in a block lambda.
    triples, diagnostics = typed_extract(
        {
            **NEW_LIB,
            "R": "package p; public interface R { void run(); }",
            "Base": "package p; public class Base { public A field; }",
        },
        "package p;\n"
        "class C extends Base {\n"
        "  void m(A a, A q) {\n"
        "    A b = a;\n"
        "    R r = new R() { public void run() {\n"
        "      b.g();\n"
        "      q.g();\n"
        "      field.g(); } };\n"
        "    R s = () -> { b.g(); }; } }",
    )
    body = {("p.R", None, U.TYPE_REFERENCE), ("p.R", None, U.IMPLEMENTATION),
            ("p.R.run", "run()", U.OVERRIDING)}
    assert triples == {
        ("p.Base", None, U.INHERITANCE, 2),
        ("p.A", None, U.TYPE_REFERENCE, 3),
        ("p.A", None, U.TYPE_REFERENCE, 4),
        *((*t, 5) for t in body),
        ("p.A.g", "g()", U.METHOD_INVOCATION, 6),
        ("p.A.g", "g()", U.METHOD_INVOCATION, 7),
        ("p.Base.field", None, U.FIELD_READ, 8),
        ("p.A.g", "g()", U.METHOD_INVOCATION, 8),
        *((*t, 9) for t in body),
        ("p.A.g", "g()", U.METHOD_INVOCATION, 9),
    }
    assert diagnostics == []


def test_a_field_of_the_anonymous_type_hides_an_enclosing_local():
    # Where the anonymous body ends, the fields it inherits from its type
    # come before the enclosing method's locals (JLS 6.4.1).
    triples, diagnostics = typed_extract(
        {
            **NEW_LIB,
            "B": "package p; public class B { public void h() { } }",
            "T": "package p; public abstract class T { public B x; public T() { } "
                 "public abstract void run(); }",
        },
        "package p;\n"
        "class C { void m(A x) {\n"
        "  T t = new T() { public void run() {\n"
        "    x.h(); } }; } }",
    )
    assert triples == {
        ("p.A", None, U.TYPE_REFERENCE, 2),
        ("p.T", None, U.TYPE_REFERENCE, 3),
        ("p.T", None, U.INHERITANCE, 3),
        ("p.T.T", "T()", U.CONSTRUCTOR_INVOCATION, 3),
        ("p.T.run", "run()", U.OVERRIDING, 3),
        ("p.T.x", None, U.FIELD_READ, 4),
        ("p.B.h", "h()", U.METHOD_INVOCATION, 4),
    }
    assert diagnostics == []


def test_a_name_that_resolves_nowhere_is_not_a_default_package_type():
    # No named-package code sees a default-package type (JLS 7.4.2, 7.5):
    # in package q, ``Thread`` is unknown wherever it is written, and an
    # anonymous body of it overrides nothing.
    triples, diagnostics = typed_extract(
        {"Thread": "public class Thread { public Thread() { } public void g() { } "
                   "public void run() { } }"},
        "package q;\n"
        "class C { void m(Thread t) {\n"
        "  t.g();\n"
        "  Thread u = new Thread();\n"
        "  Thread v = new Thread() { public void run() { } }; } }",
    )
    assert triples == set()
    assert [(d.kind, d.location.line, d.message) for d in diagnostics] == [
        (DiagnosticKind.UNRESOLVED, 3, "cannot resolve receiver of g(...)"),
        (DiagnosticKind.UNRESOLVED, 4, "cannot resolve type Thread in new expression"),
        (DiagnosticKind.UNRESOLVED, 5, "cannot resolve type Thread in new expression"),
    ]


def test_an_anonymous_body_of_an_unknown_type_has_no_type():
    # The body of a type that resolves nowhere has an Unknown type, never
    # the raw spelling (JLS 7.4.2, 7.5): g() there names no default-package
    # Thread, and no enclosing body has a g().
    triples, diagnostics = typed_extract(
        {"Thread": "public class Thread { public Thread() { } public void g() { } "
                   "public void run() { } }"},
        "package q;\n"
        "class C { void m() {\n"
        "  Thread v = new Thread() { public void run() {\n"
        "    g(); } }; } }",
    )
    assert triples == set()
    assert [(d.kind, d.location.line, d.message) for d in diagnostics] == [
        (DiagnosticKind.UNRESOLVED, 3, "cannot resolve type Thread in new expression"),
        (DiagnosticKind.UNRESOLVED, 4, "cannot resolve receiver of g(...)"),
    ]


ENCLOSING = (
    {
        "Conn": "package p; public class Conn { public void close() { } }",
        "Task": "package p; public interface Task { void run(); }",
    },
    "package q;\n"
    "import p.Conn; import p.Task;\n"
    "class C {\n"
    "  Conn field;\n"
    "  Conn make() { return field; }\n"
    "  void m(Conn param) {\n"
    "    Conn conn = param;\n"
    "    Task t = new Task() { public void run() {\n"
    "      field.close();\n"
    "      make().close();\n"
    "      param.close();\n"
    "      conn.close(); } }; }\n"
    "  class Inner { void n() {\n"
    "    field.close();\n"
    "    make().close(); } } }",
)


def test_anonymous_and_inner_bodies_see_the_enclosing_fields_and_methods():
    # An anonymous body and an inner class extend the environment they are
    # declared in: a name walks out to the enclosing class's fields (JLS
    # 6.4.1, 15.9.5), and an unqualified call to the innermost enclosing
    # class with a method of its name (JLS 15.12.1), as javac compiles C$1
    # and C$Inner: q/C.make, then p/Conn.close.
    triples, diagnostics = typed_extract(*ENCLOSING)
    assert triples == {
        *(("p.Conn", None, U.TYPE_REFERENCE, line) for line in (4, 5, 6, 7)),
        ("p.Task", None, U.TYPE_REFERENCE, 8),
        ("p.Task", None, U.IMPLEMENTATION, 8),
        ("p.Task.run", "run()", U.OVERRIDING, 8),
        *(("p.Conn.close", "close()", U.METHOD_INVOCATION, line)
          for line in (9, 10, 11, 12, 14, 15)),
    }
    assert diagnostics == []


MEMBER_TYPE_NAMES = (
    {
        "Outer": "package p; public class Outer { public static class X { } "
                 "public static class Inner { public static class X { } } }",
    },
    "package p;\n"
    "class Outer {\n"
    "  X a;\n"
    "  static class X { }\n"
    "  static class Inner {\n"
    "    X b;\n"
    "    static class X { } } }",
)


def test_a_member_class_resolves_type_names_in_its_own_scope():
    # A member class's environment is a child of its enclosing type's, but
    # resolves type names in its own scope: X is Outer.X in Outer and
    # Outer.Inner.X in Inner, though Outer resolved X first (JLS 6.4.1).
    triples, diagnostics = typed_extract(*MEMBER_TYPE_NAMES)
    assert triples == {
        ("p.Outer.X", None, U.TYPE_REFERENCE, 3),
        ("p.Outer.Inner.X", None, U.TYPE_REFERENCE, 6),
    }
    assert diagnostics == []


@pytest.mark.parametrize("probe", [
    FIELD_AND_TYPE, QUALIFIED_FIELD_AND_TYPE, ENCLOSING, MEMBER_TYPE_NAMES,
], ids=["field-and-type", "qualified-field-and-type", "enclosing", "member-type-names"])
def test_each_probe_compiles_with_javac(probe, tmp_path):
    # javac is the referee of these probes' expected uses, so each must be
    # Java: the client compiles against its library's sources.
    javac = shutil.which("javac")
    if javac is None:
        pytest.skip("javac is not installed")
    lib, client = probe
    for name, src in lib.items():
        package = parse_unit(src, f"{name}.java").package_name
        path = tmp_path / "lib" / package.replace(".", "/") / f"{name}.java"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(src, encoding="utf-8")
    (tmp_path / "C.java").write_text(client, encoding="utf-8")
    done = subprocess.run(
        [javac, "-d", str(tmp_path / "out"), "-sourcepath", str(tmp_path / "lib"),
         str(tmp_path / "C.java")],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


def test_each_written_type_is_resolved_once(monkeypatch):
    # Extraction resolves the name E once per type body: in C, the first
    # of a parameter, a local, a catch and a typed lambda parameter to ask
    # resolves it, and the rest are served from the body's memo; in D, its
    # field type does. The client table resolves C's parameter once more,
    # for the method's signature, and D's field type for the field's type.
    model = build_sum([parse_unit("package lib; public class E { }", "E.java")], "lib")
    unit = parse_unit(
        "package app; import lib.E;\n"
        "class C { void m(E p) {\n"
        "  E local = p;\n"
        "  try { } catch (E e) { }\n"
        "  run((E q) -> q); } }\n"
        "class D { E f; }",
        "C.java",
    )
    names = []
    resolve_type = Scope.resolve_type

    def counted(scope, name):
        names.append(name)
        return resolve_type(scope, name)

    monkeypatch.setattr(Scope, "resolve_type", counted)
    fp = extract_uses([unit], model)
    assert names == ["E"] * 4
    assert sorted(t.location.line for t in fp.triples) == [2, 3, 4, 5, 6]
    assert {t.use for t in fp.triples} == {U.TYPE_REFERENCE}


def test_typing_and_anonymous_signatures_resolve_each_name_once_per_type_body(monkeypatch):
    # The client table resolves each written name directly: C's supertype H
    # once, its member type E once per occurrence, and F's parameter type E.
    # Extraction then resolves E once in C's body, H once in D's, and E
    # once in D's anonymous class body, whose overriding signature and
    # member visit share the memo of the body it extends. F's body resolves
    # E before its anonymous body, which then resolves nothing.
    model = build_sum([
        parse_unit("package lib; public class E { }", "E.java"),
        parse_unit("package lib; public abstract class H { public abstract E on(E a, E b); }",
                   "H.java"),
    ], "lib")
    unit = parse_unit(
        "package app; import lib.E; import lib.H;\n"
        "class C extends H { public E on(E a, E b) { return a; } E f; void g(E x, E[] y) { } }\n"
        "class D { void m() { new H() { public E on(E a, E b) { return b; } }; } }\n"
        "class F { void m(E e) { new H() { public E on(E a, E b) { return e; } }; } }",
        "C.java",
    )
    names = []
    resolve_type = Scope.resolve_type

    def counted(scope, name):
        names.append((scope.this_type, name))
        return resolve_type(scope, name)

    monkeypatch.setattr(Scope, "resolve_type", counted)
    build_symbol_table([unit], base=model.table)
    built = [("app.C", "H")] + [("app.C", "E")] * 6 + [("app.F", "E")]
    assert names == built
    names.clear()
    fp = extract_uses([unit], model)
    assert names == built + [
        ("app.C", "E"), ("app.D", "H"), ("lib.H", "E"), ("app.F", "E"), ("app.F", "H"),
    ]
    overriding = {t.location.line for t in fp.triples if t.use is U.OVERRIDING}
    assert overriding == {2, 3, 4}
    got = {(t.symbol.fqn, t.symbol.signature, t.use, t.location) for t in fp.triples}
    assert got == oracle_extract([unit], model)


def test_a_library_type_named_like_a_primitive_is_not_referenced_by_the_primitive():
    # Typing, erasure and extraction all take ``int`` as the primitive.
    model = build_sum([parse_unit("package p; public class int { }", "int.java")], "p")
    units = [parse_unit("package p; class C { void m(int y) { int x = 0; } }", "C.java")]
    fp = extract_uses(units, model)
    assert (fp.triples, fp.diagnostics) == (set(), [])
    assert oracle_extract(units, model) == set()
    table = build_symbol_table(units, base=model.table)
    assert table.types["p.C"].members[0].signature == "m(int)"
    (d,) = declarations(units, table)
    param = d.decl.members[0].params[0].type_ref
    assert typing_env.declared_type(param, typing_env.Env(d.scope)) == "int"


FUNCTIONS = {
    "Fn": "package p; public interface Fn { Object apply(Object x); }",
    "Gn": "package p; public interface Gn { Object go(Object x); }",
    "Sup": "package p; public interface Sup { Fn get(); }",
}
SUP_LAMBDA = [
    ("p.Sup", None, U.TYPE_REFERENCE, 2),
    ("p.Sup", None, U.IMPLEMENTATION, 2),
    ("p.Sup.get", "get()", U.OVERRIDING, 2),
    ("p.Fn", None, U.IMPLEMENTATION, 3),
    ("p.Fn.apply", "apply(Object)", U.OVERRIDING, 3),
]


def test_a_block_lambda_return_targets_the_lambda_return_type():
    triples, diagnostics = typed_extract(
        FUNCTIONS,
        "package p; class C { void m() {\n"
        "  Sup s = () -> {\n"
        "    return (y) -> y; }; } }",
    )
    assert triples == set(SUP_LAMBDA)
    assert diagnostics == []


def test_a_block_lambda_return_does_not_target_the_method_return_type():
    triples, diagnostics = typed_extract(
        FUNCTIONS,
        "package p; class C { Gn m() {\n"
        "  Sup s = () -> {\n"
        "    return (y) -> y; }; return null; } }",
    )
    assert triples == {("p.Gn", None, U.TYPE_REFERENCE, 1), *SUP_LAMBDA}
    assert diagnostics == []


def test_a_return_in_a_nested_block_targets_the_method_return_type():
    triples, diagnostics = typed_extract(
        FUNCTIONS,
        "package p; class C { Gn m(boolean b) {\n"
        "  if (b) { return (z) -> z; } return null; } }",
    )
    assert triples == {
        ("p.Gn", None, U.TYPE_REFERENCE, 1),
        ("p.Gn", None, U.IMPLEMENTATION, 2),
        ("p.Gn.go", "go(Object)", U.OVERRIDING, 2),
    }
    assert diagnostics == []


FIXTURE_GROUPS = sorted(
    (corpus.name, group.name)
    for corpus in FIXTURES.iterdir()
    for group in corpus.iterdir()
    if group.name != "lib"
)


@pytest.mark.parametrize(
    "corpus,group", FIXTURE_GROUPS, ids=[f"{c}/{g}" for c, g in FIXTURE_GROUPS]
)
def test_extraction_reads_the_one_record_typing_made_per_link(corpus, group, monkeypatch):
    # Each chain node is typed at most once, and every link the extractor
    # visits is handled from the record typing made for that node.
    typed: Counter = Counter()
    made = {}
    type_link = typing_env._type_link

    def counted(link, env):
        typed[link] += 1
        made[link] = type_link(link, env)
        return made[link]

    visited = []

    def reading(method):
        def wrapper(self, link, record, *rest):
            visited.append((link, record))
            return method(self, link, record, *rest)

        return wrapper

    monkeypatch.setattr(typing_env, "_type_link", counted)
    for name in ("_method_call", "_field_access_use"):
        method = getattr(footprint._Extractor, name)
        monkeypatch.setattr(footprint._Extractor, name, reading(method))
    extract_uses(client_units(corpus, group), model_for(corpus))
    assert max(typed.values(), default=1) == 1
    for link, record in visited:
        assert link in made and made[link] is record


def test_unrelated_client_code_produces_nothing():
    _, fp = lib_and_client(
        "package lib; public class A { public A() { } }",
        "package app; class C { int f(int x) { return x + 1; } }",
    )
    assert fp.triples == set()
    assert fp.diagnostics == []


# ---------------------------------------------------------------------------
# Merge / diff algebra
# ---------------------------------------------------------------------------


def test_merge_is_union():
    model = model_for("arraylist")
    f2 = extract_uses(client_units("arraylist", "classic"), model, label="classic")
    f3 = extract_uses(client_units("arraylist", "framework"), model, label="framework")
    m = merge(f2, f3)
    assert m.label == "classic+framework"
    assert m.triples == f2.triples | f3.triples
    assert pairs(m) == pairs(f2) | pairs(f3)


def test_merge_requires_same_library():
    fa = extract_uses([], model_for("fluent"))
    fb = extract_uses([], model_for("edges"))
    with pytest.raises(ModelMismatch):
        merge(fa, fb)
    with pytest.raises(ModelMismatch):
        diff(fa, fb)


def test_a_footprint_is_made_from_triples_or_from_sites():
    sym = Symbol("p.A", SymbolKind.CLASS)
    site = Location("C.java", 1, 1)
    fp = Footprint("c", "p", sites={(sym, U.TYPE_REFERENCE): {site}})
    assert fp.triples == {UseTriple(sym, U.TYPE_REFERENCE, site)}
    with pytest.raises(ValueError):
        Footprint("c", "p", fp.triples, sites=fp.sites)


def test_diff_is_location_insensitive():
    model = model_for("arraylist")
    f2 = extract_uses(client_units("arraylist", "classic"), model, label="classic")
    f3 = extract_uses(client_units("arraylist", "framework"), model, label="framework")
    d = diff(f2, f3)
    assert d.label == "classic-framework"
    assert pairs(d) == pairs(f2) - pairs(f3)
    # both add-call sites survive: framework never invokes add
    add_sites = [t for t in d.triples if t.use is U.METHOD_INVOCATION]
    assert len(add_sites) == 2
    assert diff(f2, f2).triples == set()


# ---------------------------------------------------------------------------
# Corpus handling
# ---------------------------------------------------------------------------


def test_footprint_of_corpus_groups():
    model = model_for("arraylist")
    groups = {
        "classic": [FIXTURES / "arraylist" / "classic"],
        "framework": [FIXTURES / "arraylist" / "framework"],
    }
    fps = footprint_of_corpus(groups, model)
    assert set(fps) == {"classic", "framework"}
    assert fps["classic"].total_uses == 5
    assert fps["framework"].total_uses == 2


def test_lenient_and_strict_parse_handling(tmp_path):
    model = model_for("arraylist")
    good = tmp_path / "Good.java"
    good.write_text(
        "package app; import java.util.ArrayList; "
        "class G { void f() { new ArrayList(); } }"
    )
    bad = tmp_path / "Bad.java"
    bad.write_text("class Broken {")
    fps = footprint_of_corpus({"c": [tmp_path]}, model, lenient=True)
    fp = fps["c"]
    assert [d.kind for d in fp.diagnostics] == [DiagnosticKind.PARSE_ERROR]
    assert ("java.util.ArrayList", None, U.INSTANTIATION) in pairs(fp)
    from ucov import ParseError

    with pytest.raises(ParseError):
        footprint_of_corpus({"c": [tmp_path]}, model, lenient=False)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_footprint_round_trip():
    model, fp = extract("edges")
    text = footprint_to_dict(fp)
    clone = footprint_from_dict(json.loads(text), model)
    assert clone.label == fp.label
    assert clone.triples == fp.triples
    assert footprint_to_dict(clone) == text


def test_a_method_named_like_its_class_is_another_symbol_than_its_constructor():
    # Java allows the method; keyed without its kind, it was a duplicate of
    # the constructor, and a constructor call was looked up as the method.
    model = build_sum([parse_unit(
        "package p; public class B { public B() { } public void B() { } }", "B.java")], "lib")
    ctor = Symbol("p.B.B", SymbolKind.CONSTRUCTOR, "B()")
    method = Symbol("p.B.B", SymbolKind.METHOD, "B()")
    assert model.entries[ctor] == {U.CONSTRUCTOR_INVOCATION}
    assert model.entries[method] == {U.METHOD_INVOCATION, U.OVERRIDING}
    client = parse_unit("class C { void f() { p.B b = new p.B(); b.B(); } }", "C.java")
    loaded = model_from_dict(json.loads(model_to_dict(model)))
    for m in (model, loaded):
        fp = extract_uses([client], m)
        assert fp.diagnostics == []
        assert {(ctor, U.CONSTRUCTOR_INVOCATION), (method, U.METHOD_INVOCATION)} <= set(
            fp.unique_uses)
        clone = footprint_from_dict(json.loads(footprint_to_dict(fp)), m)
        assert clone.triples == fp.triples


def test_footprint_round_trip_keeps_diagnostics():
    model, fp = extract("statements")
    text = footprint_to_dict(fp)
    assert len(json.loads(text)["diagnostics"]) == 3
    clone = footprint_from_dict(json.loads(text), model)
    assert clone.triples == fp.triples
    assert clone.diagnostics == sorted(
        fp.diagnostics, key=lambda d: (d.location, d.kind.value, d.message)
    )
    assert footprint_to_dict(clone) == text


@pytest.mark.parametrize("corpus,group", CORPORA, ids=[f"{c}/{g}" for c, g in CORPORA])
def test_the_writer_writes_what_json_dumps_writes_for_the_reference_dict(corpus, group):
    _, fp = fixture(corpus, group)
    assert footprint_to_dict(fp) == compact(naive_footprint_to_dict(fp))


# Text the writer must escape as ``json.dumps`` does, or leave as it leaves it.
AWKWARD = st.text(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "\u2028", "\u2029",
                     "é", "\U0001f600", "\U00010348", "a", ".", "("]) | st.characters(),
    max_size=6,
)


AWKWARD_LOCATIONS = st.builds(Location, AWKWARD, st.integers(-2, 10**12), st.integers(0, 3))


@st.composite
def awkward_triples(draw) -> set[UseTriple]:
    """Triples whose names and files hold quotes, backslashes, control
    characters, U+2028 and non-BMP text. A signature may be null or empty,
    so two symbols can differ in nothing but that."""
    symbols = draw(st.lists(st.builds(
        Symbol, AWKWARD, st.sampled_from(list(SymbolKind)), st.none() | AWKWARD),
        min_size=1, max_size=6, unique=True))
    return draw(st.sets(st.builds(UseTriple, st.sampled_from(symbols),
                                  st.sampled_from(list(UseKind)), AWKWARD_LOCATIONS),
                        max_size=30))


@st.composite
def awkward_footprints(draw) -> Footprint:
    """A footprint built in memory from ``awkward_triples`` whose labels and
    messages are awkward text too."""
    diagnostics = draw(st.lists(st.builds(Diagnostic, AWKWARD_LOCATIONS,
                                          st.sampled_from(list(DiagnosticKind)), AWKWARD),
                                max_size=4))
    return Footprint(draw(AWKWARD), draw(AWKWARD), draw(awkward_triples()), diagnostics)


@settings(max_examples=300, deadline=None)
@given(awkward_footprints())
def test_the_writer_encodes_awkward_text_as_json_dumps_does(fp):
    text = footprint_to_dict(fp)
    assert text == compact(naive_footprint_to_dict(fp))
    assert json.loads(text)["label"] == fp.label


def ranked(counts: Counter, key) -> list:
    return sorted(counts.items(), key=lambda kv: (-kv[1], *key(kv[0])))


@settings(max_examples=200, deadline=None)
@given(awkward_triples(), awkward_triples(), AWKWARD_LOCATIONS)
def test_the_grouped_algebra_is_the_algebra_of_triple_sets(t1, t2, extra):
    f1, f2 = Footprint("a", "lib", t1), Footprint("b", "lib", t2)
    for fp, triples in ((f1, t1), (f2, t2)):
        assert fp.triples == triples
        assert fp.unique_uses == {(t.symbol, t.use) for t in triples}
        assert fp.total_uses == len(triples)
        assert popularity(fp, by="Symbol") == ranked(
            Counter(t.symbol for t in triples), lambda sym: (sym.sort_key(),))
        assert popularity(fp) == ranked(
            Counter((t.symbol, t.use) for t in triples),
            lambda pair: (pair[0].sort_key(), pair[1].value))
    merged, rest = merge(f1, f2), diff(f1, f2)
    excluded = {(t.symbol, t.use) for t in t2}
    assert merged.triples == t1 | t2
    assert rest.triples == {t for t in t1 if (t.symbol, t.use) not in excluded}
    # Groups used again, as inputs or as the groups of a later result, do
    # not reach a result.
    for fp in (f1, f2, merge(rest, merged), diff(merged, rest)):
        for locations in fp.sites.values():
            locations.add(extra)
    assert merged.triples == t1 | t2
    assert rest.triples == {t for t in t1 if (t.symbol, t.use) not in excluded}


# Writes the footprint of the two uses of ``p.A.m`` that differ only in a
# null or an empty signature, the empty one at the earlier location, built
# with the pairs in either order and as a set; prints the three texts and
# the reference writer's.
NULL_AND_EMPTY_SIGNATURE = """
import json
from naive_coverage import naive_footprint_to_dict
from ucov import Footprint, Symbol, SymbolKind, UseKind, UseTriple, footprint_to_dict
from ucov.uses import Location

empty, null = (
    UseTriple(Symbol("p.A.m", SymbolKind.METHOD, signature), UseKind.METHOD_INVOCATION,
              Location("C.java", line, 5))
    for signature, line in (("", 3), (None, 7))
)
texts = [footprint_to_dict(Footprint("client", "p", triples))
         for triples in ([empty, null], [null, empty], {empty, null})]
reference = naive_footprint_to_dict(Footprint("client", "p", {empty, null}))
print(json.dumps(texts + [json.dumps(reference, ensure_ascii=False, separators=(",", ":"))]))
"""


def test_a_null_and_an_empty_signature_are_written_in_one_order_in_every_run():
    tests = Path(__file__).parent
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = os.pathsep.join((str(tests.parent / "src"), str(tests)))
    texts = []
    for seed in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", NULL_AND_EMPTY_SIGNATURE],
                              env={**env, "PYTHONHASHSEED": seed},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        texts += json.loads(proc.stdout)
    assert [json.loads(text)["uses"][0]["signature"] for text in texts] == [""] * 8
    assert texts == [texts[-1]] * 8


def test_footprint_dict_is_sorted():
    _, fp = extract("edges")
    uses = json.loads(footprint_to_dict(fp))["uses"]
    keys = [(u["fqn"], u["signature"] or "", u["use"], u["file"], u["line"], u["col"]) for u in uses]
    assert keys == sorted(keys)


def test_footprint_from_dict_rejects_wrong_model():
    model, fp = extract("edges")
    data = json.loads(footprint_to_dict(fp))
    with pytest.raises(ModelMismatch):
        footprint_from_dict(data, model_for("fluent"))
    data["library"] = "fluent"
    with pytest.raises(ModelMismatch):
        footprint_from_dict(data, model_for("fluent"))  # unknown symbols
