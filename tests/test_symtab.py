"""Symbol table construction, erasure, hierarchy, and name resolution."""

from __future__ import annotations

import pytest

from ucov import CyclicHierarchy, DuplicateSymbol, build_symbol_table, parse_unit
from ucov.model import SymbolKind
from ucov.symtab import ROOT_TYPE, Scope, declarations


def table_of(*sources: str):
    units = [parse_unit(src, f"S{i}.java") for i, src in enumerate(sources)]
    return build_symbol_table(units)


def test_fqn_assignment_and_nesting():
    table = table_of("package p.q;\npublic class A { public class B { } }")
    assert table.lookup_type("p.q.A") is not None
    inner = table.lookup_type("p.q.A.B")
    assert inner is not None
    assert inner.enclosing == "p.q.A"


def test_default_package_fqn():
    table = table_of("class A { }")
    assert table.lookup_type("A") is not None


def test_declarations_name_scope_and_type_parameters():
    units = [
        parse_unit("package p.q; public class A<T> { class B<U> { interface C { } } }",
                   "S0.java"),
        parse_unit("class D { } class E { }", "S1.java"),
    ]
    table = build_symbol_table(units)
    declared = declarations(units, table)
    assert [d.fqn for d in declared] == list(table.types)
    assert [d.fqn for d in declared] == ["p.q.A", "p.q.A.B", "p.q.A.B.C", "D", "E"]
    by_fqn = {d.fqn: d for d in declared}
    assert by_fqn["p.q.A"].scope.enclosing == ("p.q.A",)
    assert by_fqn["p.q.A.B.C"].scope.enclosing == ("p.q.A", "p.q.A.B", "p.q.A.B.C")
    assert by_fqn["D"].scope.enclosing == ("D",)
    assert by_fqn["p.q.A"].scope.type_params == {"T"}
    assert by_fqn["p.q.A.B"].scope.type_params == {"T", "U"}
    assert by_fqn["p.q.A.B.C"].scope.type_params == {"T", "U"}
    assert by_fqn["E"].scope.type_params == frozenset()
    assert by_fqn["p.q.A.B.C"].decl.simple_name == "C"
    assert by_fqn["p.q.A.B"].scope.single_imports is by_fqn["p.q.A"].scope.single_imports
    assert by_fqn["D"].scope.package == "" and by_fqn["p.q.A"].scope.package == "p.q"
    assert all(d.scope.table is table for d in declared)


def test_units_with_the_same_path_keep_their_own_imports():
    units = [
        parse_unit("package a; public class Base { }", "X.java"),
        parse_unit("package c; public class Base { }", "Y.java"),
        parse_unit("package b; import c.Base; public class C extends Base { }", "X.java"),
    ]
    assert build_symbol_table(units).lookup_type("b.C").supertypes == ("c.Base",)


def test_synthesized_constructor():
    table = table_of("package p; public class A { }")
    ctors = [
        m for m in table.members_of("p.A") if m.kind is SymbolKind.CONSTRUCTOR
    ]
    assert len(ctors) == 1
    assert ctors[0].synthesized
    assert ctors[0].signature == "A()"
    assert ctors[0].visibility() == "public"


def test_declared_constructor_suppresses_synthesis():
    table = table_of("package p; public class A { private A(int x) { } }")
    ctors = [
        m for m in table.members_of("p.A") if m.kind is SymbolKind.CONSTRUCTOR
    ]
    assert len(ctors) == 1
    assert not ctors[0].synthesized
    assert ctors[0].signature == "A(int)"


def test_interfaces_get_no_constructor_and_normalized_members():
    table = table_of("package p; public interface I { int K = 1; void f(); }")
    members = {m.name: m for m in table.members_of("p.I")}
    assert all(m.kind is not SymbolKind.CONSTRUCTOR for m in members.values())
    assert {"static", "final", "public"} <= members["K"].modifiers
    assert {"abstract", "public"} <= members["f"].modifiers


def test_erased_signatures():
    table = table_of(
        "package p; import java.util.List;\n"
        "public class A<T> { public void f(List<T> xs, T x, int[] a) { } }"
    )
    (m,) = [x for x in table.members_of("p.A") if x.name == "f"]
    assert m.signature == f"f(java.util.List,{ROOT_TYPE},int[])"


def test_erasure_invariant_under_type_parameter_renaming():
    sig = lambda src: [
        m.signature
        for m in table_of(src).members_of("p.A")
        if m.kind is SymbolKind.METHOD
    ]
    assert sig("package p; public class A<E> { public boolean add(E e) { } }") == sig(
        "package p; public class A<T> { public boolean add(T t) { } }"
    )


def test_duplicate_type_and_member_rejected():
    with pytest.raises(DuplicateSymbol):
        table_of("package p; class A { }", "package p; class A { }")
    with pytest.raises(DuplicateSymbol):
        table_of("package p; class A { void f(int x) { } void f(int y) { } }")


def test_overloads_are_not_duplicates():
    table = table_of("package p; class A { void f(int x) { } void f(String s) { } }")
    assert len([m for m in table.members_of("p.A") if m.name == "f"]) == 2


def test_cyclic_hierarchy_rejected():
    with pytest.raises(CyclicHierarchy):
        table_of("package p; class A extends B { }", "package p; class B extends A { }")
    with pytest.raises(CyclicHierarchy):
        table_of("package p; interface I extends I { }")


@pytest.mark.parametrize(
    "sources,message",
    [
        (
            ("package p; class A extends B { }", "package p; class B extends C { }",
             "package p; class C extends A { }"),
            "supertype cycle: p.A -> p.B -> p.C -> p.A",
        ),
        (
            ("package p; class X extends A { }", "package p; class A extends B { }",
             "package p; class B extends A { }"),
            "supertype cycle: p.X -> p.A -> p.B -> p.A",
        ),
        (("package p; interface I extends I { }",), "supertype cycle: p.I -> p.I"),
    ],
)
def test_cycle_message_names_the_walked_path(sources, message):
    with pytest.raises(CyclicHierarchy) as raised:
        table_of(*sources)
    assert str(raised.value) == message


def test_a_client_cycle_through_a_library_type_is_rejected():
    # The library's Ext is external; the client's Ext completes the cycle.
    lib = table_of("package p; public class L extends Ext { public void m() { } }")
    client = parse_unit("public class Ext extends p.L { public void m() { } }", "Ext.java")
    with pytest.raises(CyclicHierarchy) as raised:
        build_symbol_table([client], base=lib)
    assert str(raised.value) == "supertype cycle: Ext -> p.L -> Ext"


def test_deep_hierarchy_is_checked_without_recursion():
    chain = "".join(f"class A{i} extends A{i + 1} {{ }}\n" for i in range(5000))
    table = table_of(f"package p;\n{chain}class A5000 {{ int x; }}")
    assert len(table.supertype_closure("p.A0")) == 5001
    assert table.find_field("p.A0", "x").declaring == "p.A5000"
    with pytest.raises(CyclicHierarchy) as raised:
        table_of(f"package p;\n{chain}class A5000 extends A0 {{ }}")
    assert str(raised.value).startswith("supertype cycle: p.A0 -> p.A1 -> ")
    assert str(raised.value).endswith(" -> p.A5000 -> p.A0")


def test_unknown_supertype_is_external_not_error():
    table = table_of("package p; public class A extends Unseen { }")
    info = table.lookup_type("p.A")
    assert info.supertypes == ("Unseen",)
    assert info.external_supertypes == frozenset({"Unseen"})


def test_supertype_closure_nearest_first_no_duplicates():
    table = table_of(
        "package p; interface I { }",
        "package p; interface J extends I { }",
        "package p; class A implements I { }",
        "package p; class B extends A implements J { }",
    )
    closure = table.supertype_closure("p.B")
    assert closure[0] == "p.B"
    assert set(closure) == {"p.B", "p.A", "p.J", "p.I"}
    assert len(closure) == len(set(closure))  # diamond visited once
    assert closure.index("p.A") < closure.index("p.I")
    assert "p.I" in table.supertype_closure("p.B")
    assert "p.B" not in table.supertype_closure("p.I")


def test_overlay_table_sees_base_types():
    lib = table_of("package lib; public class A { }")
    client_unit = parse_unit(
        "package app; import lib.A; class C extends A { }", "C.java"
    )
    client = build_symbol_table([client_unit], base=lib)
    assert client.lookup_type("lib.A") is not None
    assert client.lookup_type("app.C").supertypes == ("lib.A",)
    assert lib.lookup_type("app.C") is None  # base is not polluted


def test_a_client_type_shadows_a_library_type_of_the_same_fqn():
    lib = table_of("package lib; public class A { public void f() { } }")
    client_unit = parse_unit("package lib; class A { void g() { } }", "A.java")
    client = build_symbol_table([client_unit], base=lib)
    assert [m.name for m in client.lookup_type("lib.A").members] == ["g", "A"]
    assert [m.name for m in lib.lookup_type("lib.A").members] == ["f", "A"]
    assert list(lib.types) == ["lib.A"]


def test_resolve_type_name_precedence():
    table = table_of(
        "package p; class Local { }",
        "package q; public class Imported { }",
        "package r; public class OnDemand { }",
    )
    unit = parse_unit(
        "package p; import q.Imported; import r.*; class X { }", "X.java"
    )
    scope = Scope.for_unit(table, unit)
    assert scope.resolve_type("Local") == ("p.Local", True)
    assert scope.resolve_type("Imported") == ("q.Imported", True)
    assert scope.resolve_type("OnDemand") == ("r.OnDemand", True)
    assert scope.resolve_type("Nowhere") == ("Nowhere", False)
    assert scope.resolve_type("q.Imported") == ("q.Imported", True)


def test_type_params_resolve_to_root_type():
    table = table_of("package p; class A { }")
    unit = parse_unit("package p; class X { }", "X.java")
    scope = Scope.for_unit(table, unit)._replace(type_params=frozenset({"T"}))
    fqn, known = scope.resolve_type("T")
    assert fqn == ROOT_TYPE
    assert known is (table.lookup_type(ROOT_TYPE) is not None)


def test_find_field_searches_supertypes():
    table = table_of(
        "package p; public class A { public int x; }",
        "package p; public class B extends A { }",
    )
    f = table.find_field("p.B", "x")
    assert f is not None and f.declaring == "p.A"
    assert table.find_field("p.B", "missing") is None


def test_cached_queries_repeat_and_cannot_be_changed_by_callers():
    table = table_of(
        "package p; public class A { public void m() { } public void m(int x) { } }",
        "package p; public class B extends A { public void m() { } }",
    )
    closure = table.supertype_closure("p.B")
    assert closure == ("p.B", "p.A")
    with pytest.raises((AttributeError, TypeError)):
        closure.append("p.X")
    with pytest.raises(TypeError):
        closure[0] = "p.X"
    assert table.supertype_closure("p.B") == ("p.B", "p.A")
    assert table.supertype_closure("p.B")[1:] == ("p.A",)
    res = table.resolve_method("p.B", "m", [])
    assert table.resolve_method("p.B", "m", []) == res
    assert res.member.declaring == "p.B"
    assert table.resolve_method("p.B", "m", ["int"]).member.signature == "m(int)"
    supers = table.super_methods(res.member)
    assert table.super_methods(res.member) == supers
    assert [(m.declaring, m.signature) for m in supers] == [("p.A", "m()")]
    assert table.find_field("p.B", "x") is table.find_field("p.B", "x") is None


def test_overlay_tables_do_not_share_caches():
    # The library leaves supertype Ext unresolved; the client declares it.
    lib = table_of("package l; public class A extends Ext { }")
    client = build_symbol_table(
        [parse_unit("public class Ext { public void e() { } }", "Ext.java")], base=lib
    )
    assert lib.supertype_closure("l.A") == ("l.A", "Ext")
    assert lib.resolve_method("l.A", "e", []).member is None
    assert client.resolve_method("l.A", "e", []).member.declaring == "Ext"
    assert lib.resolve_method("l.A", "e", []).member is None


def test_type_and_member_infos_compare_by_value():
    """Types and members are hashable values that compare by their fields."""
    source = "package p; public class A { public int x; public void m(int a) { } }"
    first, second = table_of(source), table_of(source)
    a, b = first.lookup_type("p.A"), second.lookup_type("p.A")
    assert a is not b and a == b
    assert hash(a) == hash(b) and {a: 1}[b] == 1
    assert set(a.members) == set(b.members) and a.members[0] is not b.members[0]
    assert [m.visibility() for m in a.members] == ["public", "public", "public"]
    assert a.visibility() == "public"
    assert a != table_of(source.replace("int x", "long x")).lookup_type("p.A")
