"""Export rules, effective extensibility, legal uses, and model serialization."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, model_for, parse_tree
from naive_coverage import naive_model_to_dict
from test_coverage_data import compact
from test_footprint import AWKWARD
from ucov import (
    Symbol,
    UseKind,
    build_sum,
    model_from_dict,
    model_to_dict,
    parse_unit,
)
from ucov.model import SymbolKind, UsageModel
from ucov.symtab import MemberInfo, SymbolTable, TypeInfo, declarations
from ucov.typing_env import Env

U = UseKind


def sum_of(*sources: str, name="lib"):
    units = [parse_unit(src, f"L{i}.java") for i, src in enumerate(sources)]
    return build_sum(units, name)


def uses_map(model):
    return {
        (s.fqn, s.signature): set(uses) for s, uses in model.entries.items()
    }


# ---------------------------------------------------------------------------
# Export rules
# ---------------------------------------------------------------------------


def test_only_public_top_level_types_are_exported():
    model = sum_of("package p; public class A { } class B { }")
    assert {s.fqn for s in model.entries} >= {"p.A"}
    assert all(s.fqn != "p.B" for s in model.entries)


def test_members_of_non_exported_types_are_not_exported():
    model = sum_of("package p; class B { public void f() { } }")
    assert model.entries == {}


def test_private_and_package_private_members_are_not_exported():
    model = sum_of(
        "package p; public class A { public A() { } private int x; int y; "
        "public int z; }"
    )
    fields = {s.fqn for s in model.entries if s.kind is SymbolKind.FIELD}
    assert fields == {"p.A.z"}


def test_protected_member_exported_only_in_extensible_type():
    extensible = sum_of(
        "package p; public class A { public A() { } protected int x; }"
    )
    assert ("p.A.x", None) in uses_map(extensible)
    final_type = sum_of(
        "package p; public final class A { public A() { } protected int x; }"
    )
    assert ("p.A.x", None) not in uses_map(final_type)
    private_ctor = sum_of(
        "package p; public class A { private A() { } protected int x; }"
    )
    assert ("p.A.x", None) not in uses_map(private_ctor)


def test_nested_type_export_is_transitive():
    model = sum_of(
        "package p; public class A { public A() { } public class In { } } "
        "class B { public class In2 { } }"
    )
    fqns = {s.fqn for s in model.entries}
    assert "p.A.In" in fqns
    assert "p.B.In2" not in fqns


# ---------------------------------------------------------------------------
# Legal uses
# ---------------------------------------------------------------------------


def test_concrete_public_class_legal_uses():
    m = uses_map(sum_of("package p; public class A { public A() { } }"))
    assert m[("p.A", None)] == {U.TYPE_REFERENCE, U.INSTANTIATION, U.INHERITANCE}
    assert m[("p.A.A", "A()")] == {U.CONSTRUCTOR_INVOCATION}


def test_final_class_is_not_inheritable():
    m = uses_map(sum_of("package p; public final class A { public A() { } }"))
    assert m[("p.A", None)] == {U.TYPE_REFERENCE, U.INSTANTIATION}


def test_sealed_class_is_not_inheritable():
    m = uses_map(
        sum_of("package p; public sealed class A permits B { public A() { } }")
    )
    assert U.INHERITANCE not in m[("p.A", None)]


def test_abstract_class_is_not_instantiable():
    m = uses_map(sum_of("package p; public abstract class A { public A() { } }"))
    assert m[("p.A", None)] == {U.TYPE_REFERENCE, U.INHERITANCE}


def test_class_without_public_constructor_is_not_instantiable():
    m = uses_map(sum_of("package p; public class A { protected A() { } }"))
    # protected constructor: extensible, but not instantiable by clients
    assert m[("p.A", None)] == {U.TYPE_REFERENCE, U.INHERITANCE}
    m = uses_map(sum_of("package p; public class A { private A() { } }"))
    assert m[("p.A", None)] == {U.TYPE_REFERENCE}


def test_interface_legal_uses():
    m = uses_map(sum_of("package p; public interface I { void f(); }"))
    assert m[("p.I", None)] == {
        U.TYPE_REFERENCE,
        U.IMPLEMENTATION,
        U.INTERFACE_EXTENSION,
    }
    assert m[("p.I.f", "f()")] == {U.METHOD_INVOCATION, U.OVERRIDING}


def test_sealed_interface_is_not_extensible():
    m = uses_map(sum_of("package p; public sealed interface I permits A { }"))
    assert m[("p.I", None)] == {U.TYPE_REFERENCE}


def test_method_legal_uses():
    m = uses_map(
        sum_of(
            "package p; public class A { public A() { } "
            "public void v() { } "
            "public final void fin() { } "
            "public static void st() { } }"
        )
    )
    assert m[("p.A.v", "v()")] == {U.METHOD_INVOCATION, U.OVERRIDING}
    assert m[("p.A.fin", "fin()")] == {U.METHOD_INVOCATION}
    assert m[("p.A.st", "st()")] == {U.STATIC_INVOCATION}


def test_method_in_non_extensible_class_is_not_overridable():
    m = uses_map(
        sum_of("package p; public final class A { public A() { } public void v() { } }")
    )
    assert m[("p.A.v", "v()")] == {U.METHOD_INVOCATION}


def test_field_legal_uses():
    m = uses_map(
        sum_of(
            "package p; public class A { public A() { } "
            "public int rw; public final int ro = 1; }"
        )
    )
    assert m[("p.A.rw", None)] == {U.FIELD_READ, U.FIELD_WRITE}
    assert m[("p.A.ro", None)] == {U.FIELD_READ}


def test_interface_constants_are_read_only():
    m = uses_map(sum_of("package p; public interface I { int K = 1; }"))
    assert m[("p.I.K", None)] == {U.FIELD_READ}


def test_synthesized_constructor_is_exported():
    m = uses_map(sum_of("package p; public class A { }"))
    assert m[("p.A.A", "A()")] == {U.CONSTRUCTOR_INVOCATION}


# ---------------------------------------------------------------------------
# Whole-library models
# ---------------------------------------------------------------------------


def test_arraylist_model(arraylist_model):
    m = uses_map(arraylist_model)
    assert m == {
        ("java.util.ArrayList", None): {
            U.TYPE_REFERENCE,
            U.INSTANTIATION,
            U.INHERITANCE,
        },
        ("java.util.ArrayList.ArrayList", "ArrayList()"): {U.CONSTRUCTOR_INVOCATION},
        ("java.util.ArrayList.add", "add(java.lang.Object)"): {
            U.METHOD_INVOCATION,
            U.OVERRIDING,
        },
    }
    assert arraylist_model.legal_use_count == 6


def test_symbol_identity_is_fqn_kind_and_signature():
    assert Symbol._fields == ("fqn", "kind", "signature")
    field = Symbol("a.B.C", SymbolKind.FIELD, None)
    bare = Symbol("a.B.C", SymbolKind.FIELD)
    assert field == bare and hash(field) == hash(bare)
    assert field != Symbol("a.B.C", SymbolKind.CLASS)
    method = Symbol("a.B.f", SymbolKind.METHOD, "f()")
    assert method == Symbol("a.B.f", SymbolKind.METHOD, "f()")
    assert method != Symbol("a.B.f", SymbolKind.METHOD, "f(int)")


def test_one_kind_from_declaration_to_symbol():
    """Each symbol's kind is the very kind of its type or member info and
    of its declaration (a synthesized constructor has none). An environment
    reads the table of its name-resolution context."""
    units = parse_tree(FIXTURES / "edges" / "lib")
    model = build_sum(units, "edges")
    table = model.table
    decls = {d.fqn: d for d in declarations(units, table)}
    assert {sym.kind for sym in model.entries} == set(SymbolKind)
    for sym in model.entries:
        if sym.kind in (SymbolKind.CLASS, SymbolKind.INTERFACE):
            info = table.lookup_type(sym.fqn)
            decl = decls[sym.fqn].decl
        else:
            declaring = sym.fqn.rpartition(".")[0]
            (info,) = [m for m in table.members_of(declaring)
                       if (m.fqn, m.signature) == (sym.fqn, sym.signature)]
            found = [m for m in decls[declaring].decl.members if m.location is info.location]
            if info.synthesized:
                assert found == []
                continue
            (decl,) = found
        assert sym.kind is info.kind is decl.kind
    for d in decls.values():
        env = Env(d.scope)
        assert env.table is d.scope.table is table and env.child().table is table


@pytest.mark.parametrize("section, kind", [("types", "Field"), ("members", "Interface")])
def test_a_type_kind_for_a_member_or_the_reverse_is_malformed(arraylist_model, section, kind):
    data = json.loads(model_to_dict(arraylist_model))
    data["resolution"][section][0]["kind"] = kind
    with pytest.raises(ValueError, match="is not the kind of a"):
        model_from_dict(data).table


def test_is_exported_agrees_with_the_model():
    model = sum_of(
        "package p; public class A { public A() { } private int x; public int y; "
        "public void f() { } void g() { } public static class y { } }"
    )
    assert Symbol("p.A.y", SymbolKind.FIELD) in model.entries
    assert Symbol("p.A.y", SymbolKind.CLASS) in model.entries
    assert Symbol("p.A.x", SymbolKind.FIELD) not in model.entries
    assert Symbol("p.A.g", SymbolKind.METHOD, "g()") not in model.entries
    assert Symbol("p.A.y", SymbolKind.METHOD) not in model.entries


def test_model_entries_are_sorted():
    model = model_for("edges")
    keys = [s.sort_key() for s in model.entries]
    assert keys == sorted(keys)


def test_legal_use_count_sums_entries(tablerows_model):
    assert tablerows_model.legal_use_count == sum(
        len(v) for v in tablerows_model.entries.values()
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_model_round_trip(arraylist_model):
    # edges has fields, void and typed methods, and declared and synthesized
    # constructors: the type of each kind of member round-trips.
    for model in (arraylist_model, model_for("edges")):
        data = json.loads(model_to_dict(model))
        clone = model_from_dict(json.loads(json.dumps(data)))
        assert uses_map(clone) == uses_map(model)
        assert clone.library_name == model.library_name
        assert json.loads(model_to_dict(clone)) == data


def test_model_serialization_is_deterministic():
    a = json.dumps(json.loads(model_to_dict(model_for("edges"))), sort_keys=True)
    b = json.dumps(json.loads(model_to_dict(model_for("edges"))), sort_keys=True)
    assert a == b


def test_model_dict_shape(arraylist_model):
    data = json.loads(model_to_dict(arraylist_model))
    assert data["library"] == "arraylist"
    assert [s["fqn"] for s in data["symbols"]] == sorted(
        s["fqn"] for s in data["symbols"]
    )
    entry = data["symbols"][0]
    assert set(entry) == {"fqn", "kind", "signature", "modifiers", "uses"}
    assert entry["uses"] == sorted(entry["uses"])


LIBRARIES = sorted(p.parent.name for p in FIXTURES.glob("*/lib"))


@pytest.mark.parametrize("library", LIBRARIES)
def test_the_model_writer_writes_what_json_dumps_writes_for_the_reference_dict(library):
    model = model_for(library)
    assert model_to_dict(model) == compact(naive_model_to_dict(model))


AWKWARD_NAMES = st.lists(AWKWARD, max_size=3)


@st.composite
def awkward_members(draw, declaring: str) -> MemberInfo:
    kind = draw(st.sampled_from([SymbolKind.METHOD, SymbolKind.CONSTRUCTOR, SymbolKind.FIELD]))
    return MemberInfo(
        declaring=declaring,
        kind=kind,
        name=draw(AWKWARD),
        modifiers=frozenset(draw(AWKWARD_NAMES)),
        signature=None if kind is SymbolKind.FIELD else draw(AWKWARD),
        param_types=tuple(draw(AWKWARD_NAMES)),
        type=draw(st.none() | AWKWARD),
        synthesized=kind is SymbolKind.CONSTRUCTOR and draw(st.booleans()),
    )


@st.composite
def awkward_models(draw) -> UsageModel:
    """A model built in memory whose library name, names, signatures and
    modifiers hold quotes, backslashes, control characters, U+2028 and
    non-BMP text, or are empty. A type may be nested or not (a null
    ``enclosing``), and a constructor may be synthesized. Some declarations
    are exported, with any use set, in any order."""
    table = SymbolTable()
    declared = []
    for fqn in draw(st.lists(AWKWARD, min_size=1, max_size=3, unique=True)):
        info = TypeInfo(
            fqn=fqn,
            kind=draw(st.sampled_from([SymbolKind.CLASS, SymbolKind.INTERFACE])),
            modifiers=frozenset(draw(AWKWARD_NAMES)),
            type_params=tuple(draw(AWKWARD_NAMES)),
            supertypes=tuple(draw(AWKWARD_NAMES)),
            external_supertypes=frozenset(draw(AWKWARD_NAMES)),
            members=tuple(draw(st.lists(awkward_members(fqn), max_size=3))),
            enclosing=draw(st.none() | AWKWARD),
        )
        table.types[fqn] = info
        declared.append(Symbol(fqn, info.kind))
        declared += [Symbol(m.fqn, m.kind, m.signature) for m in info.members]
    exported = draw(st.permutations(declared))[:draw(st.integers(0, len(declared)))]
    entries = {sym: frozenset(draw(st.sets(st.sampled_from(list(UseKind)), max_size=4)))
               for sym in exported}
    return UsageModel(draw(AWKWARD), entries, table)


@settings(max_examples=100, deadline=None)
@given(awkward_models())
def test_the_model_writer_encodes_awkward_text_as_json_dumps_does(model):
    text = model_to_dict(model)
    assert text == compact(naive_model_to_dict(model))
    assert json.loads(text)["library"] == model.library_name


MODELS_OF_EVERY_LIBRARY = """
import json, sys
from pathlib import Path
from ucov import build_sum, model_to_dict, parse_unit

def model_text(lib):
    units = [parse_unit(p.read_text(encoding="utf-8"), str(p)) for p in sorted(lib.rglob("*.java"))]
    return model_to_dict(build_sum(units, lib.parent.name))

print(json.dumps([model_text(Path(lib)) for lib in sys.argv[1:]]))
"""


def test_every_library_model_is_written_in_one_order_in_every_run():
    # The writer's memos are keyed by sets, whose iteration order follows
    # the hash seed; the text must not.
    tests = Path(__file__).parent
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = os.pathsep.join((str(tests.parent / "src"), str(tests)))
    texts = []
    for seed in ("1", "2"):
        libs = [str(FIXTURES / library / "lib") for library in LIBRARIES]
        proc = subprocess.run([sys.executable, "-c", MODELS_OF_EVERY_LIBRARY, *libs],
                              env={**env, "PYTHONHASHSEED": seed},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        texts.append(json.loads(proc.stdout))
    assert texts[0] == texts[1]
    assert texts[0] == [model_to_dict(model_for(library)) for library in LIBRARIES]


def test_build_sum_and_the_writer_make_each_sort_key_once(monkeypatch):
    calls = []
    sort_key = Symbol.sort_key

    def counted(sym):
        calls.append(sym)
        return sort_key(sym)

    monkeypatch.setattr(Symbol, "sort_key", counted)
    model = model_for("edges")
    model_to_dict(model)
    assert sorted(calls) == sorted(model.entries)


def test_members_share_their_legal_use_sets():
    model = model_for("edges")
    member_uses = [uses for sym, uses in model.entries.items()
                   if sym.kind not in (SymbolKind.CLASS, SymbolKind.INTERFACE)]
    assert len({id(uses) for uses in member_uses}) == len(set(member_uses)) < len(member_uses)
