"""Long receiver chains and deep nesting: linear cost and a bounded stack."""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from oracle import oracle_extract
from ucov import ParseError, build_sum, extract_uses, footprint, parse_unit, typing_env
from ucov.cli import main
from ucov.parser import MAX_NESTING
from ucov.symtab import SymbolTable

LIB_A = "package b; public class A { public A m() { return this; } }"
LIB_B = """package b;
public class B extends A {
    public B m() { return this; }
    public B v;
    public static B s() { return null; }
}
"""


def client(body: str) -> str:
    return (
        "package c; import b.B; public class C { public Object run(B b, int a) { "
        + body
        + " } }\n"
    )


def chain(links: int) -> str:
    """A statement with one chain of ``links`` method calls and field reads."""
    return "return B.s()" + "".join(".v" if i % 3 == 2 else ".m()" for i in range(links)) + ";"


@pytest.fixture(scope="module")
def model():
    return build_sum([parse_unit(LIB_A, "A.java"), parse_unit(LIB_B, "B.java")], "b")


def test_2000_call_chain_extracts(tmp_path, capsys):
    lib = tmp_path / "lib" / "b"
    lib.mkdir(parents=True)
    (lib / "A.java").write_text(LIB_A)
    (lib / "B.java").write_text(LIB_B)
    src = tmp_path / "src"
    src.mkdir()
    (src / "C.java").write_text(client("return b.m()" + ".m()" * 2000 + ";"))
    sum_path, out = tmp_path / "sum.json", tmp_path / "suf.json"
    assert main(["sum", str(tmp_path / "lib"), "-o", str(sum_path)]) == 0
    assert main(["suf", "--sum", str(sum_path), "--lenient", str(src), "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    calls = Counter(u["fqn"] for u in data["uses"] if u["use"] == "MethodInvocation")
    # every call on B covers B.m and, by the virtual-invocation closure, A.m
    assert calls == {"b.B.m": 2001, "b.A.m": 2001}
    assert data["diagnostics"] == []


def test_typing_and_resolution_grow_linearly_with_chain_length(model, monkeypatch):
    counts: Counter = Counter()
    resolve_method = SymbolTable.resolve_method

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(SymbolTable, "resolve_method", counted("resolve_method", resolve_method))
    # link typing is counted too: it runs once per chain link
    monkeypatch.setattr(typing_env, "_type_link", counted("_type_link", typing_env._type_link))
    static_type_of = counted("static_type_of", typing_env.static_type_of)
    for module in (typing_env, footprint):
        monkeypatch.setattr(module, "static_type_of", static_type_of)

    def extract(links: int) -> Counter:
        counts.clear()
        extract_uses([parse_unit(client(chain(links)), "C.java")], model)
        return Counter(counts)

    short, long = extract(500), extract(2000)
    for name in ("resolve_method", "static_type_of", "_type_link"):
        assert 0 < long[name] <= 4 * short[name] + 8, (name, short, long)
    # one resolution per call site
    assert long["resolve_method"] <= sum(1 for i in range(2000) if i % 3 != 2) + 1


def test_long_chain_matches_the_oracle(model):
    units = [parse_unit(client(chain(300)), "C.java")]
    fp = extract_uses(units, model)
    got = {(t.symbol.fqn, t.symbol.signature, t.use, t.location) for t in fp.triples}
    assert len(got) > 300
    assert got == oracle_extract(units, model)


def unknown_chain(links: int) -> str:
    """A class with three chains of ``links`` field reads: on an unknown
    name ``q``, on the qualified type name ``b.B`` through a field ``q``
    that B lacks, and on the result of ``b.B.s()``."""
    return (
        "package c; import b.B; public class C { public Object run(int a) { "
        + "Object o = q" + ".z" * links + "; "
        + "o = b.B.q" + ".z" * links + "; "
        + "return b.B.s()" + ".v" * links + "; } }\n"
    )


def python_lines(fn) -> int:
    """Lines of the program's own code that ``fn()`` executes."""
    src = str(Path(footprint.__file__).parent)
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code.co_filename.startswith(src) else None)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


def test_unknown_receiver_chains_cost_linear_time(model):
    def lines(links: int) -> int:
        unit = parse_unit(unknown_chain(links), "C.java")
        return python_lines(lambda: extract_uses([unit], model))

    short, long = lines(500), lines(2000)
    assert 0 < long <= 4 * short, (short, long)


def test_unknown_receiver_chain_matches_the_oracle(model):
    units = [parse_unit(unknown_chain(300), "C.java")]
    fp = extract_uses(units, model)
    got = {(t.symbol.fqn, t.symbol.signature, t.use, t.location) for t in fp.triples}
    assert len(got) > 300
    assert got == oracle_extract(units, model)


# Each maker gives a file nesting one construct ``k`` deep.
NESTED = {
    "parentheses": lambda k: client("return " + "(" * k + "b" + ")" * k + ";"),
    "arguments": lambda k: client("return " + "b.f(" * k + "b" + ")" * k + ";"),
    "unary": lambda k: client("return " + "!" * k + "a;"),
    "casts": lambda k: client("return " + "(B)" * k + "b;"),
    "blocks": lambda k: client("{" * k + "return b;" + "}" * k),
    "ifs": lambda k: client("if (a > 0) " * k + "return b; return b;"),
    "assignments": lambda k: client("a" + " = a" * k + "; return b;"),
    "rising-precedence": lambda k: client(
        "return " + "a || a && a | a ^ a & a == a < a + a * (" * k + "b" + ")" * k + ";"
    ),
    "lambdas": lambda k: client("return " + "(x) -> " * k + "b;"),
    "block-lambdas": lambda k: client("return " + "(x) -> { return " * k + "b" + "; }" * k + ";"),
    "anonymous-classes": lambda k: client(
        "return " + "new B() { public B m() { return " * k + "b" + "; } }" * k + ";"
    ),
    "type-arguments": lambda k: client("B" + "<B" * k + ">" * k + " x = b; return x;"),
    "nested-classes": lambda k: "import b.B; public class C0 {"
    + "".join(f" public class C{i} {{" for i in range(1, k))
    + " B f;"
    + " }" * k,
}


def _parses(text: str) -> bool:
    try:
        parse_unit(text, "C.java")
    except ParseError:
        return False
    return True


@pytest.mark.parametrize("kind", NESTED)
def test_deepest_accepted_nesting_parses_and_extracts(kind, model):
    assert sys.getrecursionlimit() == 1000
    make = NESTED[kind]
    k = 1
    while _parses(make(k + 1)):
        k += 1
    assert MAX_NESTING // 4 <= k <= MAX_NESTING
    # Parsing, extraction and a model of the deepest accepted file stay
    # within the stack.
    unit = parse_unit(make(k), "C.java")
    assert extract_uses([unit], model).triples
    assert build_sum([unit], "deep").entries
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse_unit(make(k + 1), "C.java")


def test_3000_nested_parentheses_are_a_parse_error():
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse_unit(client("return " + "(" * 3000 + "b" + ")" * 3000 + ";"), "C.java")


def test_long_operator_chains_are_not_nesting(model):
    text = client("a = " + " + ".join(["b.v.m().v"] * 1500) + "; return b;")
    fp = extract_uses([parse_unit(text, "C.java")], model)
    assert sum(1 for t in fp.triples if t.symbol.fqn == "b.B.v") == 3000


def test_no_recursion_limit_is_raised_in_the_program():
    src = Path(__file__).resolve().parent.parent / "src" / "ucov"
    offenders = [p.name for p in src.rglob("*.py") if "setrecursionlimit" in p.read_text()]
    assert offenders == []
