"""Seeded J-lite corpora for the ucov benchmark.

Each workload is a library plus labeled client groups, written under one
directory together with the corpus config that ``ucov suf --config`` reads.
The same (workload, seed) always yields the same files. Sizes are fixed per
workload; the seed only picks which API members each client touches, so
every seed costs about the same to analyse.

The generator also derives, from its own description of the library, the
model size that ``ucov sum`` must report (symbols, legal uses per use kind)
and the number of planted unparseable client files, which the benchmark's
correctness gate checks against the program's outputs.

Run standalone to print a workload's input size:

    python3 perfbench/corpus.py --workload classic-corpus --seed 1 --out /tmp/c
"""

from __future__ import annotations

import argparse
import json
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("classic-corpus", "deep-fluent", "wide-api")

# Use-kind names as they appear in the model and profile JSON.
TYPE_REFERENCE = "TypeReference"
INSTANTIATION = "Instantiation"
INHERITANCE = "Inheritance"
IMPLEMENTATION = "Implementation"
INTERFACE_EXTENSION = "InterfaceExtension"
CONSTRUCTOR_INVOCATION = "ConstructorInvocation"
METHOD_INVOCATION = "MethodInvocation"
STATIC_INVOCATION = "StaticInvocation"
OVERRIDING = "Overriding"
FIELD_READ = "FieldRead"
FIELD_WRITE = "FieldWrite"
USE_KINDS = (
    TYPE_REFERENCE, INSTANTIATION, INHERITANCE, IMPLEMENTATION, INTERFACE_EXTENSION,
    CONSTRUCTOR_INVOCATION, METHOD_INVOCATION, STATIC_INVOCATION, OVERRIDING,
    FIELD_READ, FIELD_WRITE,
)

_TOKEN = re.compile(r"[A-Za-z_]\w*|\d+|->|==|!=|<=|>=|&&|\|\||\+\+|--|\S")


# ---------------------------------------------------------------------------
# Library description
# ---------------------------------------------------------------------------


@dataclass
class Method:
    name: str
    params: list[str]  # type names as written: primitives or simple lib type names
    ret: str  # "void", a primitive or a simple lib type name
    static: bool = False
    final: bool = False
    abstract: bool = False


@dataclass
class Field:
    name: str
    type: str
    final: bool = False


@dataclass
class LibType:
    pkg: str
    name: str
    kind: str  # "class" or "interface"
    abstract: bool = False
    final: bool = False
    extends: list["LibType"] = field(default_factory=list)
    implements: list["LibType"] = field(default_factory=list)
    ctors: list[list[str]] = field(default_factory=list)
    methods: list[Method] = field(default_factory=list)
    fields: list[Field] = field(default_factory=list)

    @property
    def fqn(self) -> str:
        return f"{self.pkg}.{self.name}"

    @property
    def is_interface(self) -> bool:
        return self.kind == "interface"

    @property
    def instantiable(self) -> bool:
        return not self.is_interface and not self.abstract


def legal_use_counts(types: list[LibType]) -> tuple[int, Counter]:
    """Exported symbols and legal uses per use kind of a generated library.

    Every generated type is public and top-level and every member public, so
    all of them are exported; the legal uses follow the model's rules for
    that subset (see README.md of the repository, "Semantics in brief").
    """
    symbols = 0
    uses: Counter = Counter()
    for t in types:
        symbols += 1
        uses[TYPE_REFERENCE] += 1
        if t.is_interface:
            uses[IMPLEMENTATION] += 1
            uses[INTERFACE_EXTENSION] += 1
        else:
            if not t.abstract:
                uses[INSTANTIATION] += 1
            if not t.final:
                uses[INHERITANCE] += 1
            n_ctors = len(t.ctors) or 1  # a class without one gets a synthesized ctor
            symbols += n_ctors
            uses[CONSTRUCTOR_INVOCATION] += n_ctors
        for m in t.methods:
            symbols += 1
            if m.static:
                uses[STATIC_INVOCATION] += 1
            else:
                uses[METHOD_INVOCATION] += 1
                if not m.final and not t.final:
                    uses[OVERRIDING] += 1
        for f in t.fields:
            symbols += 1
            uses[FIELD_READ] += 1
            if not f.final and not t.is_interface:
                uses[FIELD_WRITE] += 1
    return symbols, uses


def _default_value(type_name: str) -> str:
    if type_name == "int":
        return "0"
    if type_name == "boolean":
        return "false"
    return "null"


def render_type(t: LibType, by_name: dict[str, LibType]) -> str:
    """J-lite source of one library type, importing what it references."""
    referenced = set()
    for s in t.extends + t.implements:
        referenced.add(s.name)
    for ps in t.ctors:
        referenced.update(ps)
    for m in t.methods:
        referenced.update(m.params)
        referenced.add(m.ret)
    for f in t.fields:
        referenced.add(f.type)
    imports = sorted(
        by_name[r].fqn for r in referenced if r in by_name and by_name[r].pkg != t.pkg
    )
    lines = [f"package {t.pkg};", ""]
    lines += [f"import {fqn};" for fqn in imports]
    if imports:
        lines.append("")
    mods = ["public"] + (["abstract"] if t.abstract else []) + (["final"] if t.final else [])
    head = f"{' '.join(mods)} {t.kind} {t.name}"
    if t.extends:
        head += " extends " + ", ".join(s.name for s in t.extends)
    if t.implements:
        head += " implements " + ", ".join(s.name for s in t.implements)
    lines.append(head + " {")
    for f in t.fields:
        if t.is_interface:
            lines.append(f"    {f.type} {f.name} = {_default_value(f.type)};")
        else:
            fmods = "public" + (" final" if f.final else "")
            init = f" = {_default_value(f.type)}" if f.final else ""
            lines.append(f"    {fmods} {f.type} {f.name}{init};")
    for ps in t.ctors:
        params = ", ".join(f"{p} a{i}" for i, p in enumerate(ps))
        lines.append(f"    public {t.name}({params}) {{ }}")
    for m in t.methods:
        params = ", ".join(f"{p} a{i}" for i, p in enumerate(m.params))
        if t.is_interface:
            lines.append(f"    {m.ret} {m.name}({params});")
            continue
        mmods = "public" + (" static" if m.static else "") + (" final" if m.final else "")
        if m.abstract:
            lines.append(f"    {mmods} abstract {m.ret} {m.name}({params});")
        elif m.ret == "void":
            lines.append(f"    {mmods} void {m.name}({params}) {{ }}")
        else:
            lines.append(
                f"    {mmods} {m.ret} {m.name}({params}) {{ return {_default_value(m.ret)}; }}"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Corpus container
# ---------------------------------------------------------------------------


@dataclass
class Corpus:
    """A generated workload on disk and what the program must report for it."""

    workload: str
    seed: int
    root: Path
    library_name: str
    groups: dict[str, list[str]]  # label -> roots, relative to ``root``
    symbols: int
    legal_uses: Counter
    planted_parse_errors: dict[str, int]
    files: int = 0
    lines: int = 0
    tokens: int = 0
    library_lines: int = 0
    client_lines: int = 0
    client_files: dict[str, list[str]] = field(default_factory=dict)

    def write(self, rel: str, text: str, group: str | None = None) -> None:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        lines = text.count("\n")
        self.files += 1
        self.lines += lines
        self.tokens += len(_TOKEN.findall(text))
        if group is None:
            self.library_lines += lines
        else:
            self.client_lines += lines
            self.client_files.setdefault(group, []).append(rel)

    def size_report(self) -> dict:
        total_files = sum(len(v) for v in self.client_files.values())
        planted = sum(self.planted_parse_errors.values())
        return {
            "files": self.files,
            "lines": self.lines,
            "library_lines": self.library_lines,
            "client_lines": self.client_lines,
            "tokens": self.tokens,
            "symbols": self.symbols,
            "legal_uses": sum(self.legal_uses.values()),
            "groups": len(self.groups),
            "unparseable_share": round(planted / total_files, 4) if total_files else 0.0,
        }


def _start(workload: str, seed: int, root: Path, types: list[LibType],
           groups: list[str]) -> Corpus:
    symbols, uses = legal_use_counts(types)
    corpus = Corpus(
        workload=workload,
        seed=seed,
        root=root,
        library_name=workload,
        groups={g: [f"clients/{g}"] for g in groups},
        symbols=symbols,
        legal_uses=uses,
        planted_parse_errors={g: 0 for g in groups},
    )
    by_name = {t.name: t for t in types}
    for t in types:
        corpus.write(f"lib/{t.pkg.replace('.', '/')}/{t.name}.java", render_type(t, by_name))
    config = {"groups": corpus.groups, "lenient": True}
    (root / "corpus.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return corpus


def _args_for(params: list[str], rng: random.Random) -> str:
    out = []
    for p in params:
        if p == "int":
            out.append(rng.choice(("n", str(rng.randint(1, 9)))))
        elif p == "boolean":
            out.append(rng.choice(("true", "false")))
        else:
            out.append("null")
    return ", ".join(out)


# ---------------------------------------------------------------------------
# classic-corpus: many plain client files over a shallow library
# ---------------------------------------------------------------------------

CLASSIC_PACKAGES = 10
CLASSIC_TYPES_PER_PACKAGE = 20
CLASSIC_INTERFACES_PER_PACKAGE = 3
CLASSIC_GROUPS = ("tests", "examples", "apps")
CLASSIC_FILES_PER_GROUP = 50
CLASSIC_UNPARSEABLE_PER_GROUP = 1
CLASSIC_METHODS_PER_FILE = 4
CLASSIC_STMTS_PER_METHOD = 4


def _classic_library(rng: random.Random) -> list[LibType]:
    types: list[LibType] = []
    for p in range(CLASSIC_PACKAGES):
        pkg = f"lib.p{p}"
        interfaces = []
        for i in range(CLASSIC_INTERFACES_PER_PACKAGE):
            t = LibType(pkg, f"I{p}x{i}", "interface")
            for k in range(3):
                t.methods.append(Method(f"a{k}", ["int"] * (k % 2 + 1), "int"))
            interfaces.append(t)
            types.append(t)
        classes = []
        for c in range(CLASSIC_TYPES_PER_PACKAGE - CLASSIC_INTERFACES_PER_PACKAGE):
            t = LibType(pkg, f"T{p}x{c}", "class")
            roll = c % 6
            t.abstract = roll == 4
            t.final = roll == 5
            if classes and rng.random() < 0.3:
                sup = rng.choice(classes)
                if not sup.final and not sup.extends:
                    t.extends = [sup]
            if rng.random() < 0.3:
                t.implements = [rng.choice(interfaces)]
            t.ctors = [[], ["int", "boolean"]]
            for k in range(5):
                arity = rng.randint(0, 2)
                params = [rng.choice(("int", "int", "boolean")) for _ in range(arity)]
                t.methods.append(
                    Method(f"m{k}", params, rng.choice(("int", "void", "boolean")),
                           static=k == 4)
                )
            if t.abstract:
                t.methods.append(Method("run", ["int"], "int", abstract=True))
            t.fields = [Field("f0", "int"), Field("f1", "int", final=True)]
            classes.append(t)
            types.append(t)
    return types


def _classic_client(rng: random.Random, label: str, idx: int, types: list[LibType],
                    broken: bool) -> str:
    concrete = [t for t in types if t.instantiable]
    interfaces = [t for t in types if t.is_interface]
    used = [rng.choice(concrete) for _ in range(2)] + [rng.choice(interfaces)]
    pkgs = sorted({t.pkg for t in used})
    cls = f"F{idx}"
    helper = f"Helper{idx}"
    out = [f"package c.{label}.f{idx};", ""]
    out += [f"import {t.fqn};" for t in used[:2]]
    out += [f"import {p}.*;" for p in pkgs]
    out += ["", f"public class {cls} {{", f"    private {used[0].name} field0;", "",
            f"    public {cls}() {{ }}", ""]
    broken_at = rng.randrange(CLASSIC_METHODS_PER_FILE) if broken else -1
    for m in range(CLASSIC_METHODS_PER_FILE):
        a, b, i = used
        out.append(f"    public int m{m}(int n) {{")
        out.append(f"        {a.name} va = new {a.name}({_args_for(a.ctors[1], rng)});")
        out.append(f"        {b.name} vb = new {b.name}();")
        out.append(f"        {i.name} vi = null;")
        for s in range(CLASSIC_STMTS_PER_METHOD):
            if m == broken_at and s == 0:
                out.append("        n = n + ;")
                continue
            out.append("        " + _classic_stmt(rng, a, b, i, helper))
        out.append("        return n;")
        out.append("    }")
        out.append("")
    out.append("}")
    out += ["", f"class {helper} {{", "    int go(int x) { return x + 1; }", "}"]
    return "\n".join(out) + "\n"


def _classic_stmt(rng: random.Random, a: LibType, b: LibType, i: LibType,
                  helper: str) -> str:
    var, t = rng.choice((("va", a), ("vb", b)))
    instance = [m for m in t.methods if not m.static]
    static = [m for m in t.methods if m.static]
    m = rng.choice(instance)
    call = f"{var}.{m.name}({_args_for(m.params, rng)})"
    kind = rng.randrange(10)
    if kind == 0:
        return f"{call};"
    if kind == 1:
        return f"{var}.f0 = n + {var}.f1;"
    if kind == 2 and static:
        s = static[0]
        return f"{t.name}.{s.name}({_args_for(s.params, rng)});"
    if kind == 3:
        return f"if (n > {rng.randint(1, 9)}) {{ {call}; }} else {{ n = n - 1; }}"
    if kind == 4:
        return f"for (int k = 0; k < n; k++) {{ {call}; }}"
    if kind == 5:
        am = rng.choice(i.methods)
        return f"n = n + vi.{am.name}({_args_for(am.params, rng)});"
    if kind == 6:
        return f"{helper} h = new {helper}(); n = h.go(n);"
    if kind == 7:
        return f"{t.name} w = ({t.name}) {var}; w.{m.name}({_args_for(m.params, rng)});"
    if kind == 8:
        return f"External e = null; e.call(n, {var});"
    return f"while (n > 100) {{ n = n / 2; {call}; }}"


def classic_corpus(seed: int, root: Path) -> Corpus:
    rng = random.Random(f"classic-corpus:{seed}")
    types = _classic_library(rng)
    corpus = _start("classic-corpus", seed, root, types, list(CLASSIC_GROUPS))
    for label in CLASSIC_GROUPS:
        broken = set(rng.sample(range(CLASSIC_FILES_PER_GROUP), CLASSIC_UNPARSEABLE_PER_GROUP))
        corpus.planted_parse_errors[label] = len(broken)
        for idx in range(CLASSIC_FILES_PER_GROUP):
            text = _classic_client(rng, label, idx, types, idx in broken)
            corpus.write(f"clients/{label}/F{idx}.java", text, label)
    return corpus


# ---------------------------------------------------------------------------
# deep-fluent: long fluent chains, lambdas and overriding over deep hierarchies
# ---------------------------------------------------------------------------

DEEP_CHAINS = 3
DEEP_LEVELS = 20
DEEP_OVERRIDE_STRIDE = 2
DEEP_GROUPS = ("fluent", "legacy")
DEEP_FILES_PER_GROUP = 12
DEEP_CHAINS_PER_FILE = 12
DEEP_CHAIN_LENGTH = 8
DEEP_ANON_PER_FILE = 2

# Single-abstract-method interfaces: name -> (method, param type, return type).
_SAMS = {
    "IntFn": ("apply", "int", "int"),
    "IntPred": ("test", "int", "boolean"),
    "Step": ("next", "Leaf", "Leaf"),  # "Leaf" is replaced per chain
}


def _leaf(c: int) -> str:
    return f"L{c}x{DEEP_LEVELS - 1}"


def _deep_library() -> list[LibType]:
    pkg = "lib.deep"
    types: list[LibType] = []
    sams = {}
    for c in range(DEEP_CHAINS):
        for name, (meth, param, ret) in _SAMS.items():
            sam_name = f"{name}{c}"
            param = _leaf(c) if param == "Leaf" else param
            ret = _leaf(c) if ret == "Leaf" else ret
            t = LibType(pkg, sam_name, "interface", methods=[Method(meth, [param], ret)])
            sams[(c, name)] = t
            types.append(t)
    for c in range(DEEP_CHAINS):
        leaf = _leaf(c)
        prev = None
        sam_names = list(_SAMS)
        for k in range(DEEP_LEVELS):
            t = LibType(pkg, f"L{c}x{k}", "class", extends=[prev] if prev else [])
            t.ctors = [[]]
            t.methods.append(Method(f"s{k}", ["int"], leaf))
            sam = sams[(c, sam_names[k % len(sam_names)])]
            t.methods.append(Method(f"t{k}", [sam.name], leaf))
            for j in range(k - DEEP_OVERRIDE_STRIDE, -1, -DEEP_OVERRIDE_STRIDE):
                t.methods.append(Method(f"s{j}", ["int"], leaf))
            t.fields.append(Field(f"f{k}", "int"))
            types.append(t)
            prev = t
    return types


def _lambda_for(sam: str, rng: random.Random) -> str:
    if sam.startswith("IntFn"):
        return f"(x) -> x + {rng.randint(1, 9)}"
    if sam.startswith("IntPred"):
        return f"(x) -> x > {rng.randint(1, 9)}"
    return f"(x) -> x.s{rng.randrange(DEEP_LEVELS)}({rng.randint(1, 9)})"


def _deep_client(rng: random.Random, label: str, idx: int, types: list[LibType]) -> str:
    by_name = {t.name: t for t in types}
    own = rng.randrange(DEEP_CHAINS)
    cls = f"D{idx}"
    out = [f"package d.{label}.f{idx};", "", "import lib.deep.*;", "",
           f"public class {cls} extends {_leaf(own)} {{", f"    public {cls}() {{ }}", ""]
    for k in rng.sample(range(DEEP_LEVELS), 3):
        out.append(f"    public {_leaf(own)} s{k}(int v) {{ return this.s{rng.randrange(DEEP_LEVELS)}(v); }}")
    out += ["", "    public int run(int n) {"]
    for ch in range(DEEP_CHAINS_PER_FILE):
        c = rng.randrange(DEEP_CHAINS)
        calls = []
        for _ in range(DEEP_CHAIN_LENGTH):
            k = rng.randrange(DEEP_LEVELS)
            if rng.random() < 0.3:
                sam = by_name[f"L{c}x{k}"].methods[1].params[0]
                calls.append(f".t{k}({_lambda_for(sam, rng)})")
            else:
                calls.append(f".s{k}(n)")
        out.append(f"        {_leaf(c)} r{ch} = new {_leaf(c)}(){''.join(calls)};")
        out.append(f"        n = n + r{ch}.f{rng.randrange(DEEP_LEVELS)};")
    for a in range(DEEP_ANON_PER_FILE):
        c = rng.randrange(DEEP_CHAINS)
        base = f"L{c}x{rng.randrange(DEEP_LEVELS // 2, DEEP_LEVELS)}"
        ks = rng.sample(range(DEEP_LEVELS // 2), 2)
        body = " ".join(
            f"public {_leaf(c)} s{k}(int v) {{ return null; }}" for k in ks
        )
        out.append(f"        {base} anon{a} = new {base}() {{ {body} }};")
        out.append(f"        anon{a}.s{ks[0]}(n);")
    out += ["        return n;", "    }", "}"]
    return "\n".join(out) + "\n"


def deep_fluent(seed: int, root: Path) -> Corpus:
    rng = random.Random(f"deep-fluent:{seed}")
    types = _deep_library()
    corpus = _start("deep-fluent", seed, root, types, list(DEEP_GROUPS))
    for label in DEEP_GROUPS:
        for idx in range(DEEP_FILES_PER_GROUP):
            corpus.write(f"clients/{label}/D{idx}.java", _deep_client(rng, label, idx, types), label)
    return corpus


# ---------------------------------------------------------------------------
# wide-api: a very wide library and eight tiny client groups
# ---------------------------------------------------------------------------

WIDE_PACKAGES = 10
WIDE_TYPES_PER_PACKAGE = 12
WIDE_METHODS_PER_CLASS = 30
WIDE_METHODS_PER_INTERFACE = 20
WIDE_GROUPS = tuple(f"g{i}" for i in range(8))
WIDE_STMTS_PER_CLIENT = 30


def _wide_library(rng: random.Random) -> list[LibType]:
    types: list[LibType] = []
    for p in range(WIDE_PACKAGES):
        pkg = f"lib.w{p}"
        iface = None
        for c in range(WIDE_TYPES_PER_PACKAGE):
            if c % 10 == 0:
                t = LibType(pkg, f"W{p}i{c}", "interface")
                t.methods = [
                    Method(f"op{k}", ["int"] * (k % 3), "int")
                    for k in range(WIDE_METHODS_PER_INTERFACE)
                ]
                t.fields = [Field("LIMIT", "int", final=True)]
                iface = t
            else:
                t = LibType(pkg, f"W{p}c{c}", "class", final=c % 10 == 9)
                if iface is not None and rng.random() < 0.5:
                    t.implements = [iface]
                t.ctors = [[], ["int"]]
                t.methods = [
                    Method(
                        f"m{k}",
                        [rng.choice(("int", "boolean")) for _ in range(k % 3)],
                        rng.choice(("int", "void", "boolean")),
                        static=k % 10 == 0,
                        final=k % 10 == 5,
                    )
                    for k in range(WIDE_METHODS_PER_CLASS)
                ]
                t.fields = [Field(f"f{k}", "int", final=k == 3) for k in range(4)]
            types.append(t)
    return types


def _wide_client(rng: random.Random, label: str, types: list[LibType]) -> str:
    classes = [t for t in types if not t.is_interface]
    out = [f"package w.{label};", ""]
    stmts = []
    imports = set()
    for s in range(WIDE_STMTS_PER_CLIENT):
        t = rng.choice(classes)
        imports.add(t.fqn)
        m = rng.choice(t.methods)
        v = f"v{s}"
        stmts.append(f"        {t.name} {v} = new {t.name}(n);")
        if m.static:
            stmts.append(f"        {t.name}.{m.name}({_args_for(m.params, rng)});")
        else:
            stmts.append(f"        {v}.{m.name}({_args_for(m.params, rng)});")
        stmts.append(f"        n = n + {v}.f{rng.randrange(4)};")
    out += [f"import {fqn};" for fqn in sorted(imports)]
    out += ["", f"public class Client{label} {{", "    public int run(int n) {"]
    out += stmts
    out += ["        return n;", "    }", "}"]
    return "\n".join(out) + "\n"


def wide_api(seed: int, root: Path) -> Corpus:
    rng = random.Random(f"wide-api:{seed}")
    types = _wide_library(rng)
    corpus = _start("wide-api", seed, root, types, list(WIDE_GROUPS))
    for label in WIDE_GROUPS:
        corpus.write(f"clients/{label}/Client{label}.java", _wide_client(rng, label, types), label)
    return corpus


GENERATORS = {
    "classic-corpus": classic_corpus,
    "deep-fluent": deep_fluent,
    "wide-api": wide_api,
}


def generate(workload: str, seed: int, root: Path) -> Corpus:
    """Write the (workload, seed) corpus under ``root``, which must not exist."""
    root.mkdir(parents=True)
    return GENERATORS[workload](seed, root)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to create")
    args = parser.parse_args()
    corpus = generate(args.workload, args.seed, Path(args.out))
    print(json.dumps({"workload": args.workload, "seed": args.seed, **corpus.size_report()}))


if __name__ == "__main__":
    main()
