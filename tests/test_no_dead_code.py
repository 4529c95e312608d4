"""No code that nothing calls: every function, class and method that
``src/ucov`` defines is referenced by name somewhere in ``src/ucov`` or
``perfbench/``, or is a public name of the package (``ucov.__all__``).

A reference is a name (``f``), an attribute (``x.f``) or a string that
spells a name or a dotted path (``"ucov.symtab:SymbolTable"``, as the
tracer names its targets). A method, a function defined in a class body,
is reached only through an attribute or a dotted path: a bare name of its
spelling is some other variable (a loop's ``pair`` keeps no ``pair``
method alive). Prose does not count: a docstring or comment that mentions
a function keeps nothing alive. Dunders are called by the language and
are exempt. The tests do not count either, so a helper that only a test
calls is dead code too."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import ucov

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "ucov"
READERS = (PACKAGE, REPO / "perfbench")
_PATH = re.compile(r"[\w.:]+")


def _trees(root: Path):
    for path in sorted(root.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def definitions(package: Path = PACKAGE) -> list[tuple[str, str, bool]]:
    """(file:line, name, is a method) of every function, class and method
    of the package."""
    found = []
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path, tree in _trees(package):
        methods = {
            id(member)
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for member in node.body if isinstance(member, functions)
        }
        for node in ast.walk(tree):
            if isinstance(node, (*functions, ast.ClassDef)):
                where = f"{path.relative_to(package.parent)}:{node.lineno}"
                found.append((where, node.name, id(node) in methods))
    return found


def references(readers=READERS) -> tuple[set[str], set[str]]:
    """Every name the readers read, and the ones among them read as an
    attribute or in a dotted path."""
    names: set[str] = set()
    attributes: set[str] = set()
    for root in readers:
        for _, tree in _trees(root):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and _PATH.fullmatch(node.value)):
                    parts = re.split(r"[.:]", node.value)
                    (attributes if len(parts) > 1 else names).update(parts)
    return names | attributes, attributes


def unreferenced(package: Path = PACKAGE, readers=READERS, public=frozenset()) -> list[str]:
    """The definitions of the package that nothing references."""
    names, attributes = references(readers)
    return [
        f"{where}: {name}"
        for where, name, is_method in definitions(package)
        if name not in (attributes if is_method else names) | public
        and not (name.startswith("__") and name.endswith("__"))
    ]


def test_every_definition_of_the_package_is_referenced():
    assert unreferenced(public=set(ucov.__all__)) == []


def test_the_walk_sees_every_kind_of_definition_and_reference():
    # A sanity check of the walk itself: it finds module functions,
    # classes and methods, and it reads the tracer's dotted target strings.
    defined = {(name, is_method) for _, name, is_method in definitions()}
    assert {("tokenize", False), ("SymbolTable", False), ("supertype_closure", True),
            ("_members_named", True)} <= defined
    names, attributes = references()
    assert {"supertype_closure", "_members_named"} <= attributes
    assert {"SymbolTable", "typing_env", "ucov"} <= names


def test_a_method_reached_only_by_a_bare_name_is_dead(tmp_path):
    # A loop variable, a function or a plain string of a method's spelling
    # keeps no method alive; an attribute or a dotted path does.
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "m.py").write_text(
        "class V:\n"
        "    def pair(self): pass\n"
        "    def kept(self): pass\n"
        "    def traced(self): pass\n"
        "def helper(): pass\n"
        "for pair in V().kept(): helper('pair', 'pkg.m:V.traced')\n"
    )
    assert unreferenced(package, (package,)) == ["pkg/m.py:2: pair"]
