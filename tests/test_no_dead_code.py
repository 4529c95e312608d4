"""No code that nothing calls: every function, class and method that
``src/ucov`` defines is referenced by name somewhere in ``src/ucov`` or
``perfbench/``, or is a public name of the package (``ucov.__all__``).

A reference is a name read (``f``), an attribute (``x.f``) or a string
that spells a name or a dotted path (``"ucov.symtab:SymbolTable"``, as the
tracer names its targets). Prose does not count: a docstring or comment
that mentions a function keeps nothing alive. Dunders are called by the
language and are exempt. The tests do not count either, so a helper that
only a test calls is dead code too."""

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


def definitions() -> list[tuple[str, str]]:
    """(file:line, name) of every function, class and method of the package."""
    found = []
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((f"{path.relative_to(REPO)}:{node.lineno}", node.name))
    return found


def references() -> set[str]:
    """Every name the package and the benchmark read."""
    names: set[str] = set()
    for root in READERS:
        for _, tree in _trees(root):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and _PATH.fullmatch(node.value)):
                    names.update(re.split(r"[.:]", node.value))
    return names


def test_every_definition_of_the_package_is_referenced():
    used = references() | set(ucov.__all__)
    dead = [
        f"{where}: {name}"
        for where, name in definitions()
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    ]
    assert dead == []


def test_the_walk_sees_every_kind_of_definition_and_reference():
    # A sanity check of the walk itself: it finds module functions,
    # classes and methods, and it reads the tracer's dotted target strings.
    defined = {name for _, name in definitions()}
    assert {"tokenize", "SymbolTable", "supertype_closure", "_members_named"} <= defined
    used = references()
    assert {"supertype_closure", "_members_named", "SymbolTable"} <= used
    assert {"typing_env", "ucov"} <= used
