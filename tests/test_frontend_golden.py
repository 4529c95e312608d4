"""The frontend (lexer and parser) against a recording of its output.

``frontend_golden.txt`` holds, for every fixture file and for a fixed,
seeded set of single-token mutants of each, the parsed unit's AST with each
node's ``Location``, or the ``ParseError`` it raises. The recording was made
before the parser blamed the reading that got furthest; ``MOVED`` lists the
entries whose error that rule moved, with the error they give now.

Run this file as a script to print the current rendering.
"""

from __future__ import annotations

import random
import sys
from enum import Enum
from pathlib import Path

from conftest import FIXTURES
from ucov import nodes as n
from ucov.errors import ParseError
from ucov.lexer import tokenize
from ucov.parser import parse_unit

GOLDEN = Path(__file__).parent / "frontend_golden.txt"

MUTANTS_PER_FILE = 12

# A mutant deletes, duplicates or replaces one token, or inserts one of
# these before it.
TOKENS = [";", ",", ")", "(", "{", "}", "<", ">", "=", ".", "x", "int", "new", "->", "1",
          "++", "[", "]", "?", '"s"']

# Entry header -> the error it gives now, where the parser now blames the
# reading that got furthest.
MOVED = {
    '## arraylist/framework/MyArrayList.java: replace token 20 with .':
        "ParseError 5:48: expected '>', found '.'",
    '## arraylist/lib/ArrayList.java: replace token 15 with }':
        "ParseError 3:44: expected '>', found '}'",
    '## edges/client/Edge.java: duplicate token 54':
        "ParseError 13:18: unexpected token '=' in expression",
    '## edges/client/Edge.java: delete token 45':
        "ParseError 11:40: expected ';', found 'f'",
    '## edges/client/Edge.java: replace token 57 with ++':
        "ParseError 13:26: expected '(', found '++'",
    '## edges/client/Edge.java: replace token 77 with ]':
        "ParseError 16:30: expected '(', found ']'",
    '## edges/client/Edge.java: insert [ before token 75':
        "ParseError 16:20: unexpected token '[' in expression",
    '## edges/client/Edge.java: duplicate token 43':
        "ParseError 11:40: unexpected token ')' in expression",
    '## fluent/client/Fluent.java: insert ] before token 28':
        "ParseError 8:29: expected ';', found '.'",
    '## fluent/client/Fluent.java: insert , before token 51':
        "ParseError 10:32: expected ';', found ','",
    '## fluent/client/Fluent.java: insert } before token 37':
        "ParseError 9:28: unexpected token '}' in expression",
    '## hierarchy/client/Poly.java: replace token 21 with <':
        "ParseError 7:23: unexpected token '<' in expression",
    '## hierarchy/client/Poly.java: duplicate token 20':
        "ParseError 7:23: unexpected token '=' in expression",
    '## statements/client/Loops.java: duplicate token 181':
        "ParseError 34:9: expected ';', found '}'",
    '## statements/client/Loops.java: delete token 262':
        "ParseError 43:34: expected ';', found ')'",
    '## statements/client/Loops.java: insert ++ before token 165':
        "ParseError 31:35: expected ';', found '{'",
    '## statements/lib/Task.java: replace token 11 with <':
        'ParseError 4:24: expected type name',
}


def render(node, indent: str = "") -> list[str]:
    """A node's scalar fields on one line, then each field that holds nodes
    on its own line with the nodes indented below it."""
    if isinstance(node, n.Node):
        scalars, children = [type(node).__name__], []
        for name in node.__slots__:
            value = getattr(node, name)
            if isinstance(value, n.Node) or (value and isinstance(value, list)
                                             and isinstance(value[0], n.Node)):
                children.append(f"{indent}  {name}:")
                children.extend(render(value, indent + "    "))
            else:
                scalars.append(f"{name}={_scalar(value)}")
        return [indent + " ".join(scalars), *children]
    return [line for item in node for line in render(item, indent)]


def _scalar(value) -> str:
    if isinstance(value, n.Location):
        return f"{value.line}:{value.column}"
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(value)) + "}"
    if isinstance(value, Enum):
        return value.name
    return repr(value)


def outcome(text: str, path: str) -> list[str]:
    try:
        unit = parse_unit(text, path)
    except ParseError as exc:
        assert exc.file == path
        return [f"ParseError {exc.line}:{exc.column}: {exc.reason}"]
    return render(unit)


def mutants(text: str, path: str) -> list[tuple[str, str]]:
    """(description, text) of the file's seeded single-token mutants. A
    token spans from its start to the next token's, so deleting one also
    deletes the white space after it."""
    starts = tokenize(text, path).starts
    rng = random.Random(path)
    out = []
    for _ in range(MUTANTS_PER_FILE):
        i = rng.randrange(len(starts) - 1)
        start, end = starts[i], starts[i + 1]
        op = rng.choice(["delete", "duplicate", "replace", "insert"])
        token = rng.choice(TOKENS)
        if op == "delete":
            out.append((f"delete token {i}", text[:start] + text[end:]))
        elif op == "duplicate":
            out.append((f"duplicate token {i}", text[:end] + text[start:]))
        elif op == "replace":
            out.append((f"replace token {i} with {token}",
                        text[:start] + token + " " + text[end:]))
        else:
            out.append((f"insert {token} before token {i}",
                        text[:start] + token + " " + text[start:]))
    return out


def entries() -> dict[str, list[str]]:
    """Header -> rendering, for every fixture file and its mutants."""
    out = {}
    for file in sorted(FIXTURES.rglob("*.java")):
        path = file.relative_to(FIXTURES).as_posix()
        text = file.read_text(encoding="utf-8")
        out[f"## {path}"] = outcome(text, path)
        for description, mutant in mutants(text, path):
            out[f"## {path}: {description}"] = outcome(mutant, path)
    return out


def read_golden() -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            body = out[line] = []
        else:
            body.append(line)
    return out


def test_the_frontend_matches_the_recording():
    golden, now = read_golden(), entries()
    assert list(now) == list(golden)
    for header, lines in now.items():
        want = [MOVED[header]] if header in MOVED else golden[header]
        assert lines == want, header


def test_each_moved_entry_was_a_parse_error_that_moved():
    golden = read_golden()
    for header, error in MOVED.items():
        (was,) = golden[header]
        assert was.startswith("ParseError") and error.startswith("ParseError")
        assert was != error, header


def test_the_recording_covers_both_outcomes():
    golden = read_golden()
    errors = sum(lines[0].startswith("ParseError") for lines in golden.values())
    assert 0 < errors < len(golden)


if __name__ == "__main__":
    for header, lines in entries().items():
        sys.stdout.write("\n".join([header, *lines]) + "\n")
