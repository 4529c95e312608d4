"""Mutated model, footprint and source files through in-process ``main``: a
value replaced by another JSON type or deleted, and a source token deleted,
duplicated or swapped with the next, end in exit 0, 1 or 2 with at most one
``error:`` line, never in an internal failure; a name or a ``synthesized``
flag of the wrong type, a repeated symbol, type or member and a supertype
cycle in a model are malformed content."""

from __future__ import annotations

import copy
import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from ucov.cli import main
from ucov.lexer import tokenize

CLASSIC = str(FIXTURES / "arraylist" / "classic")
FRAMEWORK = str(FIXTURES / "arraylist" / "framework")
DELETE = object()
MUTANTS = (None, [], {}, 1, True, "x", DELETE)


def paths(data, path=()):
    """The path of every value in ``data`` reached through each key of an
    object and the first element of an array."""
    items = data.items() if isinstance(data, dict) else enumerate(data[:1])
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, path + (key,))


def mutants(data, extra=()):
    """Every copy of ``data`` with one value at ``paths(data)``, or at the
    paths below one of the ``extra`` paths, replaced or deleted."""
    targets = list(paths(data))
    for root in extra:
        node = data
        for key in root:
            node = node[key]
        targets += [root + p for p in paths(node)]
    for path in targets:
        for value in MUTANTS:
            mutant = copy.deepcopy(data)
            parent = mutant
            for key in path[:-1]:
                parent = parent[key]
            if value is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(value)
            yield path, value, mutant


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A model of the arraylist library, its classic and framework
    footprints, and the classic footprint with a diagnostic row, as data
    and as paths."""
    tmp = tmp_path_factory.mktemp("files")
    sum_path, classic, framework = tmp / "sum.json", tmp / "classic.json", tmp / "fw.json"
    assert main(["sum", str(FIXTURES / "arraylist" / "lib"), "-o", str(sum_path)]) == 0
    for label, root, out in [("classic", CLASSIC, classic), ("framework", FRAMEWORK, framework)]:
        assert main(["suf", "--sum", str(sum_path), "--label", label, root, "-o", str(out)]) == 0
    fp = json.loads(classic.read_text())
    fp["diagnostics"] = [{"file": "F.java", "line": 1, "col": 2, "kind": "Unresolved",
                          "message": "m"}]
    classic.write_text(json.dumps(fp))
    return tmp, json.loads(sum_path.read_text()), fp, str(sum_path), str(framework)


def faults(tmp, mutated, commands, capsys) -> list[str]:
    """Each run of a command on a mutated file that ends otherwise than in
    exit 0, 1 or 2 with at most one error line."""
    path = tmp / "mutant.json"
    found = []
    for where, value, data in mutated:
        path.write_text(json.dumps(data))
        for argv in commands(str(path)):
            capsys.readouterr()
            code = main(argv)
            err = capsys.readouterr().err
            errors = sum(line.startswith("error:") for line in err.splitlines())
            if code not in (0, 1, 2) or errors > 1:
                shown = "deleted" if value is DELETE else json.dumps(value)
                found.append(f"{argv[0]} with {where} {shown}: exit {code}: {err!r}")
    return found


def test_a_mutated_model_is_an_error_or_a_result(files, capsys):
    tmp, model, _, _, _ = files
    method = next(i for i, m in enumerate(model["resolution"]["members"])
                  if m["kind"] == "Method")

    def commands(path):
        yield ["coverage", "--sum", path, str(tmp / "classic.json")]
        yield ["suf", "--sum", path, CLASSIC, "-o", str(tmp / "out.json")]

    extra = [("resolution", "members", method)]
    assert faults(tmp, mutants(model, extra), commands, capsys) == []


def test_a_mutated_footprint_is_an_error_or_a_result(files, capsys):
    tmp, _, classic, sum_path, framework = files

    def commands(path):
        yield ["coverage", "--sum", sum_path, path]
        yield ["compare", "--sum", sum_path, path, framework]

    assert faults(tmp, mutants(classic), commands, capsys) == []


def run_on_model(files, capsys, edit, command) -> tuple[int, str]:
    """The exit code and standard error of ``command`` (coverage, suf,
    compare or profile) on the model edited in place by ``edit``."""
    tmp, model, _, _, framework = files
    data = copy.deepcopy(model)
    edit(data)
    path = tmp / "edited.json"
    path.write_text(json.dumps(data))
    argv = {
        "coverage": ["coverage", "--sum", str(path), str(tmp / "classic.json")],
        "suf": ["suf", "--sum", str(path), CLASSIC, "-o", str(tmp / "out.json")],
        "compare": ["compare", "--sum", str(path), str(tmp / "classic.json"), framework,
                    "-o", str(tmp / "regions.json")],
        "profile": ["profile", "--sum", str(path)],
    }[command]
    capsys.readouterr()
    code = main(argv)
    return code, capsys.readouterr().err.replace(str(path), "F")


def method_row(data) -> dict:
    return next(m for m in data["resolution"]["members"] if m["kind"] == "Method")


def member_row(**fields):
    return lambda d: d["resolution"]["members"][0].update(fields)


def type_row(**fields):
    return lambda d: d["resolution"]["types"][0].update(fields)


NAMES = {  # an edit, the command that reads it, and the end of its message
    "symbol fqn 1": (lambda d: d["symbols"][0].update(fqn=1), "coverage", ", found 1"),
    "symbol signature 1": (lambda d: d["symbols"][0].update(signature=1), "coverage",
                           " or null, found 1"),
    "symbol signature true": (lambda d: d["symbols"][0].update(signature=True), "coverage",
                              " or null, found True"),
    "member returns 1": (member_row(returns=1), "suf", " or null, found 1"),
    "member field_type 1": (member_row(field_type=1), "suf", " or null, found 1"),
    "member declaring 1": (member_row(declaring=1), "suf", ", found 1"),
    "member name []": (member_row(name=[]), "suf", ", found []"),
    "member name {}": (member_row(name={}), "suf", ", found {}"),
    "method signature null": (lambda d: method_row(d).update(signature=None), "suf",
                              ", found None"),
    "method signature 1": (lambda d: method_row(d).update(signature=1), "suf", ", found 1"),
    "method signature []": (lambda d: method_row(d).update(signature=[]), "suf", ", found []"),
    "type fqn 1": (type_row(fqn=1), "suf", ", found 1"),
    "type enclosing 1": (type_row(enclosing=1), "suf", " or null, found 1"),
    "supertype []": (type_row(supertypes=[[]]), "suf", ", found []"),
}


@pytest.mark.parametrize("case", sorted(NAMES))
def test_a_name_of_another_type_is_malformed_content(files, capsys, case):
    edit, command, end = NAMES[case]
    code, err = run_on_model(files, capsys, edit, command)
    assert (code, err) == (1, f"error: F: malformed content: a name must be a string{end}\n")


def test_a_repeated_symbol_is_malformed_content(files, capsys):
    def edit(data):
        data["symbols"].append(dict(data["symbols"][0], uses=["TypeReference"]))

    code, err = run_on_model(files, capsys, edit, "profile")
    assert (code, err) == (1, "error: F: malformed content: Class java.util.ArrayList "
                              "is listed twice\n")


@pytest.mark.parametrize("command", ["suf", "coverage", "compare", "profile"])
def test_a_type_listed_under_two_kinds_is_malformed_content(files, capsys, command):
    def edit(data):
        data["symbols"].append(dict(symbol_row(data, "Class"), kind="Interface"))

    code, err = run_on_model(files, capsys, edit, command)
    assert (code, err) == (1, "error: F: malformed content: type java.util.ArrayList "
                              "is listed twice\n")


def test_a_repeated_type_is_malformed_content(files, capsys):
    def edit(data):
        types = data["resolution"]["types"]
        types.append(dict(types[0], supertypes=[]))

    code, err = run_on_model(files, capsys, edit, "suf")
    assert (code, err) == (1, "error: F: malformed content: type java.util.ArrayList "
                              "is listed twice\n")


def test_a_repeated_member_is_malformed_content(files, capsys):
    def edit(data):
        members = data["resolution"]["members"]
        members.insert(0, dict(method_row(data), modifiers=["public", "static"]))

    code, err = run_on_model(files, capsys, edit, "suf")
    assert (code, err) == (1, "error: F: malformed content: Method "
                              "java.util.ArrayList.add(java.lang.Object) is listed twice\n")


def symbol_row(data, kind: str) -> dict:
    return next(s for s in data["symbols"] if s["kind"] == kind)


SIGNATURES = {  # an edit of a symbol's signature and the message it gives
    "method null": (lambda d: symbol_row(d, "Method").update(signature=None),
                    "Method java.util.ArrayList.add has no signature"),
    "constructor null": (lambda d: symbol_row(d, "Constructor").update(signature=None),
                         "Constructor java.util.ArrayList.ArrayList has no signature"),
    "class string": (lambda d: symbol_row(d, "Class").update(signature=""),
                     "Class java.util.ArrayList has a signature, found ''"),
}


@pytest.mark.parametrize("case", sorted(SIGNATURES))
def test_a_signature_that_does_not_fit_the_kind_is_malformed_content(files, capsys, case):
    # A method without a signature would be looked up as a field of its name,
    # and a type with an empty one would share its sort key with the type.
    edit, message = SIGNATURES[case]
    code, err = run_on_model(files, capsys, edit, "profile")
    assert (code, err) == (1, f"error: F: malformed content: {message}\n")


LISTS = {  # a row of the model, the key of a list of names in it, the command
    "symbol uses": (lambda d: d["symbols"][0], "uses", "profile"),
    "type modifiers": (lambda d: d["resolution"]["types"][0], "modifiers", "suf"),
    "type type_params": (lambda d: d["resolution"]["types"][0], "type_params", "suf"),
    "type supertypes": (lambda d: d["resolution"]["types"][0], "supertypes", "suf"),
    "type external": (lambda d: d["resolution"]["types"][0], "external", "suf"),
    "member modifiers": (lambda d: d["resolution"]["members"][0], "modifiers", "suf"),
    "method params": (method_row, "params", "suf"),
}


@pytest.mark.parametrize(
    "value,message",
    [("List", "expected a list of names, found 'List'"), ([1], "a name must be a string, found 1")],
    ids=["string", "number"],
)
@pytest.mark.parametrize("case", sorted(LISTS))
def test_a_list_of_names_of_another_form_is_malformed_content(files, capsys, case, value, message):
    # A string is not read as its characters, nor a number as a modifier.
    row, key, command = LISTS[case]
    code, err = run_on_model(files, capsys, lambda d: row(d).update({key: value}), command)
    assert (code, err) == (1, f"error: F: malformed content: {message}\n")


@pytest.mark.parametrize("value", [None, 1, "x", []], ids=["null", "number", "string", "list"])
def test_a_synthesized_flag_of_another_type_is_malformed_content(files, capsys, value):
    # The flag is part of a member's identity, which extraction hashes.
    code, err = run_on_model(files, capsys, lambda d: method_row(d).update(synthesized=value),
                             "suf")
    assert (code, err) == (
        1, f"error: F: malformed content: synthesized must be true or false, found {value!r}\n")


NOT_STRINGS = (None, 1, True, [], [1, 2], {}, {"a": 1})


@pytest.mark.parametrize("value", NOT_STRINGS, ids=json.dumps)
@pytest.mark.parametrize("command", ["profile", "coverage", "suf"])
def test_a_library_name_of_another_type_in_a_model_is_malformed_content(
    files, capsys, command, value
):
    # Read as it was, the name was copied into every footprint and report.
    code, err = run_on_model(files, capsys, lambda d: d.update(library=value), command)
    assert (code, err) == (1, f"error: F: malformed content: a name must be a string, "
                              f"found {value!r}\n")


@pytest.mark.parametrize("value", NOT_STRINGS, ids=json.dumps)
@pytest.mark.parametrize("key", ["library", "label"])
def test_a_library_or_label_of_another_type_in_a_footprint_is_an_error(
    files, capsys, key, value
):
    tmp, _, classic, sum_path, framework = files
    path = tmp / "edited.json"
    path.write_text(json.dumps(dict(classic, **{key: value})))
    for argv in (["coverage", "--sum", sum_path, str(path)],
                 ["compare", "--sum", sum_path, framework, str(path)],
                 ["profile", "--sum", sum_path, "--suf", str(path)]):
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert (code, err.count("\n"), err.startswith("error: ")) == (1, 1, True), (argv, err)


@pytest.mark.parametrize("value, message", [
    ("other", "footprint is for 'other', model is 'lib'"),
    ([1, 2], "malformed content: a name must be a string, found [1, 2]"),
], ids=["other-name", "list"])
def test_a_footprint_of_another_library_is_an_error_naming_the_file(
    files, capsys, value, message
):
    # Each error of a malformed footprint names its file; this one did not.
    tmp, _, classic, sum_path, framework = files
    path = tmp / "other.json"
    path.write_text(json.dumps(dict(classic, library=value)))
    for argv in (["coverage", "--sum", sum_path, str(path)],
                 ["compare", "--sum", sum_path, framework, str(path)],
                 ["profile", "--sum", sum_path, "--suf", str(path)]):
        capsys.readouterr()
        assert (main(argv), capsys.readouterr().err) == (1, f"error: {path}: {message}\n"), argv


KIND_ROWS = {  # a row of the model that names a kind, the command that reads it
    "symbol": (lambda d: d["symbols"][0], "profile"),
    "type": (lambda d: d["resolution"]["types"][0], "suf"),
    "member": (method_row, "suf"),
}


@pytest.mark.parametrize("value, shown", [
    ("Klass", "'Klass'"), ([1], "[1]"), (1, "1"), (None, "None"),
], ids=["string", "list", "number", "null"])
@pytest.mark.parametrize("row", sorted(KIND_ROWS))
def test_a_kind_that_names_no_kind_is_malformed_content(files, capsys, row, value, shown):
    # Kinds are found by a dict lookup; what it cannot find, an unhashable
    # list included, fails with the message of ``SymbolKind(value)``.
    find, command = KIND_ROWS[row]
    code, err = run_on_model(files, capsys, lambda d: find(d).update(kind=value), command)
    assert (code, err) == (1, f"error: F: malformed content: {shown} is not a valid SymbolKind\n")


def test_a_supertype_cycle_in_the_model_is_malformed_content(tmp_path, capsys):
    # The cycle was reported as the client's, without the model file, and
    # only for a client whose types reach it.
    lib, client = tmp_path / "lib" / "p", tmp_path / "client"
    lib.mkdir(parents=True)
    client.mkdir()
    (lib / "A.java").write_text("package p; public class A { }")
    (lib / "B.java").write_text("package p; public class B extends A { }")
    (client / "D.java").write_text("class D extends p.B { }")
    (client / "E.java").write_text("class E { }")
    sum_path = tmp_path / "sum.json"
    assert main(["sum", str(tmp_path / "lib"), "-o", str(sum_path)]) == 0
    data = json.loads(sum_path.read_text())
    next(t for t in data["resolution"]["types"] if t["fqn"] == "p.A")["supertypes"] = ["p.B"]
    sum_path.write_text(json.dumps(data))
    for root in (client, client / "E.java"):
        capsys.readouterr()
        code = main(["suf", "--sum", str(sum_path), str(root), "-o", str(tmp_path / "f.json")])
        assert (code, capsys.readouterr().err) == (
            1, f"error: {sum_path}: malformed content: supertype cycle: p.A -> p.B -> p.A\n")


# Every fixture source file: (corpus, group, path), the group "lib" for a
# library file.
SOURCES = sorted(
    (path.relative_to(FIXTURES).parts[0], path.relative_to(FIXTURES).parts[1], path)
    for path in FIXTURES.glob("*/*/**/*.java")
)


def mutate(text: str, edit: str, index: int) -> str:
    """``text`` with its token at ``index`` (modulo the token count) deleted,
    duplicated after a space, or swapped with the next token."""
    tokens = tokenize(text, "F.java")
    spans = [(start, start + len(value) + (2 if kind in ("STRING", "CHAR") else 0))
             for kind, value, start in zip(tokens.types, tokens.values, tokens.starts)][:-1]
    start, end = spans[index % len(spans)]
    if edit == "delete":
        return text[:start] + text[end:]
    if edit == "duplicate":
        return text[:end] + " " + text[start:end] + text[end:]
    after = spans[index % len(spans) + 1] if index % len(spans) + 1 < len(spans) else (end, end)
    return (text[:start] + text[after[0]:after[1]] + text[end:after[0]] + text[start:end]
            + text[after[1]:])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding the model of each fixture library."""
    tmp = tmp_path_factory.mktemp("sources")
    for corpus in {corpus for corpus, _, _ in SOURCES}:
        assert main(["sum", str(FIXTURES / corpus / "lib"), "-o", str(tmp / f"{corpus}.json")]) == 0
    return tmp


def run_quietly(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(source=st.sampled_from(SOURCES), edit=st.sampled_from(["delete", "duplicate", "swap"]),
       index=st.integers(0, 10**6))
def test_a_source_with_a_mutated_token_is_an_error_or_a_result(workdir, source, edit, index):
    # ``sum`` reads the mutated library; ``suf`` reads the mutated client
    # file beside the rest of its group, strict and lenient.
    corpus, group, path = source
    mutant = mutate(path.read_text(encoding="utf-8"), edit, index)
    if group == "lib":
        lib = workdir / "lib"
        shutil.rmtree(lib, ignore_errors=True)
        shutil.copytree(FIXTURES / corpus / "lib", lib)
        (lib / path.relative_to(FIXTURES / corpus / "lib")).write_text(mutant, encoding="utf-8")
        runs = [["sum", str(lib), "-o", str(workdir / "out.json")]]
    else:
        mutated = workdir / path.name
        mutated.write_text(mutant, encoding="utf-8")
        roots = [str(p) for p in sorted((FIXTURES / corpus / group).rglob("*.java")) if p != path]
        suf = ["suf", "--sum", str(workdir / f"{corpus}.json"), *roots, str(mutated),
               "-o", str(workdir / "out.json")]
        runs = [suf, suf + ["--lenient"]]
    for argv in runs:
        code, err = run_quietly(argv)
        errors = sum(line.startswith("error:") for line in err.splitlines())
        assert code in (0, 1, 2) and errors <= 1, (argv, mutant, err)
