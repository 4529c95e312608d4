"""Mutated model and footprint files through in-process ``main``: a value
replaced by another JSON type or deleted ends in exit 0, 1 or 2 with at most
one ``error:`` line, never in an internal failure; a name or a
``synthesized`` flag of the wrong type and a repeated symbol, type or member
in a model are malformed content."""

from __future__ import annotations

import copy
import json

import pytest

from conftest import FIXTURES
from ucov.cli import main

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
    """The exit code and standard error of ``command`` (coverage, suf or
    profile) on the model edited in place by ``edit``."""
    tmp, model, _, _, _ = files
    data = copy.deepcopy(model)
    edit(data)
    path = tmp / "edited.json"
    path.write_text(json.dumps(data))
    argv = {
        "coverage": ["coverage", "--sum", str(path), str(tmp / "classic.json")],
        "suf": ["suf", "--sum", str(path), CLASSIC, "-o", str(tmp / "out.json")],
        "profile": ["profile", "--sum", str(path)],
    }[command]
    capsys.readouterr()
    code = main(argv)
    return code, capsys.readouterr().err.replace(str(path), "F")


def method_row(data) -> dict:
    return next(m for m in data["resolution"]["members"] if m["kind"] == "Method")


NAMES = {
    "symbol signature 1": (lambda d: d["symbols"][0].update(signature=1), "coverage"),
    "symbol signature true": (lambda d: d["symbols"][0].update(signature=True), "coverage"),
    "member name []": (lambda d: d["resolution"]["members"][0].update(name=[]), "suf"),
    "member name {}": (lambda d: d["resolution"]["members"][0].update(name={}), "suf"),
    "method signature null": (lambda d: method_row(d).update(signature=None), "suf"),
    "method signature 1": (lambda d: method_row(d).update(signature=1), "suf"),
    "method signature []": (lambda d: method_row(d).update(signature=[]), "suf"),
    "supertype []": (lambda d: d["resolution"]["types"][0].update(supertypes=[[]]), "suf"),
}


@pytest.mark.parametrize("case", sorted(NAMES))
def test_a_name_of_another_type_is_malformed_content(files, capsys, case):
    edit, command = NAMES[case]
    code, err = run_on_model(files, capsys, edit, command)
    assert code == 1
    assert err.startswith("error: F: malformed content: a name must be a string")
    assert err.count("\n") == 1


def test_a_repeated_symbol_is_malformed_content(files, capsys):
    def edit(data):
        data["symbols"].append(dict(data["symbols"][0], uses=["TypeReference"]))

    code, err = run_on_model(files, capsys, edit, "profile")
    assert (code, err) == (1, "error: F: malformed content: Class java.util.ArrayList "
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
