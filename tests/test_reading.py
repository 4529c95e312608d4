"""The reading path: the footprint and model readers against their per-row
references (``naive_coverage.naive_footprint_from_dict`` and
``naive_model_from_dict``), malformed rows after a decoded key, location
fields and messages of another type, unique uses fixed at construction,
the use and symbol kinds' identity hash, and the ``python -m ucov.cli``
process exit, a write that fails mid-stream included."""

from __future__ import annotations

import copy
import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, model_for
from naive_coverage import naive_footprint_from_dict, naive_model_from_dict
from test_coverage_data import CORPORA, fixture
from ucov import (
    Footprint,
    UsageModel,
    footprint_from_dict,
    footprint_to_dict,
    model_from_dict,
    model_to_dict,
)
from ucov.cli import main
from ucov.model import TYPE_USES, SymbolKind, UseKind
from ucov.uses import diff, merge

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ARRAYLIST_LIB = str(FIXTURES / "arraylist" / "lib")
CLASSIC = str(FIXTURES / "arraylist" / "classic")
FRAMEWORK = str(FIXTURES / "arraylist" / "framework")


def fixture_data(corpus: str, group: str) -> tuple[UsageModel, dict]:
    """The fixture's model and its extracted footprint in JSON form."""
    model, fp = fixture(corpus, group)
    return model, json.loads(footprint_to_dict(fp))


def legal_rows(model: UsageModel) -> list[dict]:
    """One row per legal use of the model, at line 1."""
    return [
        {"fqn": sym.fqn, "signature": sym.signature, "use": use.value,
         "file": "G.java", "line": 1, "col": 1}
        for sym, uses in model.sorted_entries
        for use in sorted(uses, key=lambda u: u.value)
    ]


def without(key: str):
    def edit(row: dict, model: UsageModel) -> None:
        del row[key]

    return edit


def set_to(key: str, value):
    def edit(row: dict, model: UsageModel) -> None:
        row[key] = value

    return edit


def illegal_kind(row: dict, model: UsageModel) -> None:
    """A use kind the row's symbol does not allow."""
    legal = {use.value for sym, uses in model.entries.items()
             if sym.fqn == row["fqn"] and sym.signature == row.get("signature") for use in uses}
    row["use"] = next(u.value for u in UseKind if u.value not in legal)


# Faults of one row; each makes both readers fail on that row.
ILLEGAL = {
    "unknown-use": set_to("use", "Bogus"),
    "illegal-use": illegal_kind,
    "unknown-fqn": set_to("fqn", "no.such.Type"),
    "no-use": without("use"),
    "no-fqn": without("fqn"),
    "no-file": without("file"),
    "no-line": without("line"),
    "no-col": without("col"),
    "string-line": set_to("line", "x"),
    "bool-line": set_to("line", True),
    "float-line": set_to("line", 1.0),
    "number-file": set_to("file", 5),
    "null-col": set_to("col", None),
}

# Rewrites of a row's key: legal for a type use, which reads no signature,
# and a fault for a member use (but a null signature for a field).
REKEYED = {
    "no-signature": without("signature"),
    "null-signature": set_to("signature", None),
    "other-signature": set_to("signature", "nothing(int)"),
}


@st.composite
def footprint_data(draw) -> tuple[UsageModel, dict]:
    """A fixture footprint, or one drawn from the model's legal uses, with
    its rows shuffled, some repeated verbatim, some repeated at another
    location or under a rewritten key, and at most one illegal row. Each
    reader fails on the first faulty row it meets, so both fail alike."""
    model, data = fixture_data(*draw(st.sampled_from(CORPORA)))
    if draw(st.booleans()):
        pool = legal_rows(model)
        picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 4)),
                              max_size=40))
        data["uses"] = [dict(pool[i], line=line) for i, line in picks]
    rows = data["uses"]
    if rows:
        for i, how in draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                              st.sampled_from(["copy", "moved", *REKEYED])),
                                    max_size=12)):
            row = dict(rows[i])
            if how == "moved":
                row["line"] += 1000
            elif how in REKEYED:
                REKEYED[how](row, model)
            rows.append(row)
        fault = draw(st.sampled_from([None, *ILLEGAL]))
        if fault is not None:
            row = dict(rows[draw(st.integers(0, len(rows) - 1))])
            ILLEGAL[fault](row, model)
            rows.append(row)
    data["uses"] = draw(st.permutations(rows))
    return model, data


def outcome(read, data: dict, model: UsageModel):
    """The footprint's values, or the error's class and message."""
    try:
        fp = read(data, model)
    except Exception as exc:  # noqa: BLE001 - compared between the readers
        return type(exc), str(exc)
    return fp.label, fp.library, fp.triples, fp.unique_uses, fp.diagnostics


def unsigned_after_null(model_and_data: tuple[UsageModel, dict]) -> tuple[UsageModel, dict]:
    """A field row, then the same row without its null signature: the
    second is a missing key, not a repeat of the first."""
    model, data = model_and_data
    field = next(r for r in data["uses"] if r["use"] == "FieldRead")
    unsigned = {k: v for k, v in field.items() if k != "signature"}
    return model, dict(data, uses=[field, unsigned])


@settings(max_examples=300, deadline=None)
@given(footprint_data())
@example(unsigned_after_null(fixture_data("tablerows", "client")))
def test_reader_matches_the_per_row_reference(case):
    model, data = case
    got = outcome(footprint_from_dict, data, model)
    assert got == outcome(naive_footprint_from_dict, data, model)
    if not isinstance(got[0], type):
        _, _, triples, unique_uses, _ = got
        assert unique_uses == {(t.symbol, t.use) for t in triples}


@pytest.mark.parametrize("corpus,group", CORPORA, ids=[f"{c}/{g}" for c, g in CORPORA])
def test_footprints_hold_the_models_own_symbols(corpus, group):
    # So their pairs compare with the model's by identity, not by strings.
    model, fp = fixture(corpus, group)
    read = footprint_from_dict(json.loads(footprint_to_dict(fp)), model)
    for footprint in (fp, read):
        assert all(sym is model.symbols[sym] for sym, _ in footprint.unique_uses)


def test_unique_uses_are_the_pairs_of_the_triples_after_merge_and_diff():
    model, data = fixture_data("arraylist", "classic")
    _, other = fixture_data("arraylist", "framework")
    a = footprint_from_dict(data, model)
    b = footprint_from_dict(other, model)
    both = merge(a, b)
    for fp in (a, b, both, diff(both, a), diff(both, b), Footprint("e", "lib")):
        assert fp.unique_uses == {(t.symbol, t.use) for t in fp.triples}
    assert both.unique_uses == a.unique_uses | b.unique_uses
    assert diff(both, b).unique_uses == both.unique_uses - b.unique_uses != both.unique_uses


# ---------------------------------------------------------------------------
# The model reader against the per-row reference
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def model_text(corpus: str) -> str:
    return model_to_dict(model_for(corpus))


def model_rows(data: dict) -> dict[str, list]:
    resolution = data["resolution"]
    return {"symbols": data["symbols"], "types": resolution["types"],
            "members": resolution["members"]}


# A value of each JSON type, the kinds of types and of members, and lists
# of names: rows that share a list of names share what it is read as, and
# an element of another type, hashable or not, is named in the error.
VALUES = (None, True, 0, 1.5, "x", {}, {"a": 1}, [], [1], [True], [[1]], ["x"],
          ["public"], ["public", "static"], ["TypeReference"], ["java.lang.Object"],
          "Class", "Interface", "Method", "Field", "Constructor")
DELETE = object()


@st.composite
def model_data(draw) -> dict:
    """The arraylist or tablerows model in JSON form with up to four edits
    of its rows: a value replaced by one of ``VALUES``, a key deleted, the
    row repeated verbatim, or repeated under another kind, which lists a
    type's FQN twice."""
    data = json.loads(model_text(draw(st.sampled_from(["arraylist", "tablerows"]))))
    rows = model_rows(data)
    for _ in range(draw(st.integers(0, 4))):
        section = rows[draw(st.sampled_from(sorted(rows)))]
        row = section[draw(st.integers(0, len(section) - 1))]
        how = draw(st.sampled_from(["set", "delete", "repeat", "other kind"]))
        if how == "repeat":
            section.append(dict(row))
        elif how == "other kind":
            section.append(dict(row, kind="Interface" if row.get("kind") == "Class" else "Class"))
        elif row:
            key = draw(st.sampled_from(sorted(row)))
            if how == "delete":
                del row[key]
            else:
                row[key] = copy.deepcopy(draw(st.sampled_from(VALUES)))
    return data


def model_outcome(read, data: dict):
    """The model's library name, entries and table, or the error's class
    and message."""
    try:
        model = read(data)
        return model.library_name, list(model.entries.items()), list(model.table.types.items())
    except Exception as exc:  # noqa: BLE001 - compared between the readers
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(model_data())
def test_model_reader_matches_the_per_row_reference(data):
    assert model_outcome(model_from_dict, data) == model_outcome(naive_model_from_dict, data)


def one_row_of_each_kind(data: dict) -> list[tuple[str, int]]:
    """The section and index of the first row of each kind in each section."""
    found = {}
    for section, rows in model_rows(data).items():
        for i, row in enumerate(rows):
            found.setdefault((section, row["kind"]), (section, i))
    return list(found.values())


@pytest.mark.parametrize("corpus", ["arraylist", "tablerows"])
def test_every_fault_of_one_row_and_every_pair_of_faults_fail_as_in_the_reference(corpus):
    # One key of a row set to each of ``VALUES`` or deleted; and one key set
    # to 1 and another deleted, so the error tells which is read first.
    text = model_text(corpus)
    base, edits = json.loads(text), []
    for section, i in one_row_of_each_kind(base):
        keys = sorted(model_rows(base)[section][i])
        edits += [(section, i, [(key, value)]) for key in keys for value in (*VALUES, DELETE)]
        edits += [(section, i, [(bad, 1), (gone, DELETE)]) for bad in keys for gone in keys
                  if bad != gone]
    for section, i, changes in edits:
        data = json.loads(text)
        row = model_rows(data)[section][i]
        for key, value in changes:
            if value is DELETE:
                del row[key]
            else:
                row[key] = copy.deepcopy(value)
        got = model_outcome(model_from_dict, data)
        assert got == model_outcome(naive_model_from_dict, data), (section, i, changes)


# The lists of names of each kind of row, which the reader memoizes.
NAME_LISTS = {"symbols": ["uses"], "types": ["modifiers", "type_params", "supertypes", "external"],
              "members": ["modifiers", "params"]}


@pytest.mark.parametrize("value", [[1], [True], [[1]], ["x", {}]], ids=json.dumps)
@pytest.mark.parametrize("section,key", [(section, key) for section, keys in NAME_LISTS.items()
                                         for key in keys])
def test_a_list_of_names_after_a_checked_one_fails_as_in_the_reference(section, key, value):
    # The last row's list is looked up among the lists already checked; an
    # unhashable element cannot be, and is rejected like any other.
    data = json.loads(model_text("tablerows"))
    model_rows(data)[section][-1][key] = value
    got = model_outcome(model_from_dict, data)
    assert got == model_outcome(naive_model_from_dict, data)
    shown = value[-1] if value[0] == "x" else value[0]
    assert got == (TypeError, f"a name must be a string, found {shown!r}")


def test_each_distinct_list_of_names_is_read_once():
    model = model_from_dict(json.loads(model_text("tablerows")))
    members = [m for info in model.table.types.values() for m in info.members]
    for field in ("modifiers", "param_types"):
        values = [getattr(m, field) for m in members]
        assert len({id(v) for v in values}) == len(set(values)) < len(values), field
    uses = list(model.entries.values())
    assert len({id(u) for u in uses}) == len(set(uses)) < len(uses)


# ---------------------------------------------------------------------------
# Malformed rows after a decoded key, through the CLI
# ---------------------------------------------------------------------------


@pytest.fixture()
def sum_path(tmp_path):
    path = tmp_path / "sum.json"
    assert main(["sum", ARRAYLIST_LIB, "-o", str(path), "--name", "arraylist"]) == 0
    return path


def coverage_error(sum_path, tmp_path, capsys, edit) -> tuple[str, dict]:
    """The one line ``coverage`` prints for the classic footprint with its
    first row followed by an edited copy, which must exit 1, and that first
    row. ``edit(data, first, second)`` edits the rows in place."""
    out = tmp_path / "classic.json"
    assert main(["suf", "--sum", str(sum_path), "--label", "classic", CLASSIC,
                 "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    first = data["uses"][0]
    second = dict(first, line=first["line"] + 100)
    edit(data, first, second)
    data["uses"][1:1] = [second]
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["coverage", "--sum", str(sum_path), str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    return err.replace(str(path), "F"), first


def test_a_repeated_key_without_a_line_is_a_missing_key(sum_path, tmp_path, capsys):
    def edit(data, first, second):
        del second["line"]

    err, _ = coverage_error(sum_path, tmp_path, capsys, edit)
    assert err == "error: F: missing key 'line'\n"


def test_an_illegal_use_after_a_legal_row_of_its_symbol_is_a_mismatch(
        sum_path, tmp_path, capsys):
    def edit(data, first, second):
        second["use"] = "FieldWrite"

    err, first = coverage_error(sum_path, tmp_path, capsys, edit)
    assert err == (f"error: F: FieldWrite of {first['fqn']} is not a legal use in model "
                   "'arraylist'\n")


@pytest.mark.parametrize("type_use", [True, False], ids=["type-use", "member-use"])
def test_a_list_valued_signature_is_malformed_content(sum_path, tmp_path, capsys, type_use):
    def edit(data, first, second):
        kinds = {u.value for u in TYPE_USES}
        row = next(r for r in data["uses"] if (r["use"] in kinds) == type_use)
        first.update(row)
        second.update(row, line=row["line"] + 100, signature=[row["signature"]])

    err, _ = coverage_error(sum_path, tmp_path, capsys, edit)
    assert err.startswith("error: F: malformed content: ")


# A location field or a diagnostic message of another type, and the
# message each command prints for it after "malformed content: ".
FIELD_FAULTS = {
    "string-line": ("line", "x", "line must be an integer, found 'x'"),
    "bool-line": ("line", True, "line must be an integer, found True"),
    "number-file": ("file", 5, "file must be a string, found 5"),
    "null-col": ("col", None, "col must be an integer, found None"),
    "float-col": ("col", 2.0, "col must be an integer, found 2.0"),
    "number-message": ("message", 7, "message must be a string, found 7"),
}


@pytest.mark.parametrize("row,fault", [
    (row, fault) for row in ("use", "diagnostic") for fault in sorted(FIELD_FAULTS)
    if row == "diagnostic" or FIELD_FAULTS[fault][0] != "message"
])
def test_a_field_of_another_type_is_malformed_content(sum_path, sufs, tmp_path, capsys,
                                                       row, fault):
    key, value, message = FIELD_FAULTS[fault]
    data = json.loads(Path(sufs[0]).read_text())
    data["diagnostics"] = [{"kind": "Unresolved", "file": "C.java", "line": 1, "col": 2,
                            "message": "m"}]
    target = data["uses"][1] if row == "use" else data["diagnostics"][0]
    target[key] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    for argv in (["coverage", str(path)], ["compare", sufs[1], str(path)],
                 ["profile", "--suf", str(path)]):
        capsys.readouterr()
        assert main([argv[0], "--sum", str(sum_path), *argv[1:]]) == 1
        assert capsys.readouterr().err == f"error: {path}: malformed content: {message}\n"


# ---------------------------------------------------------------------------
# Kinds hash by identity
# ---------------------------------------------------------------------------


def test_use_and_symbol_kinds_hash_by_identity():
    assert UseKind.__hash__ is object.__hash__
    assert SymbolKind.__hash__ is object.__hash__
    assert [k.value for k in UseKind][:2] == ["TypeReference", "Instantiation"]
    assert len(list(UseKind)) == 11 and len(list(SymbolKind)) == 5
    assert UseKind("Overriding") in {UseKind.OVERRIDING}
    assert {SymbolKind.FIELD: 1}[SymbolKind("Field")] == 1


# ---------------------------------------------------------------------------
# The process exit of ``python -m ucov.cli`` and of the ``ucov`` script
# ---------------------------------------------------------------------------

# How each entry starts ucov: ``python -m``, and the wrapper that installers
# write for the ``ucov`` console script (``sys.exit`` of the named function).
ENTRIES = {
    "module": ["-m", "ucov.cli"],
    "script": ["-c", "import sys; from ucov.cli import run; sys.exit(run())"],
}


def child_env(unbuffered: bool) -> dict[str, str]:
    """The environment of a ucov process, its standard output
    block-buffered unless ``unbuffered``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "UCOV_"))}
    env["PYTHONPATH"] = str(SRC)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def child(*args: str, cwd: Path, entry: str = "module", stdout=subprocess.PIPE,
          unbuffered: bool = False) -> subprocess.CompletedProcess:
    """A ucov process with standard output on a pipe (or ``stdout``),
    block-buffered unless ``unbuffered``."""
    return subprocess.run([sys.executable, *ENTRIES[entry], *args], cwd=cwd,
                          env=child_env(unbuffered), stdout=stdout, stderr=subprocess.PIPE,
                          timeout=60)


def test_the_console_script_runs_the_module_entry():
    scripts = re.search(r"^\[project\.scripts\]\n((?:.+\n)*)",
                        (ROOT / "pyproject.toml").read_text(), re.M)
    assert scripts is not None
    assert scripts.group(1).split() == ["ucov", "=", '"ucov.cli:run"']


@pytest.fixture()
def sufs(sum_path, tmp_path) -> list[str]:
    out = []
    for label, root in (("classic", CLASSIC), ("framework", FRAMEWORK)):
        path = tmp_path / f"{label}.json"
        assert main(["suf", "--sum", str(sum_path), "--label", label, root,
                     "-o", str(path)]) == 0
        out.append(str(path))
    return out


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("command", ["coverage", "coverage-text", "profile", "profile-suf"])
def test_child_stdout_on_a_pipe_equals_the_in_process_output(
        sum_path, sufs, tmp_path, capsys, command, entry):
    argv = {
        "coverage": ["coverage", "--sum", str(sum_path), *sufs],
        "coverage-text": ["coverage", "--sum", str(sum_path), "--format", "text", *sufs],
        "profile": ["profile", "--sum", str(sum_path)],
        "profile-suf": ["profile", "--sum", str(sum_path), "--suf", sufs[0]],
    }[command]
    capsys.readouterr()
    assert main(argv) == 0
    want = capsys.readouterr().out.encode("utf-8")
    proc = child(*argv, cwd=tmp_path, entry=entry)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, b"")


def test_child_warns_of_an_empty_footprint(sum_path, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"label": "none", "library": "arraylist", "uses": []}))
    proc = child("profile", "--sum", str(sum_path), "--suf", str(empty), cwd=tmp_path)
    assert proc.returncode == 0
    assert proc.stderr == (b"WARNING ucov: footprint 'none' is empty; "
                           b"profile weights are all zero\n")
    assert json.loads(proc.stdout)["basis"] == "ActualUniqueUses"


def test_child_exit_codes_of_a_missing_model_and_a_strict_parse_error(sum_path, tmp_path):
    proc = child("coverage", "--sum", str(tmp_path / "missing.json"), "x.json", cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1
    bad = tmp_path / "src" / "Bad.java"
    bad.parent.mkdir()
    bad.write_text("class Broken {")
    proc = child("suf", "--sum", str(sum_path), str(bad.parent), "-o",
                 str(tmp_path / "f.json"), cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1
    assert not (tmp_path / "f.json").exists()


def one_line_write_error(proc: subprocess.CompletedProcess, reason: bytes) -> bool:
    return (proc.returncode, proc.stderr) == (
        1, b"error: cannot write to standard output: " + reason + b"\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("command", ["sum", "profile", "coverage"])
def test_child_stdout_on_a_full_device_is_a_one_line_error(sum_path, sufs, tmp_path, command):
    argv = {
        "sum": ["sum", ARRAYLIST_LIB, "-o", str(tmp_path / "m.json")],
        "profile": ["profile", "--sum", str(sum_path)],
        "coverage": ["coverage", "--sum", str(sum_path), *sufs],
    }[command]
    with open("/dev/full", "wb") as full:
        proc = child(*argv, cwd=tmp_path, stdout=full)
    assert one_line_write_error(proc, b"No space left on device")


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("argv", [["--help"], ["suf", "--help"]], ids=["ucov", "suf"])
def test_child_help_on_a_full_device_or_a_closed_pipe_is_a_one_line_error(
        tmp_path, argv, unbuffered):
    """argparse ignores a failed write of its help, ucov does not.
    Unbuffered, that write fails; buffered, the flush before the exit."""
    ok = child(*argv, cwd=tmp_path, unbuffered=unbuffered)
    assert ok.returncode == 0 and ok.stdout.startswith(b"usage: ucov") and ok.stderr == b""
    if os.path.exists("/dev/full"):
        with open("/dev/full", "wb") as full:
            proc = child(*argv, cwd=tmp_path, stdout=full, unbuffered=unbuffered)
        assert one_line_write_error(proc, b"No space left on device")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = child(*argv, cwd=tmp_path, stdout=write_end, unbuffered=unbuffered)
    finally:
        os.close(write_end)
    assert one_line_write_error(proc, b"Broken pipe")


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_child_stdout_on_a_closed_pipe_is_a_one_line_error(
        sum_path, sufs, tmp_path, entry, unbuffered):
    """Unbuffered, the write fails; buffered, the flush after it. Either
    way the output left in the buffer fails the flush before the process
    exits too, which must not report it again."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = child("coverage", "--sum", str(sum_path), *sufs, cwd=tmp_path, entry=entry,
                     stdout=write_end, unbuffered=unbuffered)
    finally:
        os.close(write_end)
    assert one_line_write_error(proc, b"Broken pipe")


@pytest.fixture(scope="module")
def wide_coverage(tmp_path_factory) -> list[str]:
    """The ``coverage`` command line over a generated library of 1,000
    overridable methods and two footprints that use none of them: each of
    its three reports lists at least 2,000 uncovered uses, well over the
    64 KiB that a pipe buffers."""
    tmp = tmp_path_factory.mktemp("wide")
    (tmp / "lib" / "p").mkdir(parents=True)
    for i in range(20):
        methods = " ".join(f"public void m{j}() {{ }}" for j in range(50))
        (tmp / "lib" / "p" / f"T{i}.java").write_text(f"package p; public class T{i} {{ {methods} }}")
    sum_path = tmp / "sum.json"
    assert main(["sum", str(tmp / "lib"), "-o", str(sum_path)]) == 0
    sufs = []
    for label in ("a", "b"):
        (tmp / label).mkdir()
        (tmp / label / "C.java").write_text("package c; public class C { }")
        sufs.append(str(tmp / f"{label}.json"))
        assert main(["suf", "--sum", str(sum_path), "--label", label, str(tmp / label),
                     "-o", sufs[-1]]) == 0
    return ["coverage", "--sum", str(sum_path), *sufs]


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_child_stdout_closed_mid_stream_is_a_one_line_error(
        wide_coverage, tmp_path, entry, unbuffered):
    """``coverage`` writes its reports one at a time. The reader takes the
    first chunk and closes the pipe: a later write fails, and the command
    ends as if the first had, once."""
    err_path = tmp_path / "err"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, *ENTRIES[entry], *wide_coverage], cwd=tmp_path,
                                env=child_env(unbuffered), stdout=subprocess.PIPE, stderr=err)
        try:
            first = os.read(proc.stdout.fileno(), 4096)
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
    assert first.startswith(b'{"library":"lib","reports":[')
    assert (code, err_path.read_bytes()) == (
        1, b"error: cannot write to standard output: Broken pipe\n")


@pytest.fixture(scope="module")
def wide_compare(tmp_path_factory) -> tuple[list[str], bytes]:
    """The ``compare`` command line, without ``-o``, over 12 footprints of
    one 400-method library, and what it writes. Footprint i calls method k
    when bit i of k + 1 is set, so each method makes its own region, and
    the long labels make the one line of regions well over the 64 KiB
    that a pipe buffers."""
    tmp = tmp_path_factory.mktemp("regions")
    (tmp / "lib" / "p").mkdir(parents=True)
    methods = " ".join(f"public void m{k}() {{ }}" for k in range(400))
    (tmp / "lib" / "p" / "T.java").write_text(f"package p; public class T {{ {methods} }}")
    sum_path = tmp / "sum.json"
    assert main(["sum", str(tmp / "lib"), "-o", str(sum_path)]) == 0
    sufs = []
    for i in range(12):
        label = f"client-group-{i:02d}-of-a-corpus-with-a-long-label"
        calls = " ".join(f"t.m{k}();" for k in range(400) if (k + 1) >> i & 1)
        (tmp / label).mkdir()
        (tmp / label / "C.java").write_text(f"class C {{ void f(p.T t) {{ {calls} }} }}")
        sufs.append(str(tmp / f"{label}.json"))
        assert main(["suf", "--sum", str(sum_path), "--label", label, str(tmp / label),
                     "-o", sufs[-1]]) == 0
    argv = ["compare", "--sum", str(sum_path), *sufs]
    proc = child(*argv, cwd=tmp)
    assert proc.returncode == 0 and proc.stderr == b""
    return argv, proc.stdout


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_child_stdout_closed_during_one_large_write_is_a_one_line_error(
        wide_compare, tmp_path, entry, unbuffered):
    """``compare`` writes its regions in one piece. The reader takes the
    first chunk and closes the pipe: unbuffered, the write to the raw file
    takes only part of the bytes, and the rest must still be written, so
    the command fails instead of ending with a cut output and exit 0."""
    argv, whole = wide_compare
    assert len(whole) > 64 * 1024
    err_path = tmp_path / "err"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, *ENTRIES[entry], *argv], cwd=tmp_path,
                                env=child_env(unbuffered), stdout=subprocess.PIPE, stderr=err)
        try:
            first = os.read(proc.stdout.fileno(), 4096)
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
    assert whole.startswith(first) and first
    assert (code, err_path.read_bytes()) == (
        1, b"error: cannot write to standard output: Broken pipe\n")
