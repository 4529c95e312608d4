"""End-to-end CLI tests: commands, formats, exit codes, and determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest

from conftest import FIXTURES
from ucov import metrics as m
from ucov.cli import main

ARRAYLIST_LIB = str(FIXTURES / "arraylist" / "lib")
CLASSIC = str(FIXTURES / "arraylist" / "classic")
FRAMEWORK = str(FIXTURES / "arraylist" / "framework")


@pytest.fixture()
def sum_path(tmp_path):
    path = tmp_path / "sum.json"
    assert main(["sum", ARRAYLIST_LIB, "-o", str(path), "--name", "arraylist"]) == 0
    return path


def suf(sum_path, tmp_path, label, root):
    out = tmp_path / f"{label}.json"
    code = main(
        ["suf", "--sum", str(sum_path), "--label", label, root, "-o", str(out)]
    )
    assert code == 0
    return out


def test_sum_command(tmp_path, capsys):
    path = tmp_path / "sum.json"
    assert main(["sum", ARRAYLIST_LIB, "-o", str(path), "--name", "arraylist"]) == 0
    data = json.loads(path.read_text())
    assert data["library"] == "arraylist"
    assert len(data["symbols"]) == 3
    out = capsys.readouterr().out
    assert "symbols: 3, legal uses: 6" in out


def test_sum_names_the_library_after_its_resolved_root(tmp_path, monkeypatch, capsys):
    lib = tmp_path / "mylib"
    (lib / "p").mkdir(parents=True)
    (lib / "p" / "A.java").write_text("package p; public class A { }")
    written = {}
    for cwd, root in ((lib, "."), (lib / "p", ".."), (tmp_path, "mylib")):
        monkeypatch.chdir(cwd)
        assert main(["sum", root, "-o", str(tmp_path / "sum.json")]) == 0
        written[root] = json.loads((tmp_path / "sum.json").read_text())["library"]
    assert written == {".": "mylib", "..": "mylib", "mylib": "mylib"}
    capsys.readouterr()


def test_suf_label_defaults_to_client(sum_path, tmp_path):
    out = tmp_path / "f.json"
    assert main(["suf", "--sum", str(sum_path), CLASSIC, "-o", str(out)]) == 0
    assert json.loads(out.read_text())["label"] == "client"


def test_suf_command(sum_path, tmp_path, capsys):
    out = suf(sum_path, tmp_path, "classic", CLASSIC)
    data = json.loads(out.read_text())
    assert data["label"] == "classic"
    assert data["library"] == "arraylist"
    assert len(data["uses"]) == 5
    assert data["diagnostics"] == []
    assert "classic: unique uses: 4, total uses: 5" in capsys.readouterr().out


def test_suf_config_corpus(sum_path, tmp_path):
    config = tmp_path / "corpus.json"
    config.write_text(
        json.dumps({"groups": {"classic": [CLASSIC], "framework": [FRAMEWORK]}})
    )
    outdir = tmp_path / "sufs"
    code = main(
        ["suf", "--sum", str(sum_path), "--config", str(config), "-o", str(outdir)]
    )
    assert code == 0
    assert {p.name for p in outdir.iterdir()} == {"classic.json", "framework.json"}
    assert json.loads((outdir / "framework.json").read_text())["label"] == "framework"


def test_cr_and_crlf_line_ends_give_the_lf_footprint(sum_path, tmp_path):
    def triples(name: str, newline: str) -> list:
        root = tmp_path / name
        root.mkdir()
        for path in [*Path(CLASSIC).glob("*.java"), *Path(FRAMEWORK).glob("*.java")]:
            text = path.read_text(encoding="utf-8").replace("\n", newline)
            (root / path.name).write_bytes(text.encode("utf-8"))
        uses = json.loads(suf(sum_path, tmp_path, name, str(root)).read_text())["uses"]
        return [(Path(u["file"]).name, u["line"], u["col"], u["fqn"], u["use"]) for u in uses]

    lf = triples("lf", "\n")
    assert len({line for _, line, *_ in lf}) > 3
    assert triples("cr", "\r") == lf
    assert triples("crlf", "\r\n") == lf


def test_coverage_json(sum_path, tmp_path, capsys):
    a = suf(sum_path, tmp_path, "classic", CLASSIC)
    b = suf(sum_path, tmp_path, "framework", FRAMEWORK)
    capsys.readouterr()
    assert main(["coverage", "--sum", str(sum_path), str(a), str(b)]) == 0
    payload = json.loads(capsys.readouterr().out)
    reports = {r["label"]: r for r in payload["reports"]}
    assert set(reports) == {"classic", "framework", "All"}
    assert reports["classic"]["use_coverage"] == 0.6667
    assert reports["framework"]["use_coverage"] == 0.3333
    assert reports["All"]["use_coverage"] == 1.0
    assert reports["All"]["symbol_coverage"] == 1.0
    assert reports["All"]["totals"]["total_uses"] == 7


def test_coverage_text(sum_path, tmp_path, capsys):
    a = suf(sum_path, tmp_path, "classic", CLASSIC)
    capsys.readouterr()
    assert main(["coverage", "--sum", str(sum_path), "--format", "text", str(a)]) == 0
    out = capsys.readouterr().out
    assert "Use coverage" in out
    assert "0.6667" in out
    assert "Legal uses" in out


def test_compare_command(sum_path, tmp_path, capsys):
    a = suf(sum_path, tmp_path, "classic", CLASSIC)
    b = suf(sum_path, tmp_path, "framework", FRAMEWORK)
    out = tmp_path / "regions.json"
    assert main(["compare", "--sum", str(sum_path), str(a), str(b), "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["labels"] == ["classic", "framework"]
    assert data["regions"] == [
        {"members": ["classic"], "count": 4},
        {"members": ["framework"], "count": 2},
        {"members": ["classic", "framework"], "count": 0},
    ]


def test_compare_requires_two_footprints(sum_path, tmp_path, capsys):
    a = suf(sum_path, tmp_path, "classic", CLASSIC)
    assert main(["compare", "--sum", str(sum_path), str(a)]) == 1


def test_compare_of_more_than_16_footprints_exits_1_before_building_regions(
    sum_path, tmp_path, capsys
):
    # Every non-empty subset of labels is a region: 17 footprints would make
    # 131,071 of them, and each further footprint doubles their memory.
    (tmp_path / "none").mkdir()
    empty = json.loads(suf(sum_path, tmp_path, "empty", str(tmp_path / "none")).read_text())
    paths = []
    for i in range(17):
        path = tmp_path / f"f{i}.json"
        path.write_text(json.dumps({**empty, "label": f"f{i}"}))
        paths.append(str(path))
    out = tmp_path / "regions.json"
    capsys.readouterr()
    assert main(["compare", "--sum", str(sum_path), *paths, "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: at most 16 footprints can be compared (65,535 regions); got 17\n"
    )
    assert captured.out == ""
    assert not out.exists()


def test_profile_command(sum_path, tmp_path, capsys):
    capsys.readouterr()
    assert main(["profile", "--sum", str(sum_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["basis"] == "LegalUses"
    assert payload["weights"]["MethodInvocation"] == 0.1667
    a = suf(sum_path, tmp_path, "classic", CLASSIC)
    capsys.readouterr()
    assert main(["profile", "--sum", str(sum_path), "--suf", str(a)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["basis"] == "ActualUniqueUses"
    assert payload["weights"]["MethodInvocation"] == 0.25


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["sum", str(tmp_path / "nowhere"), "-o", str(tmp_path / "x.json")]) == 1
    assert main(["coverage", "--sum", str(tmp_path / "missing.json"), "x"]) == 1
    assert main(["bogus-command"]) == 1
    assert main([]) == 1


def _illegal_row_footprint(sum_path, tmp_path):
    data = json.loads(suf(sum_path, tmp_path, "classic", CLASSIC).read_text())
    for use in data["uses"]:
        if use["use"] == "Instantiation":
            use["use"] = "FieldWrite"
    path = tmp_path / "illegal.json"
    path.write_text(json.dumps(data))
    return ["coverage", "--sum", str(sum_path), "--format", "text", str(path)]


def _labelled(label, command):
    def argv(sum_path, tmp_path):
        data = json.loads(suf(sum_path, tmp_path, "classic", CLASSIC).read_text())
        data["label"] = label
        path = tmp_path / "labelled.json"
        path.write_text(json.dumps(data))
        other = suf(sum_path, tmp_path, "framework", FRAMEWORK)
        return [command, "--sum", str(sum_path), str(path), str(other)]

    return argv


def _config(content):
    def argv(sum_path, tmp_path):
        path = tmp_path / "corpus.json"
        if content is not None:
            path.write_text(json.dumps(content))
        out = str(tmp_path / "sufs")
        return ["suf", "--sum", str(sum_path), "--config", str(path), "-o", out]

    return argv


def _model(edit):
    def argv(sum_path, tmp_path):
        path = tmp_path / "edited-sum.json"
        path.write_text(json.dumps(edit(json.loads(sum_path.read_text()))))
        return ["profile", "--sum", str(path)]

    return argv


def _without_symbols(data):
    del data["symbols"]
    return data


@pytest.mark.parametrize(
    "make_argv",
    [
        _illegal_row_footprint,
        _labelled(5, "coverage"),
        _labelled([5], "compare"),
        _config(None),
        _config({"groups": ["a"]}),
        _model(lambda data: []),
        _model(_without_symbols),
    ],
    ids=[
        "illegal-footprint-row",
        "footprint-label-a-number",
        "footprint-label-a-list",
        "missing-config",
        "config-groups-not-a-map",
        "model-not-an-object",
        "model-without-symbols",
    ],
)
def test_malformed_input_exits_1_with_one_line(sum_path, tmp_path, capsys, make_argv):
    argv = make_argv(sum_path, tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_mismatched_footprint_exits_1(sum_path, tmp_path, capsys):
    other = tmp_path / "other-sum.json"
    assert (
        main(["sum", str(FIXTURES / "fluent" / "lib"), "-o", str(other), "--name", "fluent"])
        == 0
    )
    a = suf(sum_path, tmp_path, "classic", CLASSIC)
    assert main(["coverage", "--sum", str(other), str(a)]) == 1
    assert "error:" in capsys.readouterr().err


def test_strict_parse_error_exits_2(sum_path, tmp_path, capsys):
    bad = tmp_path / "src" / "Bad.java"
    bad.parent.mkdir()
    bad.write_text("class Broken {")
    code = main(
        ["suf", "--sum", str(sum_path), str(bad.parent), "-o", str(tmp_path / "f.json")]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_lenient_parse_error_is_diagnostic(sum_path, tmp_path, capsys):
    bad = tmp_path / "src" / "Bad.java"
    bad.parent.mkdir()
    bad.write_text("class Broken {")
    out = tmp_path / "f.json"
    code = main(
        ["suf", "--sum", str(sum_path), "--lenient", str(bad.parent), "-o", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert [d["kind"] for d in data["diagnostics"]] == ["ParseError"]


DEEP_JSON = '{"a":' * 200_000 + "1" + "}" * 200_000


@pytest.mark.parametrize("kind", ["model", "footprint", "config"])
def test_deeply_nested_json_exits_1_with_one_line(sum_path, tmp_path, capsys, kind):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    argv = {
        "model": ["profile", "--sum", str(deep)],
        "footprint": ["coverage", "--sum", str(sum_path), str(deep)],
        "config": ["suf", "--sum", str(sum_path), "--config", str(deep), "-o", str(tmp_path)],
    }[kind]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {deep}: invalid JSON: ") and err.count("\n") == 1


def _write_argvs(sum_path, tmp_path, out):
    a = suf(sum_path, tmp_path, "classic", CLASSIC)
    b = suf(sum_path, tmp_path, "framework", FRAMEWORK)
    return {
        "sum": ["sum", ARRAYLIST_LIB, "-o", str(out)],
        "suf": ["suf", "--sum", str(sum_path), CLASSIC, "-o", str(out)],
        "compare": ["compare", "--sum", str(sum_path), str(a), str(b), "-o", str(out)],
    }


@pytest.mark.parametrize("command", ["sum", "suf", "compare"])
@pytest.mark.parametrize("where", ["under-a-file", "a-directory"])
def test_an_output_path_that_cannot_be_written_exits_1_naming_it(
    sum_path, tmp_path, capsys, command, where
):
    blocker = tmp_path / "blocker"
    if where == "under-a-file":
        blocker.write_text("")
        out = blocker / "out.json"
    else:
        blocker.mkdir()
        out = blocker
    argv = _write_argvs(sum_path, tmp_path, out)[command]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]
    assert blocker.is_file() if where == "under-a-file" else list(blocker.iterdir()) == []


# Not UTF-8: 0xff after a CRLF line end and a two-byte character.
NOT_UTF8 = b"class A {\r\n  // caf\xc3\xa9 \xff\n}\n"


def test_a_file_that_is_not_utf8_is_a_parse_error(sum_path, tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "A.java").write_bytes(NOT_UTF8)
    (src / "G.java").write_text("class G { }")
    out = tmp_path / "f.json"
    argv = ["suf", "--sum", str(sum_path), str(src), "-o", str(out)]
    assert main(argv + ["--lenient"]) == 0
    data = json.loads(out.read_text())
    assert [(d["kind"], d["file"], d["line"], d["col"], d["message"])
            for d in data["diagnostics"]] == [
        ("ParseError", str(src / "A.java"), 2, 11, "invalid UTF-8 byte 0xff")
    ]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {src / 'A.java'}:2:11: invalid UTF-8 byte 0xff\n"
    )
    assert main(["sum", str(src), "-o", str(tmp_path / "s.json")]) == 2
    assert capsys.readouterr().err == (
        f"error: {src / 'A.java'}:2:11: invalid UTF-8 byte 0xff\n"
    )


def test_a_directory_named_like_a_source_file_is_skipped(sum_path, tmp_path):
    src = tmp_path / "src"
    (src / "Dir.java").mkdir(parents=True)
    (src / "G.java").write_text("class G { }")
    assert main(["sum", str(src), "-o", str(tmp_path / "s.json")]) == 0
    assert main(["suf", "--sum", str(sum_path), str(src), "-o", str(tmp_path / "f.json")]) == 0


@pytest.mark.parametrize("lenient", [[], ["--lenient"]], ids=["strict", "lenient"])
def test_an_unreadable_source_file_exits_1_naming_it(sum_path, tmp_path, capsys, lenient):
    src = tmp_path / "src"
    src.mkdir()
    (src / "G.java").write_text("class G { }")
    (src / "Gone.java").symlink_to(tmp_path / "nowhere.java")
    out = tmp_path / "f.json"
    capsys.readouterr()
    assert main(["suf", "--sum", str(sum_path), str(src), "-o", str(out)] + lenient) == 1
    assert capsys.readouterr().err == (
        f"error: cannot read {src / 'Gone.java'}: No such file or directory\n"
    )
    assert not out.exists()
    assert main(["sum", str(src), "-o", str(tmp_path / "s.json")]) == 1
    assert f"cannot read {src / 'Gone.java'}" in capsys.readouterr().err


@pytest.mark.parametrize("root", ["directory", "file"])
@pytest.mark.parametrize("argv", [["sum"], ["suf"], ["suf", "--lenient"]],
                         ids=["sum", "suf-strict", "suf-lenient"])
def test_a_fifo_named_like_a_source_file_exits_1_naming_it(sum_path, tmp_path, argv, root):
    """Reading a FIFO would block until a writer comes, so it is never opened,
    whether it is found under a root or named as one."""
    src = tmp_path / "src"
    src.mkdir()
    (src / "G.java").write_text("class G { }")
    os.mkfifo(src / "F.java")
    out = tmp_path / "out.json"
    if argv[0] == "suf":
        argv = [*argv, "--sum", str(sum_path)]
    argv = [*argv, str(src if root == "directory" else src / "F.java"), "-o", str(out)]
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "UCOV_"))}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-m", "ucov.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 1
    assert proc.stderr == f"error: cannot read {src / 'F.java'}: not a regular file\n"
    assert not out.exists()


def test_a_corpus_config_writes_every_footprint_or_none(sum_path, tmp_path, capsys):
    config = tmp_path / "corpus.json"
    config.write_text(json.dumps({"groups": {"a": [CLASSIC], "b": [FRAMEWORK]}}))
    outdir = tmp_path / "out"
    (outdir / "b.json").mkdir(parents=True)
    argv = ["suf", "--sum", str(sum_path), "--config", str(config), "-o", str(outdir)]
    capsys.readouterr()
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cannot write {outdir / 'b.json'}: Is a directory\n"
    assert sorted(p.name for p in outdir.iterdir()) == ["b.json"]
    assert list((outdir / "b.json").iterdir()) == []
    (outdir / "b.json").rmdir()
    (outdir / "a.json").write_text("old")
    (outdir / "b.json").write_text("old")
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "a: unique uses: 4, total uses: 5", "b: unique uses: 2, total uses: 2"
    ]
    assert [json.loads((outdir / f"{g}.json").read_text())["label"] for g in "ab"] == ["a", "b"]


# ---------------------------------------------------------------------------
# Determinism and round-trips
# ---------------------------------------------------------------------------


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    outputs = []
    for i in range(2):
        sum_p = tmp_path / f"sum{i}.json"
        main(["sum", ARRAYLIST_LIB, "-o", str(sum_p), "--name", "arraylist"])
        suf_p = tmp_path / f"suf{i}.json"
        main(["suf", "--sum", str(sum_p), "--label", "c", CLASSIC, "-o", str(suf_p)])
        capsys.readouterr()
        main(["coverage", "--sum", str(sum_p), str(suf_p)])
        cov = capsys.readouterr().out
        outputs.append((sum_p.read_bytes(), suf_p.read_bytes(), cov))
    assert outputs[0] == outputs[1]


def test_cli_round_trip_matches_in_process(sum_path, tmp_path):
    from conftest import client_units, model_for
    from ucov import extract_uses, footprint_to_dict, model_from_dict

    data = json.loads(sum_path.read_text())
    model = model_from_dict(data)
    fp = extract_uses(client_units("arraylist", "classic"), model, label="classic")
    cli_out = suf(sum_path, tmp_path, "classic", CLASSIC)
    cli_data = json.loads(cli_out.read_text())
    ours = json.loads(footprint_to_dict(fp))
    assert {tuple(sorted(u.items())) for u in ours["uses"]} == {
        tuple(sorted(u.items())) for u in cli_data["uses"]
    }


def test_too_deep_nesting_is_skipped_in_lenient_mode(sum_path, tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    classic = sorted((FIXTURES / "arraylist" / "classic").rglob("*.java"))[0]
    (src / classic.name).write_text(classic.read_text())
    (src / "Deep.java").write_text(
        "class Deep { Object f() { return " + "(" * 3000 + "1" + ")" * 3000 + "; } }"
    )
    out = tmp_path / "f.json"
    argv = ["suf", "--sum", str(sum_path), str(src), "-o", str(out)]
    assert main(argv + ["--lenient"]) == 0
    data = json.loads(out.read_text())
    assert data["uses"]
    assert [(d["kind"], d["file"]) for d in data["diagnostics"]] == [
        ("ParseError", str(src / "Deep.java"))
    ]
    assert "nesting deeper than" in data["diagnostics"][0]["message"]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nesting deeper than" in err


def test_inheritance_chain_of_any_depth_exits_0(tmp_path, capsys):
    """A legal 2,000-level chain, declared most-derived first, in the library
    and among the client's own types."""
    depth = 2000

    def chain(prefix, root):
        return "".join(
            f"public class {prefix}{i} extends {prefix}{i + 1} {{ }}\n" for i in range(depth)
        ) + f"public class {prefix}{depth} {root}\n"

    lib, client = tmp_path / "lib", tmp_path / "client"
    lib.mkdir()
    client.mkdir()
    (lib / "Chain.java").write_text("package p;\n" + chain("A", "{ public void m() { } }"))
    (client / "Use.java").write_text(
        "package c;\nimport p.*;\n"
        + chain("C", "extends A0 { public void m() { } void f(A0 a) { a.m(); } }")
    )
    sum_json = tmp_path / "sum.json"
    assert main(["sum", str(lib), "-o", str(sum_json)]) == 0
    out = tmp_path / "f.json"
    argv = ["suf", "--sum", str(sum_json), str(client), "-o", str(out)]
    for extra in ([], ["--lenient"]):
        assert main(argv + extra) == 0
        uses = json.loads(out.read_text())["uses"]
        assert {(u["fqn"], u["use"]) for u in uses} >= {
            ("p.A2000.m", "Overriding"),
            ("p.A2000.m", "MethodInvocation"),
        }
    assert "error" not in capsys.readouterr().err


def test_duplicate_group_labels_exit_1(sum_path, tmp_path, capsys):
    config = tmp_path / "corpus.json"
    config.write_text(
        f'{{"groups": {{"a": [{json.dumps(CLASSIC)}], "a": [{json.dumps(FRAMEWORK)}]}}}}'
    )
    out = tmp_path / "sufs"
    capsys.readouterr()
    assert main(["suf", "--sum", str(sum_path), "--config", str(config), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {config}: invalid JSON: duplicate key 'a'\n"
    assert not out.exists()


ROOTS_GIVEN = "--config defines the client roots; give none on the command line"
LABEL_GIVEN = "--config defines the labels; --label cannot be used with it"
MALFORMED = "{path}: malformed content: corpus config "


@pytest.mark.parametrize(
    "config, extra, message",
    [
        (
            {"groups": {"../escaped": [CLASSIC]}},
            [],
            MALFORMED + "label '../escaped' contains a path separator",
        ),
        (
            {"groups": {"a\\b": [CLASSIC]}},
            [],
            MALFORMED + "label 'a\\\\b' contains a path separator",
        ),
        (
            {"groups": {"a": [CLASSIC]}, "lenient": "false"},
            [],
            MALFORMED + "lenient must be true or false",
        ),
        ({"groups": {"a": "x"}}, [], MALFORMED + "groups must map labels to lists of roots"),
        ({"groups": {}}, [], MALFORMED + "defines no groups"),
        (
            {"groups": {"a": [CLASSIC], "b": [FRAMEWORK, "/nonexistent/root"]}},
            [],
            "b: client root /nonexistent/root does not exist",
        ),
        ({"groups": {"a": [CLASSIC]}}, ["no/such/dir"], ROOTS_GIVEN),
        ({"groups": {"a": [CLASSIC]}}, [CLASSIC], ROOTS_GIVEN),
        ({"groups": {"a": [CLASSIC]}}, ["--label", "other"], LABEL_GIVEN),
        ({"groups": {"a": [CLASSIC]}}, ["--label", "client"], LABEL_GIVEN),
        ({"groups": {"a": [CLASSIC]}}, ["--label", "other", "no/such/dir"], ROOTS_GIVEN),
    ],
    ids=[
        "label-with-slash", "label-with-backslash", "lenient-not-a-boolean", "roots-not-a-list",
        "no-groups", "missing-root",
        "with-missing-client-root", "with-client-root", "with-label", "with-default-label",
        "with-label-and-client-root",
    ],
)
def test_bad_corpus_config_exits_1_and_writes_nothing(
    sum_path, tmp_path, capsys, config, extra, message
):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    capsys.readouterr()
    argv = ["suf", "--sum", str(sum_path), "--config", str(path), "-o", str(out / "sufs")]
    assert main(argv + extra) == 1
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
    assert not out.exists()


def test_missing_command_line_root_exits_1_and_writes_nothing(sum_path, tmp_path, capsys):
    out = tmp_path / "f.json"
    capsys.readouterr()
    argv = ["suf", "--sum", str(sum_path), "--label", "t", CLASSIC, "/nonexistent/root"]
    assert main(argv + ["-o", str(out)]) == 1
    assert capsys.readouterr().err == "error: t: client root /nonexistent/root does not exist\n"
    assert not out.exists()


def test_line_break_in_a_literal_skips_the_file_or_exits_2(sum_path, tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "Str.java").write_text('class Str {\n  String s = "a\\\nb";\n  int x;\n}\n')
    out = tmp_path / "f.json"
    argv = ["suf", "--sum", str(sum_path), str(src), "-o", str(out)]
    assert main(argv + ["--lenient"]) == 0
    data = json.loads(out.read_text())
    assert [(d["kind"], d["line"], d["col"], d["message"]) for d in data["diagnostics"]] == [
        ("ParseError", 2, 14, "unterminated string literal")
    ]
    capsys.readouterr()
    assert main(argv) == 2
    assert "unterminated string literal" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Output layout
# ---------------------------------------------------------------------------


def test_every_command_writes_its_content_as_one_line(sum_path, tmp_path, capsys):
    from conftest import client_units, model_for
    from ucov import extract_uses, footprint_from_dict, footprint_to_dict, merge
    from ucov import model_from_dict, model_to_dict

    def one_line(text: str) -> dict:
        assert text.endswith("\n") and text.count("\n") == 1
        return json.loads(text)

    written = one_line(sum_path.read_text(encoding="utf-8"))
    assert written == json.loads(model_to_dict(model_for("arraylist")))
    model = model_from_dict(json.loads(sum_path.read_text()))
    a = suf(sum_path, tmp_path, "classic", CLASSIC)
    b = suf(sum_path, tmp_path, "framework", FRAMEWORK)
    fp_a = extract_uses(client_units("arraylist", "classic"), model, label="classic")
    assert one_line(a.read_text(encoding="utf-8")) == json.loads(footprint_to_dict(fp_a))
    fps = [footprint_from_dict(json.loads(p.read_text()), model) for p in (a, b)]
    capsys.readouterr()

    assert main(["coverage", "--sum", str(sum_path), str(a), str(b)]) == 0
    reports = [(fp.label, m.compute_coverage(model, fp)) for fp in fps]
    reports.append(("All", m.compute_coverage(model, reduce(merge, fps))))
    assert one_line(capsys.readouterr().out) == {
        "library": "arraylist",
        "reports": [json.loads(m.coverage_to_dict(r, model, l)) for l, r in reports],
    }
    out = tmp_path / "regions.json"
    assert main(["compare", "--sum", str(sum_path), str(a), str(b), "-o", str(out)]) == 0
    regions = m.regions_to_dict(m.exclusive_regions(fps))
    assert one_line(out.read_text(encoding="utf-8")) == regions
    assert main(["compare", "--sum", str(sum_path), str(a), str(b)]) == 0
    assert one_line(capsys.readouterr().out) == regions
    assert main(["profile", "--sum", str(sum_path)]) == 0
    assert one_line(capsys.readouterr().out) == m.profile_to_dict(m.profile(model))
    assert main(["profile", "--sum", str(sum_path), "--suf", str(a)]) == 0
    assert one_line(capsys.readouterr().out) == m.profile_to_dict(m.profile(fps[0]))


def test_non_ascii_identifiers_are_written_unescaped(tmp_path, capsys):
    lib = tmp_path / "lib" / "straße"
    lib.mkdir(parents=True)
    (lib / "Café.java").write_text(
        "package straße; public class Café { public void grüße() { } }", encoding="utf-8"
    )
    src = tmp_path / "src"
    src.mkdir()
    (src / "Ü.java").write_text(
        "package k; import straße.Café; public class Ü { void f(Café c) { c.grüße(); } }",
        encoding="utf-8",
    )
    sum_path, suf_path = tmp_path / "sum.json", tmp_path / "suf.json"
    assert main(["sum", str(tmp_path / "lib"), "-o", str(sum_path), "--name", "bücher"]) == 0
    assert main(["suf", "--sum", str(sum_path), str(src), "-o", str(suf_path)]) == 0
    capsys.readouterr()
    assert main(["coverage", "--sum", str(sum_path), str(suf_path)]) == 0
    texts = [
        sum_path.read_text(encoding="utf-8"),
        suf_path.read_text(encoding="utf-8"),
        capsys.readouterr().out,
    ]
    for text in texts:
        assert "straße.Café.grüße" in text and "bücher" in text
        assert "\\u" not in text
    uses = json.loads(texts[1])["uses"]
    assert {(u["fqn"], u["use"]) for u in uses} >= {("straße.Café.grüße", "MethodInvocation")}
