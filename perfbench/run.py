"""Benchmark of the ucov command-line pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark generates the workload's
J-lite corpus from the seed (see corpus.py), then drives the real CLI in a
closed loop with one client: each iteration runs ``sum``, ``suf --config``,
``coverage``, ``compare`` and ``profile``, one after the other, each as a
fresh ``python -m ucov.cli`` child with ``PYTHONPATH=src``, its output files
in a scratch directory inside the checkout. Iterations repeat until S
seconds have passed.

With ``--trace 0`` it reports the end-to-end metrics: per-command wall time,
pipeline wall time, throughput in source lines per second, the largest peak
RSS of any command, and set-up time (a fresh interpreter importing
``ucov.cli``). Between iterations it runs reference.py, a fixed workload,
and scales each iteration's times by how fast the host ran it, so a slow
spell of a shared host does not read as a slow program; the raw wall times
are printed beside the scaled ones. With ``--trace 1`` it alternates
untraced iterations with iterations whose commands run under tracer.py, and
reports per-layer calls, counts and self times (raw) plus the tracing
overhead.

Every iteration's outputs must be byte-identical to those of an untimed
warm-up iteration, which the gate in checks.py verifies. The last line of
standard output is one JSON object: ``correct``, ``attempted`` (command
invocations), ``failed`` (failed invocations plus correctness problems) and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import checks
import corpus as corpus_mod
import tracer

BENCH_DIR = Path(__file__).resolve().parent
# Wall time of reference.py on the host the baseline was taken on. Timings
# are scaled by REFERENCE_NOMINAL_S / (reference time measured around the
# same iteration), which turns them into seconds on a host running at that
# nominal speed and cancels the host's own changes of speed.
REFERENCE_NOMINAL_S = 0.22
ORACLE_SAMPLE = {"classic-corpus": 3, "deep-fluent": 2, "wide-api": 2}
COMMANDS = ("sum", "suf", "coverage", "compare", "profile")
# Far above any command's time at the workloads' sizes; keeps a hung
# command from holding the run past the time a run may take.
CHILD_TIMEOUT_S = 60


@dataclass
class Child:
    seconds: float
    exit_code: int
    peak_rss_mb: float


@dataclass
class Iteration:
    traced: bool
    out: Path
    setup_s: float = 0.0
    pipeline_s: float = 0.0
    host_scale: float = 1.0
    children: dict[str, Child] = field(default_factory=dict)
    hashes: dict[str, str] = field(default_factory=dict)


def run_child(argv: list[str], cwd: Path, env: dict, stdout: Path, stderr: Path) -> Child:
    """Run one child to completion; its peak RSS comes from its own rusage.

    A child still running after CHILD_TIMEOUT_S is killed and reported with
    the signal as a negative exit code.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(seconds, proc.returncode, usage.ru_maxrss / 1024)


def command_args(corpus: corpus_mod.Corpus, out: str) -> dict[str, tuple[list[str], str]]:
    """ucov arguments of each command and the file its stdout goes to."""
    sufs = [f"{out}/sufs/{g}.json" for g in corpus.groups]
    model = f"{out}/sum.json"
    return {
        "sum": (["sum", "lib", "-o", model, "--name", corpus.library_name], "sum.txt"),
        "suf": (["suf", "--sum", model, "--config", "corpus.json", "-o", f"{out}/sufs"],
                "suf.txt"),
        "coverage": (["coverage", "--sum", model, *sufs], "coverage.json"),
        "compare": (["compare", "--sum", model, *sufs, "-o", f"{out}/regions.json"],
                    "compare.txt"),
        "profile": (["profile", "--sum", model], "profile.json"),
    }


class Bench:
    def __init__(self, repo: Path, workload: str, seed: int, work: Path):
        self.repo = repo
        self.work = work
        self.corpus = corpus_mod.generate(workload, seed, work / "corpus")
        self.python = sys.executable
        env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "UCOV_"))}
        env["PYTHONPATH"] = str(repo / "src")
        env["TMPDIR"] = str(work / "tmp")
        (work / "tmp").mkdir()
        self.env = env
        self.count = 0

    def setup_sample(self) -> Child:
        out = self.work / "setup"
        out.mkdir(exist_ok=True)
        return run_child([self.python, "-c", "import ucov.cli"], self.corpus.root,
                         self.env, out / "stdout", out / "stderr")

    def reference_sample(self) -> Child:
        out = self.work / "reference"
        out.mkdir(exist_ok=True)
        return run_child([self.python, "-S", str(BENCH_DIR / "reference.py")],
                         self.corpus.root, self.env, out / "stdout", out / "stderr")

    def iteration(self, traced: bool) -> Iteration:
        self.count += 1
        out = self.work / f"it{self.count}"
        (out / "spans").mkdir(parents=True)
        rel_out = os.path.relpath(out, self.corpus.root)
        it = Iteration(traced, out)
        t0 = time.perf_counter()
        for name, (args, stdout) in command_args(self.corpus, rel_out).items():
            if traced:
                argv = [self.python, str(BENCH_DIR / "tracer.py"),
                        str(out / "spans" / f"{name}.bin"), *args]
            else:
                argv = [self.python, "-m", "ucov.cli", *args]
            child = run_child(argv, self.corpus.root, self.env, out / stdout,
                              out / f"{name}.err")
            it.children[name] = child
            if child.exit_code != 0:
                break  # later commands read this one's output
        it.pipeline_s = time.perf_counter() - t0
        for path in sorted(out.rglob("*")):
            if path.is_file() and path.parent.name != "spans" and path.suffix != ".err":
                rel = path.relative_to(out).as_posix()
                it.hashes[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
        return it


def layer_metrics(it: Iteration) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, summed over its commands."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    counters: Counter = Counter()
    startup = 0.0
    for name, child in it.children.items():
        c, s, k = tracer.summarize(str(it.out / "spans" / f"{name}.bin"))
        calls.update(c)
        self_s.update(s)
        counters.update(k)
        # Every span nests in the command span, so the self times add up to
        # it; the rest of the child's wall time is interpreter start, imports
        # and exit.
        startup += child.seconds - sum(s.values())
    return layer_values(calls, self_s, counters, startup)


def layer_values(calls: Counter, self_s: Counter, counters: Counter,
                 startup: float) -> dict[str, float]:
    resolve_calls = calls["symtab.resolve_method"]
    m = {
        "lexer.calls": calls["lexer.tokenize"],
        "lexer.tokens": counters["lexer.tokens"],
        "lexer.self_s": self_s["lexer.tokenize"],
        "parser.units": counters["parser.units"],
        "parser.parse_errors": counters["parser.parse_errors"],
        "parser.self_s": self_s["parser.parse_unit"],
        "symtab.build.calls": calls["symtab.build"],
        "symtab.build.self_s": self_s["symtab.build"],
        "symtab.types": counters["symtab.types"],
        "symtab.supertype_closure.calls": calls["symtab.supertype_closure"],
        "symtab.supertype_closure.self_s": self_s["symtab.supertype_closure"],
        "symtab.resolve_method.calls": resolve_calls,
        "symtab.resolve_method.self_s": self_s["symtab.resolve_method"],
        "symtab.resolve_method.resolved_ratio": (
            counters["symtab.resolve_method.resolved"] / resolve_calls if resolve_calls else 1.0
        ),
        "symtab.find_field.calls": calls["symtab.find_field"],
        "symtab.find_field.self_s": self_s["symtab.find_field"],
        "symtab.super_methods.calls": calls["symtab.super_methods"],
        "symtab.super_methods.self_s": self_s["symtab.super_methods"],
        "typing_env.static_type_of.calls": calls["typing_env.static_type_of"],
        "typing_env.static_type_of.self_s": self_s["typing_env.static_type_of"],
        "model.symbols": counters["model.symbols"],
        "model.legal_uses": counters["model.legal_uses"],
        "model.build_sum.self_s": self_s["model.build_sum"],
        "model.to_dict.self_s": self_s["model.to_dict"],
        "model.from_dict.calls": calls["model.from_dict"],
        "model.from_dict.self_s": self_s["model.from_dict"],
        "footprint.extract.self_s": self_s["footprint.extract"],
        "footprint.triples": counters["footprint.triples"],
        "footprint.unique_uses": counters["footprint.unique_uses"],
        "footprint.diagnostics": counters["footprint.diagnostics"],
        "footprint.to_dict.self_s": self_s["footprint.to_dict"],
        "footprint.from_dict.self_s": self_s["footprint.from_dict"],
        "footprint.merge.self_s": self_s["footprint.merge"],
        "metrics.compute_coverage.calls": calls["metrics.compute_coverage"],
        "metrics.compute_coverage.self_s": self_s["metrics.compute_coverage"],
        "metrics.exclusive_regions.self_s": self_s["metrics.exclusive_regions"],
        "metrics.profile.self_s": self_s["metrics.profile"],
        "metrics.to_dict.self_s": self_s["metrics.to_dict"],
        "cli.dump_json.self_s": self_s["cli.dump_json"],
        "cli.self_s": self_s[tracer.ROOT_SPAN],
        "cli.bytes_written": counters["cli.bytes_written"],
        "process.startup_s": startup,
    }
    m["trace.accounted_s"] = sum(self_s.values()) + startup
    return m


def median_of(values: list[float]) -> float:
    # A run that failed before measuring reports zeros (and correct: false).
    return statistics.median(values) if values else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="ucov CLI pipeline benchmark")
    parser.add_argument("--workload", choices=corpus_mod.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    repo = Path.cwd()
    for needed in ("src/ucov/cli.py", "tests/oracle.py"):
        if not (repo / needed).is_file():
            print(f"error: {needed} not found; run from the root of a ucov checkout",
                  file=sys.stderr)
            return 2
    work = repo / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        bench = Bench(repo, args.workload, args.seed, work)
        print(f"phase generate {time.perf_counter() - t0:.2f} s")
        return measure(bench, args)
    finally:
        remove_work_dir(work)


def remove_work_dir(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()  # .perfbench_work, unless another run still uses it
    except OSError:
        pass


def failures(it: Iteration, where: str) -> list[str]:
    return [f"{where}: {name} exited {c.exit_code}"
            for name, c in it.children.items() if c.exit_code != 0]


def measure(bench: Bench, args: argparse.Namespace) -> int:
    corpus = bench.corpus
    print(f"workload {args.workload} seed {args.seed}: "
          + ", ".join(f"{k} {v}" for k, v in corpus.size_report().items()))

    t0 = time.perf_counter()
    bench.setup_sample()  # compiles bytecode once, as a user's first run does
    warm_up = bench.iteration(traced=False)
    attempted = len(warm_up.children)
    warm_up_failures = failures(warm_up, "warm-up")
    problems = list(warm_up_failures)
    if not problems:
        problems += checks.check_outputs(corpus, warm_up.out)
    if not problems:
        digest = checks.content_digest(corpus, warm_up.out)
        want = checks.expected_digest(args.workload, args.seed)
        if want is not None and want != digest:
            problems.append(f"output digest {digest} differs from recorded {want}")
        print(f"digest {args.workload} {args.seed} {digest}"
              f" ({'matches recorded' if want else 'no recorded digest for this seed'})")

    t1 = time.perf_counter()
    iterations: list[Iteration] = []
    references = [bench.reference_sample()]
    deadline = time.perf_counter() + args.seconds
    while not problems:
        traced = bool(args.trace) and len(iterations) % 2 == 1
        setup = bench.setup_sample()
        it = bench.iteration(traced)
        references.append(bench.reference_sample())
        it.setup_s = setup.seconds
        it.host_scale = REFERENCE_NOMINAL_S / statistics.mean(
            r.seconds for r in references[-2:]
        )
        iterations.append(it)
        k = len(iterations)
        print(f"iteration {k}{' traced' if traced else ''}: "
              f"host_scale {it.host_scale:.4f} setup_s {it.setup_s:.4f} "
              f"pipeline_s {it.pipeline_s:.4f} "
              + " ".join(f"{n}_s {c.seconds:.4f}" for n, c in it.children.items()))
        attempted += len(it.children)
        problems += failures(it, f"iteration {k}")
        problems += [f"iteration {k}: {name} exited {c.exit_code}"
                     for name, c in (("setup", setup), ("reference", references[-1]))
                     if c.exit_code != 0]
        if not problems and it.hashes != warm_up.hashes:
            changed = sorted(f for f in warm_up.hashes.keys() | it.hashes.keys()
                             if warm_up.hashes.get(f) != it.hashes.get(f))
            problems.append(f"iteration {k}: outputs differ from the warm-up's: {changed}")
        if time.perf_counter() >= deadline and (not args.trace or k >= 2):
            break
        if not it.traced:
            shutil.rmtree(it.out)

    t2 = time.perf_counter()
    if not warm_up_failures:
        compared, mismatched = checks.oracle_mismatches(
            corpus, warm_up.out, bench.repo, ORACLE_SAMPLE[args.workload]
        )
        print(f"oracle: {compared} sampled client files, "
              f"{mismatched} disagree with extract_uses")
        if compared == 0 or mismatched:
            problems.append(f"oracle: {mismatched} of {compared} sampled files disagree")
    print(f"phase warm-up and checks {t1 - t0:.2f} s, measured loop {t2 - t1:.2f} s, "
          f"oracle {time.perf_counter() - t2:.2f} s")

    for p in problems:
        print(f"problem: {p}")
    complete = [it for it in iterations if len(it.children) == len(COMMANDS)]
    if args.trace:
        metrics = traced_metrics(complete)
    else:
        metrics = end_to_end_metrics(corpus, [it for it in complete if not it.traced])
    print(f"error_rate {len(problems) / attempted:.4f} "
          f"({len(problems)} failed of {attempted} invocations)")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def host_scaled(name: str, plain: list[Iteration], raw: list[float]) -> tuple[float, str]:
    value = median_of([r * it.host_scale for r, it in zip(raw, plain)])
    print(f"metric {name} {value:.4f} s (median of {len(raw)} host-scaled samples; "
          f"raw median {median_of(raw):.4f} s)")
    return value, "s"


def end_to_end_metrics(corpus, plain: list[Iteration]) -> dict:
    scales = [it.host_scale for it in plain]
    if scales:
        print(f"host_scale median {median_of(scales):.4f}, min {min(scales):.4f}, "
              f"max {max(scales):.4f} (reference nominal {REFERENCE_NOMINAL_S} s)")
    m = {"setup_s": host_scaled("setup_s", plain, [it.setup_s for it in plain])}
    for name in COMMANDS:
        m[f"{name}_s"] = host_scaled(f"{name}_s", plain,
                                     [it.children[name].seconds for it in plain])
    pipeline, _ = m["pipeline_s"] = host_scaled("pipeline_s", plain,
                                                [it.pipeline_s for it in plain])
    m["loc_per_s"] = (corpus.lines / pipeline if pipeline else 0.0, "1/s")
    print(f"metric loc_per_s {m['loc_per_s'][0]:.1f} 1/s ({corpus.lines} lines / pipeline_s)")
    rss = median_of([max(c.peak_rss_mb for c in it.children.values()) for it in plain])
    m["peak_rss_mb"] = (rss, "MB")
    print(f"metric peak_rss_mb {rss:.1f} MB (median of {len(plain)})")
    return m


def layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_ratio"):
        return "ratio"
    if key.endswith("bytes_written"):
        return "bytes"
    return "count"


def traced_metrics(iterations: list[Iteration]) -> dict:
    traced = [layer_metrics(it) for it in iterations if it.traced]
    traced = traced or [layer_values(Counter(), Counter(), Counter(), 0.0)]
    plain = [it.pipeline_s for it in iterations if not it.traced]
    traced_pipeline = median_of([it.pipeline_s for it in iterations if it.traced])
    m = {}
    for key in traced[0]:
        if key == "trace.accounted_s":
            continue
        m[key] = (median_of([t[key] for t in traced]), layer_unit(key))
    m["trace.overhead_s"] = (traced_pipeline - median_of(plain), "s")
    accounted = median_of([t["trace.accounted_s"] for t in traced])
    print(f"traced pipeline_s {traced_pipeline:.4f} s (median of {len(traced)}); "
          f"untraced {median_of(plain):.4f} s (median of {len(plain)}); "
          f"layer self times plus process start-up account for {accounted:.4f} s "
          f"({accounted / traced_pipeline if traced_pipeline else 0.0:.1%})")
    for key, (value, unit) in m.items():
        print(f"layer {key} {value:.6g} {unit}")
    return m


if __name__ == "__main__":
    sys.exit(main())
