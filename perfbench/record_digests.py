"""Record the expected output digest of each (workload, seed).

    python3 perfbench/record_digests.py 0-31 1000003

Run from the root of a checkout whose outputs are known to be right. For
each seed (single numbers or inclusive ranges) and each workload it runs
one pipeline iteration, requires the outputs to pass the correctness
checks, and stores their content digest in ``expected_digests.json``,
keeping entries already there.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import checks
import corpus
from run import Bench, remove_work_dir


def parse_seeds(specs: list[str]) -> list[int]:
    seeds: list[int] = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv: list[str]) -> int:
    seeds = parse_seeds(argv)
    if not seeds:
        print(__doc__, file=sys.stderr)
        return 2
    repo = Path.cwd()
    table = json.loads(checks.DIGESTS_FILE.read_text(encoding="utf-8"))
    work = repo / ".perfbench_work" / f"record-{os.getpid()}"
    try:
        for workload in corpus.WORKLOADS:
            for seed in seeds:
                run_dir = work / f"{workload}-{seed}"
                bench = Bench(repo, workload, seed, run_dir)
                it = bench.iteration(traced=False)
                failed = [n for n, c in it.children.items() if c.exit_code != 0]
                problems = failed or checks.check_outputs(bench.corpus, it.out)
                if problems:
                    print(f"{workload} {seed}: not recorded: {problems}", file=sys.stderr)
                    return 1
                digest = checks.content_digest(bench.corpus, it.out)
                table.setdefault(workload, {})[str(seed)] = digest
                print(f"{workload} {seed} {digest}")
                shutil.rmtree(run_dir)
    finally:
        remove_work_dir(work)
    checks.DIGESTS_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
