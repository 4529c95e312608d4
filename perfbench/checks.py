"""Correctness gate of the ucov benchmark.

Three independent checks on the outputs of one pipeline iteration:

* :func:`check_outputs` compares the JSON the CLI wrote with what the
  generator knows about its corpus (model size and use-kind mix, planted
  parse errors, group labels) and with each other (coverage totals and
  intersection regions recomputed from the footprints).
* :func:`content_digest` hashes the outputs' JSON content, independent of
  indentation, so it can be compared with the digests recorded for known
  (workload, seed) pairs in ``expected_digests.json``.
* :func:`oracle_mismatches` runs ``extract_uses`` and the brute-force oracle
  of the repository's tests on a seeded sample of client files.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from corpus import USE_KINDS, Corpus

DIGESTS_FILE = Path(__file__).with_name("expected_digests.json")


def json_outputs(corpus: Corpus) -> list[str]:
    """Paths, relative to the output directory, of every JSON output."""
    return (
        ["sum.json"]
        + [f"sufs/{g}.json" for g in corpus.groups]
        + ["coverage.json", "regions.json", "profile.json"]
    )


def _ratio(num: int, den: int) -> float:
    # The CLI renders exact ratios to four decimal places.
    return float(f"{float(Fraction(num, den)):.4f}")


def _load(out: Path, rel: str, problems: list[str]):
    try:
        return json.loads((out / rel).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"{rel}: unreadable: {exc}")
        return None


def check_outputs(corpus: Corpus, out: Path) -> list[str]:
    """Problems found in the outputs under ``out``; empty when all hold."""
    problems: list[str] = []
    model = _load(out, "sum.json", problems)
    if model is None:
        return problems
    legal = {(s["fqn"], s["signature"]): set(s["uses"]) for s in model["symbols"]}
    kinds = Counter(u for s in model["symbols"] for u in s["uses"])
    total_legal = sum(corpus.legal_uses.values())
    if model.get("library") != corpus.library_name:
        problems.append(f"sum.json: library {model.get('library')!r}")
    if len(legal) != corpus.symbols:
        problems.append(f"sum.json: {len(legal)} symbols, expected {corpus.symbols}")
    if kinds != corpus.legal_uses:
        problems.append(f"sum.json: legal uses {dict(kinds)}, expected {dict(corpus.legal_uses)}")

    unique: dict[str, set] = {}
    totals: dict[str, int] = {}
    for label in corpus.groups:
        fp = _load(out, f"sufs/{label}.json", problems)
        if fp is None:
            continue
        if fp.get("label") != label or fp.get("library") != corpus.library_name:
            problems.append(f"sufs/{label}.json: label/library mismatch")
        parse_errors = sum(1 for d in fp["diagnostics"] if d["kind"] == "ParseError")
        if parse_errors != corpus.planted_parse_errors[label]:
            problems.append(
                f"sufs/{label}.json: {parse_errors} parse errors, "
                f"planted {corpus.planted_parse_errors[label]}"
            )
        pairs = set()
        for u in fp["uses"]:
            key = (u["fqn"], u["signature"])
            if u["use"] not in legal.get(key, ()):
                problems.append(f"sufs/{label}.json: illegal use {u['use']} of {key}")
                break
            pairs.add((u["fqn"], u["signature"], u["use"]))
        unique[label] = pairs
        totals[label] = len(fp["uses"])
    if len(unique) != len(corpus.groups):
        return problems

    union = set().union(*unique.values())
    expected_reports = dict(unique, All=union)
    expected_totals = dict(totals, All=sum(totals.values()))
    coverage = _load(out, "coverage.json", problems)
    if coverage is not None:
        labels = [r["label"] for r in coverage["reports"]]
        if labels != list(expected_reports):
            problems.append(f"coverage.json: reports {labels}")
        for r in coverage["reports"]:
            label = r["label"]
            if label not in expected_reports:
                continue
            want = {
                "api_symbols": corpus.symbols,
                "legal_uses": total_legal,
                "symbols_used": len({(f, s) for f, s, _ in expected_reports[label]}),
                "unique_uses": len(expected_reports[label]),
                "total_uses": expected_totals[label],
            }
            if r["totals"] != want:
                problems.append(f"coverage.json: {label} totals {r['totals']}, expected {want}")
            if r["use_coverage"] != _ratio(want["unique_uses"], total_legal):
                problems.append(f"coverage.json: {label} use coverage {r['use_coverage']}")
            if len(r["levels"]) != corpus.symbols:
                problems.append(f"coverage.json: {label} has {len(r['levels'])} levels")
            if len(r["uncovered_uses"]) != total_legal - want["unique_uses"]:
                problems.append(f"coverage.json: {label} uncovered-use count")

    regions = _load(out, "regions.json", problems)
    if regions is not None:
        labels = list(corpus.groups)
        membership = Counter(
            tuple(sorted(g for g in labels if pair in unique[g])) for pair in union
        )
        got = {tuple(r["members"]): r["count"] for r in regions["regions"]}
        if regions["labels"] != labels or len(got) != 2 ** len(labels) - 1:
            problems.append(f"regions.json: {len(got)} regions over {regions['labels']}")
        elif any(got.get(k, -1) != v for k, v in membership.items()) or sum(
            got.values()
        ) != len(union):
            problems.append("regions.json: counts differ from the footprints")

    profile = _load(out, "profile.json", problems)
    if profile is not None:
        want = {k: _ratio(corpus.legal_uses[k], total_legal) for k in USE_KINDS}
        if profile != {"basis": "LegalUses", "weights": want}:
            problems.append(f"profile.json: {profile}, expected weights {want}")
    return problems


def content_digest(corpus: Corpus, out: Path) -> str:
    """SHA-256 over the JSON content of every output, formatting ignored."""
    h = hashlib.sha256()
    for rel in json_outputs(corpus):
        data = json.loads((out / rel).read_text(encoding="utf-8"))
        h.update(rel.encode("utf-8") + b"\0")
        h.update(json.dumps(data, sort_keys=True, separators=(",", ":")).encode("utf-8"))
    return h.hexdigest()


def expected_digest(workload: str, seed: int) -> str | None:
    table = json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


def oracle_mismatches(corpus: Corpus, out: Path, repo: Path, sample: int) -> tuple[int, int]:
    """(files compared, files where ``extract_uses`` and the oracle disagree).

    Imports the program and the oracle from the checkout in this process;
    files are parsed with the same relative paths the CLI saw.
    """
    sys.dont_write_bytecode = True
    for p in (repo / "tests", repo / "src"):
        if str(p) not in sys.path:
            sys.path.insert(0, str(p))
    from oracle import oracle_extract
    from ucov import ParseError, extract_uses, model_from_dict, parse_unit

    model = model_from_dict(json.loads((out / "sum.json").read_text(encoding="utf-8")))
    rng = random.Random(f"oracle:{corpus.workload}:{corpus.seed}")
    files = sorted(f for fs in corpus.client_files.values() for f in fs)
    compared = mismatched = 0
    for rel in rng.sample(files, len(files)):
        if compared == sample:
            break
        try:
            unit = parse_unit((corpus.root / rel).read_text(encoding="utf-8"), rel)
        except ParseError:
            continue  # a planted unparseable file
        fp = extract_uses([unit], model)
        got = {(t.symbol.fqn, t.symbol.signature, t.use, t.location) for t in fp.triples}
        compared += 1
        if got != oracle_extract([unit], model):
            mismatched += 1
    return compared, mismatched
