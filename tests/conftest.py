from __future__ import annotations

import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from ucov import SourceUnit, UsageModel, build_sum, parse_unit

FIXTURES = Path(__file__).parent / "fixtures"

# Every run draws the same examples, and no example database is read or
# written: a stale .hypothesis/ directory cannot replay an old failure.
settings.register_profile("deterministic", database=None, derandomize=True)
settings.load_profile("deterministic")

# Hypothesis imports its patch writer when a property test fails, and with
# it libcst, which can warn of a deprecation on import. The warning filter
# of the run would turn that warning into an internal error that hides the
# counterexample and ends the run, so the module is imported here first.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is not installed: nothing to import early
        pass


def parse_tree(root: Path) -> list[SourceUnit]:
    return [
        parse_unit(p.read_text(encoding="utf-8"), str(p))
        for p in sorted(root.rglob("*.java"))
    ]


def model_for(corpus: str) -> UsageModel:
    return build_sum(parse_tree(FIXTURES / corpus / "lib"), corpus)


def client_units(corpus: str, group: str = "client") -> list[SourceUnit]:
    return parse_tree(FIXTURES / corpus / group)


# ---------------------------------------------------------------------------
# Acceptance criteria reporting: one PASS/FAIL line per criterion.
# ---------------------------------------------------------------------------

_CRITERIA_BY_NODE: dict[str, tuple[int, str]] = {}
_CRITERIA_RESULTS: dict[tuple[int, str], bool] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, title): acceptance criterion aggregation"
    )


def pytest_collection_modifyitems(items):
    for item in items:
        marker = item.get_closest_marker("criterion")
        if marker is not None:
            _CRITERIA_BY_NODE[item.nodeid] = (marker.args[0], marker.args[1])


def pytest_runtest_logreport(report):
    key = _CRITERIA_BY_NODE.get(report.nodeid)
    if key is None or report.when != "call":
        return
    _CRITERIA_RESULTS[key] = _CRITERIA_RESULTS.get(key, True) and report.passed


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for (num, title), passed in sorted(_CRITERIA_RESULTS.items()):
        terminalreporter.write_line(
            f"criterion {num} ({title}): {'PASS' if passed else 'FAIL'}"
        )


@pytest.fixture(scope="session")
def arraylist_model() -> UsageModel:
    return model_for("arraylist")


@pytest.fixture(scope="session")
def tablerows_model() -> UsageModel:
    return model_for("tablerows")
