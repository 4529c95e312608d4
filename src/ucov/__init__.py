"""Syntactic API usage analysis: usage models, footprints, and coverage.

The library side computes a usage model (every exported symbol of an API
mapped to its legal use kinds); the client side extracts a usage footprint
(every located actual use). Metrics derive coverage scores, coverage
levels, popularity rankings, usage profiles, and cross-footprint
intersection regions from the two.

Importing the package runs none of its modules. Each module but the CLI
is registered in ``sys.modules`` and bound in the package at once, and
runs the first time one of its attributes is read
(``importlib.util.LazyLoader``), so ``from . import model`` costs nothing
until the model is used. Each public name is read from its module the
first time it is read from the package (PEP 562).
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Every module but the CLI, with the public names it defines.
_MODULES = {
    "errors": ("CyclicHierarchy", "DuplicateSymbol", "ModelMismatch", "ParseError",
               "UcovError", "UnknownSymbol"),
    "uses": ("Diagnostic", "DiagnosticKind", "Footprint", "Location", "UseTriple", "diff",
             "footprint_from_dict", "footprint_to_dict", "merge"),
    "footprint": ("extract_uses", "footprint_of_corpus"),
    "metrics": ("CoverageLevel", "CoverageReport", "IntersectionRegions",
                "ProfileDistribution", "compute_coverage", "coverage_level",
                "exclusive_regions", "popularity", "profile"),
    "model": ("Symbol", "SymbolKind", "UsageModel", "UseKind", "build_sum",
              "model_from_dict", "model_to_dict"),
    "lexer": (),
    "nodes": ("SourceUnit",),
    "parser": ("parse_unit",),
    "symtab": ("SymbolTable", "build_symbol_table"),
    "typing_env": ("Env", "static_type_of"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_HOME)


def _lazy_module(name: str):
    """``ucov.<name>``, registered in ``sys.modules`` but not yet run."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


globals().update({name: _lazy_module(name) for name in _MODULES})


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[module], name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
