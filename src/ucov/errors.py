"""Exception types shared across the package, and its one warning channel."""

from __future__ import annotations

import os
import sys


def warn(message: str) -> None:
    """Print ``WARNING ucov: <message>`` to standard error, unless
    ``UCOV_LOG=error``."""
    if os.environ.get("UCOV_LOG", "warn").lower() != "error":
        print(f"WARNING ucov: {message}", file=sys.stderr)


class UcovError(Exception):
    """Base class for all tool-specific errors."""


class ParseError(UcovError):
    def __init__(self, message: str, file: str, line: int, column: int):
        super().__init__(f"{file}:{line}:{column}: {message}")
        self.file = file
        self.line = line
        self.column = column
        self.reason = message


class DuplicateSymbol(UcovError):
    pass


class CyclicHierarchy(UcovError):
    pass


class ModelMismatch(UcovError):
    pass


class UnknownSymbol(UcovError):
    pass
