"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes, so solver internals should raise
the most specific class that applies rather than bare ValueError wherever the
failure is one of the contract categories (structure, budget, numerics,
parsing).
"""

import math


class BspdeError(Exception):
    """Base class for all package-specific failures."""


class StructuralError(BspdeError):
    """Shape or wiring problem in inputs (wrong matrix shape, mismatched grid)."""


class DegenerateKernelError(StructuralError):
    """Mollifier radius falls below what the collocation grid can resolve."""


class BudgetError(BspdeError):
    """An array that a size setting grows would take more than ``_MEMORY_BYTES``
    bytes; ``count`` is its size and ``budget`` the bound, both in bytes."""

    def __init__(self, message: str, count: int | None = None, budget: int | None = None):
        super().__init__(message)
        self.count = count
        self.budget = budget


_MEMORY_BYTES = 1 << 31  # the most bytes any one array grown by a size setting may take


def check_bytes(nbytes: int, what: str) -> None:
    """Refuse, before it is allocated, an array of ``nbytes`` bytes over the bound.

    A count past 64 bits is printed as a power of two: Python will not turn an
    int of more than 4,300 digits into text, and no reader needs the digits.
    """
    if nbytes > _MEMORY_BYTES:
        size = nbytes if nbytes.bit_length() <= 64 else f"about 2^{round(math.log2(nbytes))}"
        raise BudgetError(f"{what} would take {size} bytes, over {_MEMORY_BYTES}",
                          count=nbytes, budget=_MEMORY_BYTES)


class NumericError(BspdeError):
    """Numerical failure: singular implicit step, rank-deficient regression, ..."""


class ConvergenceError(NumericError):
    """An iteration (fixed point, freezing, continuation) failed to converge."""


class ScenarioValidationError(BspdeError):
    """Strict loading rejected a scenario whose standing-assumption checks failed."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ParseError(BspdeError):
    """Expression or scenario-file syntax error, with source position."""

    def __init__(self, message: str, line: int = 1, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.bare_message = message
        self.line = line
        self.column = column


class EvalError(BspdeError):
    """Runtime evaluation failure of a parsed expression (division by zero, ...)."""

    def __init__(self, message: str, span: tuple[int, int] | None = None):
        if span is not None:
            message = f"{message} (at columns {span[0]}..{span[1]})"
        super().__init__(message)
        self.span = span
