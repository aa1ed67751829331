"""Shared exception types and the integer check of scalar arguments."""

import numbers


class BudgetError(RuntimeError):
    """A configured memory/time budget would be exceeded."""


class CoverageError(ValueError):
    """A sieve table does not cover the range an operation needs."""


class WindowError(ValueError):
    """A parameter lies outside the admissible window of an operation."""


def require_integers(**named) -> None:
    """Refuse bools, floats and other non-integers, which a cast or a slice
    would truncate or read as 0 and 1, with ValueError; Python and numpy
    integers pass.  A type test per value: 0.4-0.5 us a call on two or
    three Python ints (2 vCPUs), so the hyperbola trials can afford it."""
    for name, v in named.items():
        if type(v) is not int and (isinstance(v, bool) or not isinstance(v, numbers.Integral)):
            raise ValueError(f"need integer {name}, got {v!r}")
