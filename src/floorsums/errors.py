"""Shared exception types and the one integer check of arguments."""

import numbers

import numpy as np


class BudgetError(RuntimeError):
    """A configured memory/time budget would be exceeded."""


class CoverageError(ValueError):
    """A sieve table does not cover the range an operation needs."""


class WindowError(ValueError):
    """A parameter lies outside the admissible window of an operation."""


def require_integers(**named) -> None:
    """Refuse bools, floats and other non-integers, which a cast or a slice
    would truncate or read as 0 and 1, with ValueError.  A scalar passes as
    a Python or numpy integer, an array by an integer dtype or as an object
    array of such integers.  A type test per scalar: 0.3-0.6 us a call on two
    or three Python ints (2 vCPUs), so the hyperbola trials can afford it."""
    for name, v in named.items():
        if type(v) is int or _is_integer(v):
            continue
        if not isinstance(v, np.ndarray):
            raise ValueError(f"need integer {name}, got {v!r}")
        if v.dtype.kind not in "iu" and not (v.dtype.kind == "O" and all(map(_is_integer, v.flat))):
            raise ValueError(f"need integer {name}, got dtype {v.dtype}")


def _is_integer(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)
