"""Shared exception types and the checks of arguments.  Each returns what it
checks in the order named (one value alone, several as a tuple), a numpy
scalar as the Python number it equals, so no bound or exact formula wraps."""

import numbers

import numpy as np


class BudgetError(RuntimeError):
    """A configured memory/time budget would be exceeded."""


class CoverageError(ValueError):
    """A sieve table does not cover the range an operation needs."""


class WindowError(ValueError):
    """A parameter lies outside the admissible window of an operation."""


def require_integers(**named):
    """The named values, each checked to be an integer: a scalar comes back
    as a Python int, an array unchanged.  Bools, floats and other
    non-integers, which a cast or a slice would truncate or read as 0 and 1,
    are refused with ValueError; an array passes by an integer dtype or as
    an object array of integers.  0.3-0.6 us a call on two or three Python
    ints (2 vCPUs), so the hyperbola trials can afford it."""
    out = []
    for name, v in named.items():
        if type(v) is int or _is_integer(v):
            v = int(v)
        elif not isinstance(v, np.ndarray):
            raise ValueError(f"need integer {name}, got {v!r}")
        elif not (v.dtype.kind in "iu" or v.dtype.kind == "O" and all(map(_is_integer, v.flat))):
            raise ValueError(f"need integer {name}, got dtype {v.dtype}")
        out.append(v)
    return out[0] if len(out) == 1 else tuple(out)


def read_array(v) -> np.ndarray:
    """An array argument as an array: an ndarray unchanged, anything else (a
    list or other sequence) read entry by entry as the Python numbers it
    holds, into an object array, so that `require_integers` refuses a bool
    or a float entry and an empty list is an empty array."""
    return v if isinstance(v, np.ndarray) else np.array(v, dtype=object)


def require_reals(**named):
    """The named real values: a numpy integer comes back as an int, a numpy
    float as a float, any other value unchanged, and a bool, which would
    pass for 0 or 1, is refused with ValueError.  An array passes unchanged
    by an integer or float dtype or as an object array of reals, not bools;
    any other is refused with ValueError."""
    out = []
    for name, v in named.items():
        if isinstance(v, (bool, np.bool_)):
            raise ValueError(f"need an int or float {name}, got {v!r}")
        if isinstance(v, np.ndarray) and not (
                v.dtype.kind in "iuf" or v.dtype.kind == "O" and all(map(_is_real, v.flat))):
            raise ValueError(f"need real {name}, got dtype {v.dtype}")
        out.append(int(v) if isinstance(v, np.integer) else
                   float(v) if isinstance(v, np.floating) else v)
    return out[0] if len(out) == 1 else tuple(out)


def _is_integer(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)
