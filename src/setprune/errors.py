"""Exception types shared across the package, the finiteness and cost checks, and
the host's physical memory for the checks that refuse inputs past it."""

import math
import os

import numpy as np


class InputError(ValueError):
    """Raised when arguments violate a documented precondition."""


class ParseError(ValueError):
    """Raised on malformed input files; carries the offending line number."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def require_finite(**values):
    """Raise InputError naming the first keyword argument that is not finite."""
    for name, value in values.items():
        try:
            finite = math.isfinite(value)
        except (OverflowError, TypeError):  # an int past the float range, a str
            finite = False
        if not finite:
            raise InputError(f"{name} must be finite, got {value!r}")


def _physical_memory() -> int:
    """The host's physical memory in bytes, or the largest intp when the
    host does not tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return np.iinfo(np.intp).max


def outside_ground_set(v, n: int) -> InputError:
    """The error for an element id ``v`` that is not in ``[0, n)``. An int
    too long to print usefully (or at all: Python refuses to convert one of
    more than 4,300 digits) is named by its number of digits."""
    if isinstance(v, int) and v.bit_length() > _SHOWN_BITS:
        return InputError(f"element id of {_digits(v)} digits outside ground set of size {n}")
    return InputError(f"element id {v!r} outside ground set of size {n}")


_SHOWN_BITS = 256  # ints of up to 77 digits are printed in full


def _digits(v: int) -> int:
    """The number of decimal digits of ``v``, sign aside, without printing it."""
    v = abs(v)
    guess = int((v.bit_length() - 1) * math.log10(2)) + 1
    return guess + (v >= 10 ** guess)


def checked_costs(cost_fn, ids) -> list:
    """``[cost_fn(e) for e in ids]``; InputError for the first cost that is
    not positive (NaN included).

    A ``cost_fn`` that carries its float64 vector as ``cost_fn.cost_vector``
    (``Graph.cost_fn()`` does) is read in one gather when two or more ids
    form a 1-D integer array: the costs come back as Python floats, and an
    id outside the vector raises InputError, at the same first bad element
    and with the same message as a callable that bounds its ids.
    """
    vector = getattr(cost_fn, "cost_vector", None)
    if vector is not None:
        if not isinstance(ids, (list, tuple, range, np.ndarray)):
            ids = list(ids)
        # one id is cheaper through the callable than through a gather
        if len(ids) > 1 and (idx := np.asarray(ids)).ndim == 1 and idx.dtype.kind in "iu":
            return _gathered(vector, idx, ids.__getitem__).tolist()
    costs = []
    for e in ids:
        cost = cost_fn(e)
        if not cost > 0:
            raise _not_positive(e, cost)
        costs.append(cost)
    return costs


def cost_array(cost_fn, ids: np.ndarray) -> np.ndarray:
    """``checked_costs(cost_fn, ids)`` as a float64 array, for a 1-D integer
    array of ``ids``: the gather itself, when ``cost_fn`` carries a cost
    vector. Errors name the ids as Python ints, past the float range too."""
    vector = getattr(cost_fn, "cost_vector", None)
    if vector is not None and ids.size > 1:
        return _gathered(vector, ids, ids.item)
    costs = checked_costs(cost_fn, ids.tolist())
    try:
        return np.array(costs, dtype=np.float64)
    except OverflowError:  # every cost is positive, so the largest is past the range
        raise InputError(f"cost of element {ids.item(costs.index(max(costs)))} "
                         "is past the float range") from None


def _gathered(vector, idx, at) -> np.ndarray:
    """``vector[idx]``; InputError for the first id that lies outside the
    vector or whose cost is not positive, named as ``at(position)``."""
    inside = (idx >= 0) & (idx < vector.size)
    end = idx.size if inside.all() else int(np.argmin(inside))
    costs = vector[idx[:end]]
    positive = costs > 0
    if not positive.all():
        bad = int(np.argmin(positive))
        raise _not_positive(at(bad), float(costs[bad]))
    if end < idx.size:
        raise outside_ground_set(at(end), vector.size)
    return costs


def _not_positive(e, cost) -> InputError:
    return InputError(f"cost of element {e!r} must be positive, got {cost!r}")
