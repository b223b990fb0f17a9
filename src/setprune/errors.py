"""Exception types shared across the package, and the finiteness and cost checks."""

import math


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
        if not math.isfinite(value):
            raise InputError(f"{name} must be finite, got {value!r}")


def checked_costs(cost_fn, ids) -> list:
    """``[cost_fn(e) for e in ids]``; InputError for the first cost that is
    not positive (NaN included)."""
    costs = []
    for e in ids:
        cost = cost_fn(e)
        if not cost > 0:
            raise InputError(f"cost of element {e!r} must be positive, got {cost!r}")
        costs.append(cost)
    return costs
