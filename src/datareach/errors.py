"""Exception hierarchy and the setting checks shared across the library."""

import math


class DataReachError(Exception):
    """Base class for all library errors."""


class ShapeMismatch(DataReachError):
    """Operands have incompatible shapes."""


class EmptyIntersection(DataReachError):
    """An intersection of intervals came out empty.

    Carries optional ``index`` locating the offending component so that
    callers can turn the signal into a diagnostic.
    """

    def __init__(self, msg="empty intersection", index=None):
        super().__init__(msg)
        self.index = index


class InconsistentSample(DataReachError):
    """A trajectory sample contradicts the current enclosures / side information."""

    def __init__(self, msg, sample_index=None, component=None):
        super().__init__(msg)
        self.sample_index = sample_index
        self.component = component


class StepTooLarge(DataReachError):
    """Time step violates the rough-enclosure existence bound."""

    def __init__(self, dt, limit):
        super().__init__(
            f"time step {dt:g} s exceeds the enclosure existence bound {limit:g} s"
        )
        self.dt = dt
        self.limit = limit


class NonConvexAssembly(DataReachError):
    """Assembled quadratic objective is not finite or not positive semidefinite."""


class IterationCapExceeded(DataReachError):
    """Solver hit its hard iteration cap before certifying optimality."""


class AllOrthantsInfeasible(DataReachError):
    """Every sign-orthant subproblem of the optimistic QP is infeasible."""


class ConfigError(DataReachError):
    """Invalid or unknown configuration entry."""


def check_count(key: str, value, least) -> int:
    """Return `value` as an int; raise ValueError unless it is a whole number
    (of any numeric type other than bool) of at least `least`."""
    try:
        whole = not isinstance(value, bool) and value == int(value)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ValueError(f"{key} must be an integer, not {value!r}")
    if value < least:
        raise ValueError(f"{key} must be >= {least}")
    return int(value)


def check_finite(key: str, value) -> float:
    """Return `value` as a float; raise ValueError unless it is a finite
    number (of any numeric type other than bool)."""
    try:
        ok = not isinstance(value, bool) and math.isfinite(float(value))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"{key} must be finite, not {value!r}")
    return float(value)


def check_positive(key: str, value) -> float:
    """Return `value` as a float; raise ValueError unless it is a positive,
    finite number (of any numeric type other than bool)."""
    try:
        ok = not isinstance(value, bool) and 0.0 < float(value) < math.inf
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"{key} must be positive and finite, not {value!r}")
    return float(value)
