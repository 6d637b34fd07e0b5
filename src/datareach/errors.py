"""Exception hierarchy and the input checks of every exported entry point."""

import math

import numpy as np


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


# the largest magnitude a checked number may have: a product of four such
# numbers, as a cost weight times a squared state makes, stays finite
LIMIT = 1e75


def _fail(key: str, value, rule: str):
    shown = value.tolist() if isinstance(value, np.ndarray) else value
    raise ValueError(f"{key} must {rule}, not {shown!r}")


def check_count(key: str, value, least) -> int:
    """Return `value` as an int; raise ValueError unless it is a whole number
    (of any numeric type other than bool) of at least `least`."""
    try:
        whole = not isinstance(value, bool) and value == int(value)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        _fail(key, value, "be an integer")
    if value < least:
        raise ValueError(f"{key} must be >= {least}")
    return int(value)


def check_finite(key: str, value) -> float:
    """`check_array` of a single number, returned as a float."""
    if isinstance(value, float) and abs(value) <= LIMIT:
        return float(value)
    return float(check_array(key, value, ()))


def check_positive(key: str, value) -> float:
    """`check_finite`, for a positive number."""
    v = value.item() if isinstance(value, np.ndarray) and value.ndim == 0 else value
    if not (isinstance(v, (int, float, np.number)) and 0.0 < v < math.inf):
        _fail(key, value, "be positive and finite")
    return check_finite(key, value)


def check_array(key: str, value, shape=None, nonneg=False) -> np.ndarray:
    """Return a float copy of `value`; raise ValueError unless it is an
    array of numbers (not booleans) of the given `shape`, finite, of
    magnitude at most `LIMIT` and, when `nonneg`, nonnegative."""
    try:
        a = np.array(value)
        ok = a.dtype.kind in "iuf"
    except (TypeError, ValueError):
        ok = False
    if not ok:
        _fail(key, value, "be numeric")
    a = a.astype(float, copy=False)
    if shape is not None and a.shape != shape:
        _fail(key, a.shape, f"have shape {shape}")
    # Python's reductions beat numpy's on the few entries of an input
    flat = a.ravel().tolist()
    if not all(map(math.isfinite, flat)) or nonneg and min(flat, default=0.0) < 0.0:
        _fail(key, value, "be finite and nonnegative" if nonneg else "be finite")
    if max(map(abs, flat), default=0.0) > LIMIT:
        _fail(key, value, f"be at most {LIMIT:g} in magnitude")
    return a


def check_box(key: str, box):
    """Return the `Box` `box`; raise ValueError unless every endpoint is at
    most `LIMIT` in magnitude.  A `Box` holds no NaN and has lo <= hi, so
    its endpoints lie in [min lo, max hi]."""
    if (min(box.lo.ravel().tolist(), default=0.0) < -LIMIT
            or max(box.hi.ravel().tolist(), default=0.0) > LIMIT):
        _fail(key, box, f"have endpoints at most {LIMIT:g} in magnitude")
    return box


def check_unit(key: str, value, shape=()) -> np.ndarray:
    """`check_array`, for numbers in [0, 1]."""
    a = check_array(key, value, shape)
    if not all(0.0 <= v <= 1.0 for v in a.ravel().tolist()):
        _fail(key, value, "lie in [0, 1]")
    return a


def check_choice(key: str, value, choices):
    """Return `value`; raise ValueError unless it is one of the strings `choices`."""
    if not (isinstance(value, str) and value in choices):
        _fail(key, value, f"be one of {list(choices)}")
    return value
