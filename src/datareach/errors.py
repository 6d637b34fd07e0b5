"""Exception hierarchy shared across the library."""


class DataReachError(Exception):
    """Base class for all library errors."""


class ShapeMismatch(DataReachError):
    """Operands have incompatible shapes."""


class NegativeDomain(DataReachError):
    """Square root of an interval with a negative lower bound."""


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
    """Assembled quadratic objective is not positive semidefinite."""


class IterationCapExceeded(DataReachError):
    """Solver hit its hard iteration cap before certifying optimality."""


class AllOrthantsInfeasible(DataReachError):
    """Every sign-orthant subproblem of the optimistic QP is infeasible."""


class ConfigError(DataReachError):
    """Invalid or unknown configuration entry."""
