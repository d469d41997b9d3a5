"""Exception types shared across the toolkit, the checks of the integers
(sizes, seeds), the finite numbers (velocities, gamma) and the finite
positive numbers (tolerances, fractions, times, law constants) that public
functions take, the bounds and defaults of the sizes and seeds the command
line checks before it loads the search or the lemma suite, and the one
checked square of a velocity."""

import math
import operator

# The largest grid search_feasible takes: its grid stage holds grid delta2
# points and, on a miss, tries grid values of rho1.  A full miss at this size
# took under a second and 3 MiB on a 2-core host; 1e9 would need tens of GB.
GRID_MAX = 2**16

# The lemma suite's default seed and sample count (oracles.run_suite).
DEFAULT_SEED = 1729
DEFAULT_SAMPLES = 10000


class EulerFanError(Exception):
    """Base class for all toolkit errors."""


class DomainError(EulerFanError, ValueError):
    """An argument lies outside an operation's mathematical domain."""


class DivergenceError(DomainError):
    """A quantity is infinite for the requested inputs, e.g. the isothermal
    rarefaction integral down to the vacuum."""


class DegenerateShockError(DomainError):
    """Jump relations degenerate because both sides carry the same density."""


class CriterionError(EulerFanError):
    """The closed-form existence criterion is violated (nonpositive
    discriminant where a positive one is required)."""


class NumericError(EulerFanError):
    """Floating-point arithmetic overflowed, or produced an inf or NaN where
    a finite value is needed to decide anything."""


class InvariantError(EulerFanError):
    """An internally constructed object failed one of its own invariants."""


class BracketError(EulerFanError):
    """A root bracket did not contain a sign change."""

    def __init__(self, lo: float, hi: float, message: str = ""):
        self.lo = lo
        self.hi = hi
        super().__init__(message or f"no sign change on [{lo!r}, {hi!r}]")


class ConstructionError(EulerFanError):
    """An auxiliary-state construction exhausted its perturbation schedule.

    ``attempts`` records, for each tried perturbation, why it was rejected.
    """

    def __init__(self, attempts, message: str = ""):
        self.attempts = list(attempts)
        super().__init__(
            message or f"construction failed after {len(self.attempts)} attempts"
        )


def require_count(name: str, value, minimum: int, maximum: int | None = None) -> int:
    """``value`` as an int, or DomainError unless it is an integer (not a
    bool) of at least ``minimum`` and, if given, at most ``maximum``."""
    if isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    try:
        count = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value!r}")
    if maximum is not None and count > maximum:
        raise DomainError(f"{name} must be <= {maximum}, got {value!r}")
    return count


def is_number(value) -> bool:
    """An int or a float, and not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def to_float(value) -> float:
    """``value`` as a float; NaN for a bool, a non-number or an int beyond
    the floats."""
    try:
        return float(value) if is_number(value) else math.nan
    except OverflowError:
        return math.nan


def require_positive(name: str, value) -> float:
    """``value`` as a float, or DomainError unless it is an int or a float
    (not a bool) that is finite, fits a float, and is above zero."""
    number = to_float(value)
    if not 0.0 < number < math.inf:
        raise DomainError(f"{name} must be a finite positive number, got {value!r:.40}")
    return number


def require_finite(name: str, value, minimum: float = -math.inf) -> float:
    """``value`` as a float, or DomainError unless it is an int or a float
    (not a bool) that is finite, fits a float, and is at least ``minimum``."""
    number = to_float(value)
    if not -math.inf < number < math.inf:
        raise DomainError(f"{name} must be a finite number, got {value!r:.40}")
    if number < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value!r:.40}")
    return number


def squared(x: float) -> float:
    """``x**2``, or NumericError when it overflows (above about 1e154)."""
    try:
        return x**2
    except OverflowError:
        raise NumericError("arithmetic overflow: a squared velocity") from None
