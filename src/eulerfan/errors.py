"""Exception types shared across the toolkit, the checks of the integers
(sizes, seeds), the finite numbers (velocities, gamma) and the finite
positive numbers (tolerances, fractions, times, law constants) that public
functions take, the bounds and defaults of the sizes and seeds (which the
command line checks before it loads the search or the lemma suite, and the
constructions before any attempt), the one checked square of a
velocity, and the immutable record base of the toolkit's value types."""

import math
import operator
import sys

# The largest float: int arithmetic does not overflow, so an int beyond it
# is tested against it where a float would have overflowed to inf.
FLOAT_MAX = sys.float_info.max

# The largest grid search_feasible takes: its grid stage holds grid delta2
# points and, on a miss, tries grid values of rho1.  A full miss at this size
# took under a second and 3 MiB on a 2-core host; 1e9 would need tens of GB.
GRID_MAX = 2**16

# The bounds (require_count's minimum and maximum) of each search size that
# search_feasible takes: one guided candidate and a grid of two points at
# least, so that a search always searches something.
SEARCH_SIZES = {"scan_points": (1,), "grid": (2, GRID_MAX)}

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

    def __init__(self, lo: float, hi: float):
        self.lo = lo
        self.hi = hi
        super().__init__(f"no sign change on [{lo!r}, {hi!r}]")


class ConstructionError(EulerFanError):
    """An auxiliary-state construction exhausted its perturbation schedule.

    ``attempts`` records, for each tried perturbation, why it was rejected.
    """

    def __init__(self, attempts):
        self.attempts = list(attempts)
        super().__init__(f"construction failed after {len(self.attempts)} attempts")


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
    """``x**2``, or NumericError when it overflows (above about 1e154), as
    an int's square beyond the floats does."""
    try:
        x2 = x**2
    except OverflowError:
        raise NumericError("arithmetic overflow: a squared velocity") from None
    if FLOAT_MAX < x2 < math.inf:  # only an int lies there
        raise NumericError("arithmetic overflow: a squared velocity")
    return x2


class Record:
    """An immutable value with the fields ``_fields``, in order.

    Records of the same type are equal, and hash alike, when their fields
    are; each writes as ``Name(field=value, ...)``.  Each type's
    ``__init__`` checks its arguments and sets its fields with
    ``object.__setattr__``; any other assignment or deletion is an
    AttributeError.  Not a dataclass, whose import costs every command-line
    run several ms, nor a named tuple, whose field reads CPython 3.11 does
    not specialise; the types keep their instance dicts, as slots made them
    no faster."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: a {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a {type(self).__name__} is immutable")

    def _replace(self, **changes):
        """A copy with ``changes`` made, built and checked by ``__init__``."""
        return type(self)(**{name: getattr(self, name) for name in self._fields} | changes)
