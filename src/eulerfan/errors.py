"""Exception types shared across the toolkit, and the one check of the
integer sizes (sample counts, seeds, search and schedule lengths) that the
public functions take."""

import operator


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


def require_count(name: str, value, minimum: int) -> int:
    """``value`` as an int, or DomainError unless it is an integer (not a
    bool) of at least ``minimum``."""
    if isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    try:
        count = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value!r}")
    return count
