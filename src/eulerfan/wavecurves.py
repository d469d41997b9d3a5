"""Scalar wave-curve building blocks: the rarefaction integral in closed form,
the shock velocity-jump bracket, characteristic speeds, and the mass-jump
speed of a single shock."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .eos import GasLaw, pressure, sound_speed
from .errors import DegenerateShockError, DivergenceError, DomainError, NumericError, is_number, to_float


@dataclass(frozen=True)
class State:
    """One constant gas state: density plus tangential (v1) and normal (v2)
    velocity components, each an int or a float (not a bool), kept as given.
    rho == 0 only ever appears as the vacuum edge produced by the solver
    itself, and so does a NaN velocity."""

    rho: float
    v1: float
    v2: float

    def __post_init__(self):
        if not 0.0 <= to_float(self.rho) < math.inf:
            raise DomainError(f"density must be finite and nonnegative, got {self.rho!r:.40}")
        if not (is_number(self.v1) and is_number(self.v2)):
            raise DomainError(f"velocities must be numbers, got {self.v1!r:.40} and {self.v2!r:.40}")


_NONNEGATIVE = "densities must be finite and nonnegative"
_POSITIVE = "densities must be finite and positive"


def rarefaction_integral(law: GasLaw, rho_a: float, rho_b: float) -> float:
    """Integral of sqrt(p'(r))/r for r from rho_a to rho_b, in closed form.

    Antisymmetric under swapping the endpoints.  For gamma > 1 the integrand
    is integrable down to the vacuum, so zero endpoints are allowed; for
    gamma = 1 the integral diverges there.  A negative, infinite or NaN
    density raises DomainError, and a density ratio or a result beyond the
    floats raises NumericError.
    """
    if not (0.0 <= rho_a < math.inf and 0.0 <= rho_b < math.inf):
        raise DomainError(_NONNEGATIVE)
    if rho_a == rho_b:
        # before the terms at rho_b, which may overflow
        return 0.0
    integral = rarefaction_integral_to(law, rho_b)(rho_a)
    if not abs(integral) < math.inf:
        raise NumericError(f"arithmetic overflow: the rarefaction integral {rho_a!r} to {rho_b!r}")
    return integral


def rarefaction_integral_to(law: GasLaw, rho_b: float):
    """rho_a -> rarefaction_integral(law, rho_a, rho_b), bit for bit, with
    the terms at the fixed upper endpoint rho_b (its sound speed and
    2/(gamma-1)) computed once.  Only a density ratio that underflows to 0
    raises NumericError here; rarefaction_integral checks its one result
    for overflow."""
    if not 0.0 <= rho_b < math.inf:
        raise DomainError(_NONNEGATIVE)
    if law.isothermal:
        root_k = math.sqrt(law.K)

        def integral(rho_a: float) -> float:
            if not 0.0 <= rho_a < math.inf:
                raise DomainError(_NONNEGATIVE)
            if rho_a == rho_b:
                return 0.0
            if rho_a == 0.0 or rho_b == 0.0:
                raise DivergenceError("integral diverges at the vacuum for gamma = 1")
            try:
                return root_k * math.log(rho_b / rho_a)
            except ValueError:  # log(0.0): the ratio underflowed
                raise NumericError(
                    f"arithmetic underflow: the density ratio {rho_b!r}/{rho_a!r}"
                ) from None

        return integral
    # gamma > 1: the sound speed has the finite vacuum limit 0
    factor = 2.0 / (law.gamma - 1.0)
    speed_b = sound_speed(law, rho_b) if rho_b > 0.0 else 0.0

    def integral(rho_a: float) -> float:
        if not 0.0 <= rho_a < math.inf:
            raise DomainError(_NONNEGATIVE)
        if rho_a == rho_b:
            return 0.0
        return factor * (speed_b - (sound_speed(law, rho_a) if rho_a > 0.0 else 0.0))

    return integral


def shock_bracket(law: GasLaw, rho_a: float, rho_b: float) -> float:
    """sqrt((rho_a - rho_b)(p(rho_a) - p(rho_b)) / (rho_a * rho_b)).

    The magnitude of the normal-velocity jump across a shock joining the two
    densities; symmetric in its arguments and zero iff they coincide.  A
    density that is not finite and positive raises DomainError, and a
    density product or a result beyond the floats raises NumericError.
    """
    if not (0.0 < rho_a < math.inf and 0.0 < rho_b < math.inf):
        raise DomainError(_POSITIVE)
    bracket = shock_bracket_to(law, rho_b)(rho_a)
    if not (bracket < math.inf and rho_a * rho_b < math.inf):
        raise NumericError(f"arithmetic overflow: the shock bracket of {rho_a!r} and {rho_b!r}")
    return bracket


def shock_bracket_to(law: GasLaw, rho_b: float):
    """rho_a -> shock_bracket(law, rho_a, rho_b), bit for bit, with p(rho_b)
    computed once; ``pressure`` rejects a density that is not finite and
    positive.  Only a density product that underflows to 0 raises
    NumericError here; shock_bracket checks its one result for overflow."""
    p_b = pressure(law, rho_b)

    def bracket(rho_a: float) -> float:
        num = (rho_a - rho_b) * (pressure(law, rho_a) - p_b)
        # max(num, 0.0) without the call: keeps -0.0 and NaN as max does
        try:
            return math.sqrt((0.0 if 0.0 > num else num) / (rho_a * rho_b))
        except ZeroDivisionError:
            raise NumericError(
                f"arithmetic underflow: the density product {rho_a!r}*{rho_b!r}"
            ) from None

    return bracket


def lambda1(law: GasLaw, s: State) -> float:
    """First characteristic speed v2 - sqrt(p'(rho))."""
    if s.rho <= 0.0:
        raise DomainError("characteristic speed needs positive density")
    return s.v2 - sound_speed(law, s.rho)


def lambda3(law: GasLaw, s: State) -> float:
    """Third characteristic speed v2 + sqrt(p'(rho))."""
    if s.rho <= 0.0:
        raise DomainError("characteristic speed needs positive density")
    return s.v2 + sound_speed(law, s.rho)


def pure_shock_speed(left: State, right: State) -> float:
    """Interface speed forced by conservation of mass across a single jump;
    NumericError when it overflows."""
    if left.rho == right.rho:
        raise DegenerateShockError("equal densities leave the shock speed undetermined")
    speed = (left.rho * left.v2 - right.rho * right.v2) / (left.rho - right.rho)
    if not -math.inf < speed < math.inf:
        # the mass fluxes overflowed, perhaps not the speed; finite speeds keep their bits
        speed = left.v2 + (left.v2 - right.v2) * (right.rho / (left.rho - right.rho))
    if not -math.inf < speed < math.inf:
        raise NumericError(f"arithmetic overflow: the shock speed between densities {left.rho!r} and {right.rho!r}")
    return speed
