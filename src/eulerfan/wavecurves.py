"""Scalar wave-curve building blocks: the rarefaction integral in closed form,
the shock velocity-jump bracket, characteristic speeds, and the mass-jump
speed of a single shock."""

from __future__ import annotations

import math

from .eos import GasLaw, pressure, sound_speed
from .errors import DegenerateShockError, DivergenceError, DomainError, NumericError, Record, is_number, to_float


class State(Record):
    """One constant gas state: density plus tangential (v1) and normal (v2)
    velocity components, each an int or a float (not a bool), kept as given.
    rho == 0 only ever appears as the vacuum edge produced by the solver
    itself, and so does a NaN velocity."""

    _fields = ("rho", "v1", "v2")

    def __init__(self, rho: float, v1: float, v2: float):
        if not 0.0 <= to_float(rho) < math.inf:
            raise DomainError(f"density must be finite and nonnegative, got {rho!r:.40}")
        if not (is_number(v1) and is_number(v2)):
            raise DomainError(f"velocities must be numbers, got {v1!r:.40} and {v2!r:.40}")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "v1", v1)
        object.__setattr__(self, "v2", v2)


_NONNEGATIVE = "densities must be finite and nonnegative"
_POSITIVE = "densities must be finite and positive"


def rarefaction_integral(law: GasLaw, rho_a: float, rho_b: float) -> float:
    """Integral of sqrt(p'(r))/r for r from rho_a to rho_b, in closed form.

    Antisymmetric under swapping the endpoints.  For gamma > 1 the integrand
    is integrable down to the vacuum, so zero endpoints are allowed; for
    gamma = 1 the integral diverges there.  A negative, infinite or NaN
    density raises DomainError, and a density ratio or a result beyond the
    floats raises NumericError.

    The middle-density bisection calls it with the data density as rho_b,
    once per residual evaluation.  The sound speed at rho_b comes first, so
    its error does too; each is sound_speed's K * gamma * rho**(gamma - 1),
    evaluated inline, and an overflowing one is handed to sound_speed,
    which raises its own NumericError.
    """
    if not (0.0 <= rho_a < math.inf and 0.0 <= rho_b < math.inf):
        raise DomainError(_NONNEGATIVE)
    if rho_a == rho_b:
        # before the terms at rho_b, which may overflow
        return 0.0
    if law.isothermal:
        if rho_a == 0.0 or rho_b == 0.0:
            raise DivergenceError("integral diverges at the vacuum for gamma = 1")
        try:
            integral = math.sqrt(law.K) * math.log(rho_b / rho_a)
        except ValueError:  # log(0.0): the ratio underflowed
            raise NumericError(f"arithmetic underflow: the density ratio {rho_b!r}/{rho_a!r}") from None
    else:
        # gamma > 1: the sound speed has the finite vacuum limit 0
        k_gamma, exponent = law.K * law.gamma, law.gamma - 1.0
        speed_b = speed_a = 0.0
        if rho_b > 0.0:
            try:
                c2 = k_gamma * rho_b**exponent
            except OverflowError:
                c2 = math.inf
            speed_b = math.sqrt(c2) if c2 < math.inf else sound_speed(law, rho_b)
        if rho_a > 0.0:
            try:
                c2 = k_gamma * rho_a**exponent
            except OverflowError:
                c2 = math.inf
            speed_a = math.sqrt(c2) if c2 < math.inf else sound_speed(law, rho_a)
        integral = 2.0 / exponent * (speed_b - speed_a)
    if not abs(integral) < math.inf:
        raise NumericError(f"arithmetic overflow: the rarefaction integral {rho_a!r} to {rho_b!r}")
    return integral


def shock_bracket(law: GasLaw, rho_a: float, rho_b: float) -> float:
    """sqrt((rho_a - rho_b)(p(rho_a) - p(rho_b)) / (rho_a * rho_b)).

    The magnitude of the normal-velocity jump across a shock joining the two
    densities; symmetric in its arguments and zero iff they coincide.  Equal
    densities give 0.0 before any product is formed, at every scale.  A
    density that is not finite and positive raises DomainError, and a
    density product or a result beyond the floats raises NumericError.

    The middle-density bisection calls it with the data density as rho_b,
    once per residual evaluation.  p(rho_b) comes first, so its error does
    too; each pressure is pressure's K * rho**gamma, evaluated inline, and
    an overflowing one is handed to pressure, which raises its own
    NumericError.
    """
    if not (0.0 < rho_a < math.inf and 0.0 < rho_b < math.inf):
        raise DomainError(_POSITIVE)
    if rho_a == rho_b:
        # before the pressures and the product, which may leave the floats
        return 0.0
    k, gamma = law.K, law.gamma
    try:
        p_b = k * rho_b**gamma
    except OverflowError:
        p_b = math.inf
    if not p_b < math.inf:
        p_b = pressure(law, rho_b)
    try:
        p_a = k * rho_a**gamma
    except OverflowError:
        p_a = math.inf
    if not p_a < math.inf:
        p_a = pressure(law, rho_a)
    num = (rho_a - rho_b) * (p_a - p_b)
    product = rho_a * rho_b
    # max(num, 0.0) without the call: keeps -0.0 and NaN as max does
    try:
        bracket = math.sqrt((0.0 if 0.0 > num else num) / product)
    except ZeroDivisionError:
        raise NumericError(f"arithmetic underflow: the density product {rho_a!r}*{rho_b!r}") from None
    if not (bracket < math.inf and product < math.inf):
        raise NumericError(f"arithmetic overflow: the shock bracket of {rho_a!r} and {rho_b!r}")
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
