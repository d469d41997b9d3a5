"""Polytropic equation of state p = K * rho**gamma, including the gamma = 1
logarithmic branch of the internal energy."""

from __future__ import annotations

import math

from .errors import DomainError, NumericError, Record, require_finite, require_positive

# Below this distance from 1, gamma is treated as exactly 1 so that the
# internal energy uses the logarithmic branch instead of the catastrophically
# cancelling power form rho**(gamma-1)/(gamma-1).
GAMMA_ONE_BAND = 1e-12


class GasLaw(Record):
    """Pressure law parameters: p(rho) = K * rho**gamma, K > 0, gamma >= 1.

    Each is an int or a float (not a bool), kept as given."""

    _fields = ("K", "gamma")

    def __init__(self, K: float, gamma: float):
        require_positive("pressure constant K", K)
        require_finite("adiabatic exponent gamma", gamma, 1.0)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "gamma", gamma)
        # ``isothermal``: computed once per law and read by every kernel call.
        # A plain attribute, not a field, so _fields, == and hash leave it
        # out; not a cached_property, whose write to __dict__ would slow
        # every attribute read on the law in CPython 3.11.
        object.__setattr__(self, "isothermal", abs(gamma - 1.0) < GAMMA_ONE_BAND)


# Each kernel tests 0 < rho < inf itself: a shared checking function cost
# a call per kernel evaluation, more than the test.  Each also compares its
# result with inf once, which catches an overflowing product or quotient as
# well as an overflowing ``**`` (mapped to inf first).
def _bad_density(rho: float) -> DomainError:
    return DomainError(f"density must be finite and positive, got {rho!r}")


def _overflow(name: str, law: GasLaw, rho: float) -> NumericError:
    return NumericError(f"{name} overflows at rho={rho!r} for gamma={law.gamma!r}")


def pressure(law: GasLaw, rho: float) -> float:
    if not 0.0 < rho < math.inf:
        raise _bad_density(rho)
    try:
        p = law.K * rho**law.gamma
    except OverflowError:
        p = math.inf
    if p < math.inf:
        return p
    raise _overflow("pressure", law, rho)


def pressure_derivative(law: GasLaw, rho: float) -> float:
    """dp/drho = K * gamma * rho**(gamma-1); the squared sound speed."""
    if not 0.0 < rho < math.inf:
        raise _bad_density(rho)
    if law.isothermal:
        return law.K
    try:
        c2 = law.K * law.gamma * rho ** (law.gamma - 1.0)
    except OverflowError:
        c2 = math.inf
    if c2 < math.inf:
        return c2
    raise _overflow("pressure derivative", law, rho)


def internal_energy(law: GasLaw, rho: float) -> float:
    """Specific internal energy, defined by p(rho) = rho**2 * eps'(rho)."""
    if not 0.0 < rho < math.inf:
        raise _bad_density(rho)
    try:
        if law.isothermal:
            e = law.K * math.log(rho)  # negative below rho = 1
        else:
            e = law.K * rho ** (law.gamma - 1.0) / (law.gamma - 1.0)
    except OverflowError:
        e = math.inf
    if abs(e) < math.inf:
        return e
    raise _overflow("internal energy", law, rho)


def sound_speed(law: GasLaw, rho: float) -> float:
    return math.sqrt(pressure_derivative(law, rho))
