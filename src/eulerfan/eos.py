"""Polytropic equation of state p = K * rho**gamma, including the gamma = 1
logarithmic branch of the internal energy."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NumericError

# Below this distance from 1, gamma is treated as exactly 1 so that the
# internal energy uses the logarithmic branch instead of the catastrophically
# cancelling power form rho**(gamma-1)/(gamma-1).
GAMMA_ONE_BAND = 1e-12


@dataclass(frozen=True)
class GasLaw:
    """Pressure law parameters: p(rho) = K * rho**gamma, K > 0, gamma >= 1."""

    K: float
    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.K) and self.K > 0.0):
            raise DomainError(f"pressure constant K must be positive, got {self.K!r}")
        if not (math.isfinite(self.gamma) and self.gamma >= 1.0):
            raise DomainError(f"adiabatic exponent must be >= 1, got {self.gamma!r}")
        # ``isothermal``: computed once per law and read by every kernel call.
        # A plain attribute, not a field, so asdict, == and hash ignore it;
        # not a cached_property, whose write to __dict__ would slow every
        # attribute read on the law in CPython 3.11.
        object.__setattr__(self, "isothermal", abs(self.gamma - 1.0) < GAMMA_ONE_BAND)


def _check_density(rho: float) -> None:
    if not (rho > 0.0):
        raise DomainError(f"density must be positive, got {rho!r}")


def _overflow(name: str, law: GasLaw, rho: float) -> NumericError:
    return NumericError(f"{name} overflows at rho={rho!r} for gamma={law.gamma!r}")


def pressure(law: GasLaw, rho: float) -> float:
    _check_density(rho)
    try:
        return law.K * rho**law.gamma
    except OverflowError:
        raise _overflow("pressure", law, rho) from None


def pressure_derivative(law: GasLaw, rho: float) -> float:
    """dp/drho = K * gamma * rho**(gamma-1); the squared sound speed."""
    _check_density(rho)
    if law.isothermal:
        return law.K
    try:
        return law.K * law.gamma * rho ** (law.gamma - 1.0)
    except OverflowError:
        raise _overflow("pressure derivative", law, rho) from None


def internal_energy(law: GasLaw, rho: float) -> float:
    """Specific internal energy, defined by p(rho) = rho**2 * eps'(rho)."""
    _check_density(rho)
    if law.isothermal:
        return law.K * math.log(rho)
    try:
        return law.K * rho ** (law.gamma - 1.0) / (law.gamma - 1.0)
    except OverflowError:
        raise _overflow("internal energy", law, rho) from None


def sound_speed(law: GasLaw, rho: float) -> float:
    return math.sqrt(pressure_derivative(law, rho))
