import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerfan import (
    DomainError,
    GasLaw,
    NumericError,
    admissibility_bracket,
    internal_energy,
    pressure,
    pressure_derivative,
    sound_speed,
)
from eulerfan.eos import GAMMA_ONE_BAND

# gamma stays either exactly 1 or clear of it: for 0 < gamma - 1 << 1 the
# huge additive constant K/(gamma-1) in the energy defeats the
# finite-difference oracle (not the closed form itself)
laws = st.builds(
    GasLaw,
    K=st.floats(min_value=0.01, max_value=10.0),
    gamma=st.one_of(st.just(1.0), st.floats(min_value=1.01, max_value=3.0)),
)
densities = st.floats(min_value=1e-3, max_value=1e3)


def test_pressure_examples():
    assert pressure(GasLaw(1.0, 1.0), 4.0) == 4.0
    assert pressure(GasLaw(0.5, 2.0), 1.0) == 0.5
    assert pressure(GasLaw(1.0, 1.4), 2.0) == pytest.approx(2.0**1.4, rel=1e-15)


def test_pressure_derivative_examples():
    assert pressure_derivative(GasLaw(1.0, 1.0), 7.0) == 1.0
    assert pressure_derivative(GasLaw(0.5, 2.0), 3.0) == 3.0
    assert pressure_derivative(GasLaw(2.0, 3.0), 2.0) == pytest.approx(24.0, rel=1e-15)


def test_internal_energy_examples():
    assert internal_energy(GasLaw(1.0, 1.0), 1.0) == 0.0
    assert internal_energy(GasLaw(0.5, 2.0), 4.0) == pytest.approx(2.0, rel=1e-15)
    assert internal_energy(GasLaw(1.0, 1.5), 9.0) == pytest.approx(6.0, rel=1e-13)


@pytest.mark.parametrize(
    "gamma", [1.0, 1.0 + 5e-13, 1.0 + 9.9e-13, 1.0 + 1e-12, 1.0 + 2e-12, 1.4, 3.0, 7.0]
)
def test_isothermal_is_computed_once_and_not_a_field(gamma):
    law = GasLaw(0.7, gamma)
    assert law.isothermal is (abs(gamma - 1.0) < GAMMA_ONE_BAND)
    assert [f.name for f in dataclasses.fields(law)] == ["K", "gamma"]
    assert dataclasses.asdict(law) == {"K": 0.7, "gamma": gamma}
    twin = GasLaw(0.7, gamma)
    assert law == twin and hash(law) == hash(twin)
    assert repr(law) == f"GasLaw(K=0.7, gamma={gamma!r})"
    other = dataclasses.replace(law, gamma=1.4)
    assert other.isothermal is False and other == GasLaw(0.7, 1.4)
    back = dataclasses.replace(other, gamma=gamma)
    assert back.isothermal is law.isothermal and back == law
    with pytest.raises(dataclasses.FrozenInstanceError):
        law.isothermal = not law.isothermal


def test_gamma_one_band_selects_log_branch():
    law = GasLaw(2.0, 1.0 + 1e-13)
    assert law.isothermal
    assert internal_energy(law, math.e) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("op", [pressure, pressure_derivative, internal_energy])
@pytest.mark.parametrize("rho", [0.0, -1.0])
def test_nonpositive_density_rejected(op, rho):
    with pytest.raises(DomainError):
        op(GasLaw(1.0, 1.4), rho)


@pytest.mark.parametrize("op", [pressure, pressure_derivative, internal_energy, sound_speed])
@pytest.mark.parametrize("gamma", [1.0, 1.4])
@pytest.mark.parametrize("rho", [math.inf, -math.inf, math.nan])
def test_non_finite_density_rejected(op, gamma, rho):
    # at inf the power forms returned inf, and the isothermal sound speed 1.0
    with pytest.raises(DomainError, match="finite"):
        op(GasLaw(1.0, gamma), rho)


@pytest.mark.parametrize("gamma", [1.0, 1.4])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_admissibility_bracket_rejects_non_finite_density(gamma, bad):
    # it returned NaN at an infinite density
    law = GasLaw(1.0, gamma)
    for a, b in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(DomainError, match="finite"):
            admissibility_bracket(law, a, b)


@pytest.mark.parametrize("op", [pressure, pressure_derivative, internal_energy])
def test_overflow_is_a_numeric_error(op):
    # 1e200**2 and 1e200**3 exceed the largest float
    with pytest.raises(NumericError, match="overflows at rho=1e\\+200"):
        op(GasLaw(1.0, 3.0), 1e200)


@pytest.mark.parametrize("kwargs", [{"K": 0.0, "gamma": 1.4}, {"K": -1.0, "gamma": 1.4},
                                    {"K": 1.0, "gamma": 0.9}, {"K": math.inf, "gamma": 1.4}])
def test_invalid_law_rejected(kwargs):
    with pytest.raises(DomainError):
        GasLaw(**kwargs)


@settings(max_examples=200, deadline=None)
@given(law=laws, rho=densities)
def test_derivative_matches_finite_difference(law, rho):
    h = 1e-6 * rho
    fd = (pressure(law, rho + h) - pressure(law, rho - h)) / (2.0 * h)
    assert pressure_derivative(law, rho) == pytest.approx(fd, rel=1e-6)


@settings(max_examples=200, deadline=None)
@given(law=laws, rho=densities)
def test_energy_derivative_recovers_pressure(law, rho):
    h = 1e-6 * rho
    fd = (internal_energy(law, rho + h) - internal_energy(law, rho - h)) / (2.0 * h)
    assert rho**2 * fd == pytest.approx(pressure(law, rho), rel=1e-6)


@settings(max_examples=200, deadline=None)
@given(
    law=laws,
    rho_a=densities,
    rho_b=densities,
    theta=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
def test_pressure_convexity(law, rho_a, rho_b, theta):
    mix = theta * rho_a + (1.0 - theta) * rho_b
    chord = theta * pressure(law, rho_a) + (1.0 - theta) * pressure(law, rho_b)
    assert pressure(law, mix) <= chord + 1e-12 * max(1.0, abs(chord))
