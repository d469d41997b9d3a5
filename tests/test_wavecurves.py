import math

import numpy as np
import pytest

from eulerfan import (
    DegenerateShockError,
    DivergenceError,
    DomainError,
    EulerFanError,
    GasLaw,
    NumericError,
    State,
    lambda1,
    lambda3,
    pressure,
    pressure_derivative,
    pure_shock_speed,
    rarefaction_integral,
    shock_bracket,
)
from eulerfan.eos import sound_speed
from quadrature import adaptive_simpson

LAW_LOG = GasLaw(1.0, 1.0)
LAW_SQ = GasLaw(0.5, 2.0)


class TestRarefactionIntegral:
    def test_closed_form_examples(self):
        assert rarefaction_integral(LAW_SQ, 0.0, 1.0) == pytest.approx(2.0, rel=1e-15)
        assert rarefaction_integral(LAW_SQ, 3.3, 3.3) == 0.0
        assert rarefaction_integral(LAW_LOG, 1.0, math.e) == pytest.approx(1.0, rel=1e-15)

    def test_equal_endpoints_zero_even_at_vacuum(self):
        assert rarefaction_integral(LAW_LOG, 0.0, 0.0) == 0.0
        assert rarefaction_integral(LAW_SQ, 0.0, 0.0) == 0.0

    def test_antisymmetry(self):
        assert rarefaction_integral(LAW_SQ, 1.0, 3.0) == -rarefaction_integral(LAW_SQ, 3.0, 1.0)

    def test_isothermal_vacuum_diverges(self):
        with pytest.raises(DivergenceError):
            rarefaction_integral(LAW_LOG, 0.0, 1.0)

    def test_negative_density_rejected(self):
        with pytest.raises(DomainError):
            rarefaction_integral(LAW_SQ, -1.0, 1.0)

    def test_additivity(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            law = GasLaw(10.0 ** rng.uniform(-1, 1), rng.choice([1.0, 1.4, 2.0, 3.0]))
            a = 10.0 ** rng.uniform(-2, 2)
            b = a * 10.0 ** rng.uniform(0.01, 1.5)
            c = b * 10.0 ** rng.uniform(0.01, 1.5)
            whole = rarefaction_integral(law, a, c)
            split = rarefaction_integral(law, a, b) + rarefaction_integral(law, b, c)
            assert whole == pytest.approx(split, rel=1e-12)

    def test_matches_adaptive_simpson(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            law = GasLaw(10.0 ** rng.uniform(-1, 1), rng.choice([1.0, 1.4, 2.0, 3.0]))
            a = 10.0 ** rng.uniform(-1.5, 1.5)
            b = a * 10.0 ** rng.uniform(0.01, 1.2)
            oracle = adaptive_simpson(
                lambda r: math.sqrt(pressure_derivative(law, r)) / r, a, b, tol=1e-10
            )
            assert rarefaction_integral(law, a, b) == pytest.approx(oracle, rel=1e-8)


class TestShockBracket:
    def test_examples(self):
        assert shock_bracket(LAW_LOG, 1.0, 4.0) == pytest.approx(1.5, rel=1e-15)
        assert shock_bracket(LAW_SQ, 2.2, 2.2) == 0.0
        assert shock_bracket(LAW_SQ, 1.0, 2.0) == pytest.approx(math.sqrt(0.75), rel=1e-15)

    def test_symmetry_and_zero_iff_equal(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            law = GasLaw(10.0 ** rng.uniform(-1, 1), rng.choice([1.0, 1.4, 2.0, 3.0]))
            a = 10.0 ** rng.uniform(-2, 2)
            b = 10.0 ** rng.uniform(-2, 2)
            assert shock_bracket(law, a, b) == shock_bracket(law, b, a)
            if a != b:
                assert shock_bracket(law, a, b) > 0.0

    def test_squared_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            law = GasLaw(10.0 ** rng.uniform(-1, 1), rng.choice([1.0, 1.4, 2.0, 3.0]))
            a = 10.0 ** rng.uniform(-2, 2)
            b = 10.0 ** rng.uniform(-2, 2)
            lhs = shock_bracket(law, a, b) ** 2 * a * b
            rhs = (a - b) * (pressure(law, a) - pressure(law, b))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    def test_nonpositive_density_rejected(self):
        with pytest.raises(DomainError):
            shock_bracket(LAW_SQ, 0.0, 1.0)

    @pytest.mark.parametrize("rho", [5e-324, 1e-200, 1e-162, 1.0, 1e154, 1e200, 1e300])
    @pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0, 500.0])
    def test_equal_densities_give_zero_at_every_scale(self, gamma, rho):
        # the product rho*rho underflows up to about 1e-162 and overflows
        # from about 1e154, and p(rho) may overflow; neither is computed
        for k in (1e-300, 1.0, 1e300):
            assert _same_bits(shock_bracket(GasLaw(k, gamma), rho, rho), 0.0)

    def test_beats_rarefaction_integral(self):
        # strict dominance on increasing density pairs
        rng = np.random.default_rng(7)
        for _ in range(2000):
            law = GasLaw(10.0 * (1 - rng.random()), rng.uniform(1.0, 3.0))
            a = 10.0 ** rng.uniform(-1.5, 1.5)
            b = a * 10.0 ** rng.uniform(1e-6, 3.0)
            assert rarefaction_integral(law, a, b) < shock_bracket(law, a, b)

    def test_grows_along_the_curve(self):
        rng = np.random.default_rng(8)
        for _ in range(2000):
            law = GasLaw(10.0 * (1 - rng.random()), rng.uniform(1.0, 3.0))
            lo = 10.0 ** rng.uniform(-1.5, 1.5)
            ratio = 10.0 ** rng.uniform(1e-6, 3.0)
            hi = lo * ratio
            mid = lo * ratio ** rng.uniform(0.01, 0.99)
            assert shock_bracket(law, lo, mid) < shock_bracket(law, lo, hi)


class TestArithmeticLimits:
    """A density product, a density ratio or a result beyond the floats is a
    NumericError, not a bare exception or a silent inf, NaN or 0.0."""

    @pytest.mark.parametrize(
        "law, rho_a, rho_b, word",
        [
            (LAW_LOG, 1e200, 4e200, "overflow"),  # was NaN: inf/inf
            (LAW_LOG, 1e200, 1e-200, "overflow"),  # was inf
            (LAW_LOG, 2e154, 3e154, "overflow"),  # was 0.0: the product overflows
            (GasLaw(1.0, 1.4), 5e-324, 1e-323, "underflow"),  # was ZeroDivisionError
        ],
        ids=["nan", "inf", "product-overflow", "product-underflow"],
    )
    def test_shock_bracket(self, law, rho_a, rho_b, word):
        with pytest.raises(NumericError, match=f"arithmetic {word}"):
            shock_bracket(law, rho_a, rho_b)

    @pytest.mark.parametrize(
        "rho_a, rho_b, word",
        # the true values are -921 and 921: log(1e-400) and log(1e400)
        [(1e200, 1e-200, "underflow"), (1e-200, 1e200, "overflow")],
        ids=["ratio-underflow", "ratio-overflow"],
    )
    def test_rarefaction_integral(self, rho_a, rho_b, word):
        with pytest.raises(NumericError, match=f"arithmetic {word}"):
            rarefaction_integral(LAW_LOG, rho_a, rho_b)

    def test_scale_invariance_holds_where_it_is_finite(self):
        # for gamma = 1 both kernels depend only on the density ratio
        assert shock_bracket(LAW_LOG, 2e150, 3e150) == pytest.approx(
            shock_bracket(LAW_LOG, 2.0, 3.0), rel=1e-15
        )
        assert rarefaction_integral(LAW_LOG, 1e-150, 1e150) == pytest.approx(
            300.0 * math.log(10.0), rel=1e-15
        )


class TestSpeeds:
    def test_lambda3_examples(self):
        assert lambda3(LAW_LOG, State(1.0, 0.0, 0.0)) == 1.0
        assert lambda3(LAW_SQ, State(4.0, 0.0, -1.0)) == pytest.approx(1.0, rel=1e-15)
        for rho in (0.3, 1.0, 7.7):
            assert lambda3(LAW_LOG, State(rho, 0.0, 2.5)) == pytest.approx(3.5, rel=1e-15)

    def test_lambda1_below_lambda3(self):
        s = State(2.0, 0.5, -0.5)
        assert lambda1(LAW_SQ, s) < lambda3(LAW_SQ, s)

    def test_pure_shock_speed_examples(self):
        assert pure_shock_speed(State(2, 0, 1), State(1, 0, 0)) == 2.0
        assert pure_shock_speed(State(4, 0, 0), State(1, 0, 3)) == -1.0
        assert pure_shock_speed(State(5, 0, 1.25), State(2, 0, 1.25)) == 1.25

    def test_pure_shock_speed_overflow(self):
        # the speed itself, -2e308, is beyond the floats
        with pytest.raises(NumericError, match="arithmetic overflow: the shock speed"):
            pure_shock_speed(State(1, 0, 1e308), State(1.5, 0, 0))

    @pytest.mark.parametrize(
        "left, right, speed",
        [
            (State(1e200, 0, 1e200), State(1, 0, 0), 1e200),
            (State(1, 0, 1e300), State(1e100, 0, 1e300), 1e300),
        ],
        ids=["large-density-and-velocity", "equal-velocities"],
    )
    def test_pure_shock_speed_beyond_the_mass_fluxes(self, left, right, speed):
        # rho*v2 overflows, but the speed fits a float: each raised NumericError
        assert pure_shock_speed(left, right) == speed

    def test_degenerate_shock_rejected(self):
        with pytest.raises(DegenerateShockError):
            pure_shock_speed(State(1, 0, 0), State(1, 0, 2))

    def test_vacuum_density_rejected(self):
        with pytest.raises(DomainError):
            lambda3(LAW_SQ, State(0.0, 0.0, 0.0))
        with pytest.raises(DomainError):
            lambda1(LAW_SQ, State(0.0, 0.0, 0.0))


def _old_rarefaction_integral(law, rho_a, rho_b):
    """The closed form as written before the fixed-endpoint forms."""
    if rho_a < 0.0 or rho_b < 0.0:
        raise DomainError("densities must be nonnegative")
    if rho_a == rho_b:
        return 0.0
    if law.isothermal:
        if rho_a == 0.0 or rho_b == 0.0:
            raise DivergenceError("integral diverges at the vacuum for gamma = 1")
        return math.sqrt(law.K) * math.log(rho_b / rho_a)

    def speed(rho):
        return 0.0 if rho == 0.0 else sound_speed(law, rho)

    return 2.0 / (law.gamma - 1.0) * (speed(rho_b) - speed(rho_a))


def _old_shock_bracket(law, rho_a, rho_b):
    if rho_a <= 0.0 or rho_b <= 0.0:
        raise DomainError("densities must be positive")
    num = (rho_a - rho_b) * (pressure(law, rho_a) - pressure(law, rho_b))
    return math.sqrt(max(num, 0.0) / (rho_a * rho_b))


# the generators' gammas, 7, and gamma inside and just outside the band
# that selects the isothermal forms
FIXED_GAMMAS = (1.0, 1.0 + 1e-13, 1.0 + 5e-13, 1.0 + 2e-12, 1.4, 2.0, 3.0, 7.0)


def _same_bits(x, y):
    # == plus the sign of zero: -0.0 and 0.0 print differently in artifacts
    return x.hex() == y.hex()


@pytest.mark.parametrize("gamma", FIXED_GAMMAS)
class TestFixedEndpointForms:
    """The kernels give the bits of their former single-function form, which
    calls pressure and sound_speed where they compute inline, at every pair
    of endpoints, as the bisection calls them with one endpoint fixed."""

    @staticmethod
    def densities(gamma, n=60):
        rng = np.random.default_rng(int(gamma * 1e3) % 2**32)
        rhos = [float(r) for r in 10.0 ** rng.uniform(-3.0, 3.0, n)]
        return rhos + [rhos[0], rhos[1], 1.0]

    def test_rarefaction_bits(self, gamma):
        law = GasLaw(float(10.0 ** np.random.default_rng(1).uniform(-1, 1)), gamma)
        rhos = self.densities(gamma)
        ends = rhos if law.isothermal else [0.0] + rhos
        for rho_b in ends:
            for rho_a in ends:
                got = rarefaction_integral(law, rho_a, rho_b)
                assert _same_bits(got, _old_rarefaction_integral(law, rho_a, rho_b)), (rho_a, rho_b)

    def test_shock_bits(self, gamma):
        law = GasLaw(float(10.0 ** np.random.default_rng(2).uniform(-1, 1)), gamma)
        rhos = self.densities(gamma)
        for rho_b in rhos:
            for rho_a in rhos:
                got = shock_bracket(law, rho_a, rho_b)
                assert _same_bits(got, _old_shock_bracket(law, rho_a, rho_b)), (rho_a, rho_b)

    def test_vacuum_endpoints(self, gamma):
        law = GasLaw(0.8, gamma)
        assert rarefaction_integral(law, 0.0, 0.0) == 0.0
        if law.isothermal:
            with pytest.raises(DivergenceError):
                rarefaction_integral(law, 2.0, 0.0)
            with pytest.raises(DivergenceError):
                rarefaction_integral(law, 0.0, 2.0)
        else:
            assert _same_bits(rarefaction_integral(law, 2.0, 0.0), _old_rarefaction_integral(law, 2.0, 0.0))
            assert _same_bits(rarefaction_integral(law, 0.0, 2.0), _old_rarefaction_integral(law, 0.0, 2.0))

    @pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan])
    def test_bad_densities_raise_the_same_errors(self, gamma, bad):
        # the former forms returned NaN for a NaN density when gamma = 1,
        # where the kernels now raise DomainError
        law = GasLaw(1.3, gamma)
        for rho in (0.7, bad):
            for a, b in ((bad, rho), (rho, bad)):
                for old, new in (
                    (_old_rarefaction_integral, rarefaction_integral),
                    (_old_shock_bracket, shock_bracket),
                ):
                    outcomes = []
                    for call in (lambda: old(law, a, b), lambda: new(law, a, b)):
                        try:
                            value = call()
                            outcomes.append(
                                ("value", value.hex()) if math.isfinite(value) else ("error", DomainError)
                            )
                        except DomainError as err:
                            outcomes.append(("error", type(err)))
                    assert outcomes[0] == outcomes[1], (new.__name__, a, b)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_densities_rejected(self, gamma, bad):
        # one comparison per call rejects them, before any arithmetic
        law = GasLaw(1.3, gamma)
        for rho in (0.7, bad):
            for kernel in (rarefaction_integral, shock_bracket):
                with pytest.raises(DomainError, match="finite"):
                    kernel(law, bad, rho)
                with pytest.raises(DomainError, match="finite"):
                    kernel(law, rho, bad)

    def test_overflow_raises_the_eos_error(self, gamma):
        # the kernels compute p and c inline and hand an overflowing one to
        # pressure or sound_speed, so the message is eos's own: at rho =
        # 1e300, rho**gamma raises OverflowError for gamma well above 1 and
        # K * rho**gamma is inf near 1
        law = GasLaw(1e300, gamma)
        cases = [(pressure, shock_bracket)]
        if gamma >= 1.4:  # nearer 1, c**2 = K*gamma*rho**(gamma-1) stays near K
            cases.append((sound_speed, rarefaction_integral))
        for eos, kernel in cases:
            with pytest.raises(NumericError) as expected:
                eos(law, 1e300)
            with pytest.raises(NumericError) as got:
                kernel(law, 1e300, 1.0)
            assert str(got.value) == str(expected.value)

    def test_zero_density_rejected_by_the_shock_form(self, gamma):
        law = GasLaw(1.3, gamma)
        with pytest.raises(DomainError):
            shock_bracket(law, 1.0, 0.0)
        with pytest.raises(DomainError):
            shock_bracket(law, 0.0, 1.0)


@pytest.mark.parametrize("gamma", FIXED_GAMMAS)
def test_equal_pressures_keep_the_sign_of_zero(gamma):
    """Neighbouring densities whose pressures round equal: (a - b) * 0.0 is
    -0.0 for a < b, and the bracket keeps that sign, in both orders."""
    rng = np.random.default_rng(5)
    hits = 0
    for _ in range(400):
        law = GasLaw(float(rng.uniform(0.1, 1.0)), gamma)
        a = float(rng.uniform(0.5, 2.0))
        b = math.nextafter(a, 4.0)
        hits += pressure(law, a) == pressure(law, b)
        for x, y in ((a, b), (b, a)):
            old = _old_shock_bracket(law, x, y)
            assert _same_bits(shock_bracket(law, x, y), old)
    # pressures of neighbours round equal only for gamma near 1
    assert hits > 0 or gamma >= 3.0


# densities over the whole float range: a subnormal, then 1e-300 to 1e300,
# with the neighbours of the scales where rho*rho under- and overflows
EXTREME_RHOS = (
    5e-324, 1e-300, 3e-250, 1e-200, 2e-162, 7e-155, 1e-100,
    0.5, 1.0, 3.0, 1e100, 5e153, 2e154, 1e200, 4e250, 1e300,
)
EXTREME_KS = (1e-300, 1.0, 1e300)


def _outcome(call):
    """("value", the bits) or (the error type, its message)."""
    try:
        value = call()
    except (EulerFanError, ArithmeticError, ValueError) as err:
        return type(err), str(err)
    return "value", value.hex()


def _same_outcomes(new, old, rho_a, rho_b, eos_at_a=None):
    """The kernel's outcome ``new`` against the former single-function
    form's ``old``; ``eos_at_a`` is the outcome of the eos term at rho_a
    where the former form computed it first."""
    if new[0] == "value":
        assert old == new
    elif new[0] is NumericError and new[1].startswith("arithmetic overflow"):
        # the one result's own check, which the former form did not make: it
        # returned the result, inf or NaN, or a quotient by an overflowed
        # density product
        assert old[0] == "value"
        assert not math.isfinite(float.fromhex(old[1])) or rho_a * rho_b == math.inf
    elif new[0] is NumericError and new[1].startswith("arithmetic underflow"):
        # the former form divided by 0.0 or took log(0.0)
        assert old[0] in (ZeroDivisionError, ValueError)
    else:
        # eos's own error, at rho_b before rho_a; the former shock form
        # evaluated p(rho_a) first
        first = eos_at_a is not None and eos_at_a[0] is NumericError
        assert old == (eos_at_a if first else new)


@pytest.mark.parametrize("gamma", FIXED_GAMMAS + (500.0,))
class TestExtremeRangeBits:
    """The kernels and the former forms agree bit for bit, or raise the same
    error, over the whole float range.  Equal densities are left out: the
    kernels return 0.0 before any term, where the former shock form formed
    p and rho*rho."""

    @pytest.mark.parametrize("k", EXTREME_KS)
    def test_shock_bits(self, gamma, k):
        law = GasLaw(k, gamma)
        for rho_b in EXTREME_RHOS:
            for rho_a in EXTREME_RHOS:
                if rho_a == rho_b:
                    continue
                _same_outcomes(
                    _outcome(lambda: shock_bracket(law, rho_a, rho_b)),
                    _outcome(lambda: _old_shock_bracket(law, rho_a, rho_b)),
                    rho_a,
                    rho_b,
                    _outcome(lambda: pressure(law, rho_a)),
                )

    @pytest.mark.parametrize("k", EXTREME_KS)
    def test_rarefaction_bits(self, gamma, k):
        law = GasLaw(k, gamma)
        rhos = (0.0,) + EXTREME_RHOS
        for rho_b in rhos:
            for rho_a in rhos:
                if rho_a == rho_b:
                    continue
                _same_outcomes(
                    _outcome(lambda: rarefaction_integral(law, rho_a, rho_b)),
                    _outcome(lambda: _old_rarefaction_integral(law, rho_a, rho_b)),
                    rho_a,
                    rho_b,
                )

    @pytest.mark.parametrize("where", ["rho_b", "rho_a", "both"])
    def test_overflow_at_one_or_both_endpoints(self, gamma, where):
        # p and c overflow at 1e200 for every gamma here but 1 and the
        # isothermal band, where c**2 = K stays finite
        law = GasLaw(1e300, gamma)
        rho_a, rho_b = {"rho_b": (1.0, 2e200), "rho_a": (1e200, 1.0), "both": (1e200, 2e200)}[where]
        first = rho_a if where == "rho_a" else rho_b  # rho_b's error comes first
        for eos, kernel in ((pressure, shock_bracket), (sound_speed, rarefaction_integral)):
            expected = _outcome(lambda: eos(law, first))
            if expected[0] != "value":
                assert expected[0] is NumericError
                assert _outcome(lambda: kernel(law, rho_a, rho_b)) == expected
