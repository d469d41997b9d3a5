"""The middle-density solve infers the sign of most bisection midpoints
instead of evaluating the residual there.  It must return the float of the
plain bisection in ``plain_bisection``, or raise its exception, on every
input, and evaluate the residual far less often."""

import json
import math
import statistics

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulerfan import (
    CaseId,
    EulerFanError,
    GasLaw,
    NumericError,
    RiemannProblem,
    State,
    classify,
    rarefaction_integral,
    shock_bracket,
    solve_standard,
    sound_speed,
    verify_standard,
)
from eulerfan import riemann
from eulerfan.cli import STATUS_OK, main
import batches
from generators import GAMMAS, problem_for_case
from plain_bisection import outcome, solve_middle_density

TWO_WAVE_CASES = (CaseId.R1R3, CaseId.R1S3, CaseId.S1R3, CaseId.S1S3)
SEVEN_CASES = (
    CaseId.R1R3_VACUUM,
    CaseId.R1R3,
    CaseId.SINGLE_R,
    CaseId.R1S3,
    CaseId.S1R3,
    CaseId.SINGLE_S,
    CaseId.S1S3,
)


def assert_same(p, case):
    got = outcome(riemann._solve_middle_density, p, case)
    assert got == outcome(solve_middle_density, p, case), (p, case)


def make(law, rl, vl2, rr, vr2):
    return RiemannProblem(law, State(rl, 0.0, vl2), State(rr, 0.0, vr2))


class TestSameFloat:
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_criterion_1_draws(self, gamma):
        rng = np.random.default_rng(101)
        for case in TWO_WAVE_CASES:
            for _ in range(50):
                law = GasLaw(float(10.0 ** rng.uniform(-1.0, 1.0)), gamma)
                p, _ = problem_for_case(case, rng, law=law)
                assert classify(p) is case
                assert_same(p, case)

    @pytest.mark.parametrize("name", ["wedge-sr", "wedge-s"])
    def test_wedge_batches(self, name):
        """Every middle equation the 500-problem acceptance batch builds,
        the perturbed problems of the search included."""
        seen = dict.fromkeys(equation for draw in batches.record(name) for equation in draw.equations)
        assert len(seen) > 1000
        for p, case in seen:
            assert_same(p, case)


@pytest.mark.parametrize("error", [ZeroDivisionError, NumericError])
def test_plain_walk_when_the_span_estimate_raises(monkeypatch, error):
    """Should _proven_span's estimate or guard raise, _bisect walks every
    midpoint, as plain bisection does, on criterion 1's two-wave draws."""
    calls = []

    def raising(*args):
        calls.append(args)
        raise error("raised")

    monkeypatch.setattr(riemann, "_proven_span", raising)
    rng = np.random.default_rng(101)
    for case in TWO_WAVE_CASES:
        for _ in range(25):
            p, _ = problem_for_case(case, rng)
            assert_same(p, case)
    assert len(calls) == 100  # every solve tried the span first


def ratio(log_step, near):
    """10**log_step, or 1 + 10**-log_step next to a single-wave threshold."""
    return 1.0 + 10.0**-log_step if near else 10.0**log_step


@settings(max_examples=300, deadline=None)
@given(
    case=st.sampled_from(TWO_WAVE_CASES),
    gamma=st.one_of(st.sampled_from(GAMMAS + (1.0 + 1e-9, 5.0 / 3.0, 7.0)), st.floats(1.0, 12.0)),
    log_k=st.floats(-40.0, 40.0),
    log_m=st.floats(-150.0, 150.0),
    steps=st.tuples(st.floats(0.0, 30.0), st.floats(0.0, 30.0)),
    near=st.tuples(st.booleans(), st.booleans()),
    offset=st.one_of(
        st.just(0.0),
        st.builds(lambda sign, log_v: sign * 10.0**log_v, st.sampled_from((-1.0, 1.0)), st.floats(-10.0, 308.0)),
    ),
)
# the S1S3 doubling's first end, 2e52, overflows, and the bracket bisects
# back to a finite end
@example(case=CaseId.S1S3, gamma=5.0, log_k=0.0, log_m=52.0, steps=(0.0, 0.0), near=(False, False), offset=0.0)
def test_extreme_scales(case, gamma, log_k, log_m, steps, near, offset):
    """Data built backward from a middle density, as in ``generators``, at
    extreme density, velocity and law scales, and next to the thresholds:
    a middle density close to a data density, or two rarefactions close to
    the vacuum, both velocities shifted by a common offset.  Compared on
    the built case and on the classified one; and solve_standard raises an
    EulerFanError or returns finite speeds and a finite middle state (the
    kernels bound every term, see riemann._bisect)."""
    I, S = rarefaction_integral, shock_bracket
    law = GasLaw(10.0**log_k, gamma)
    m = 10.0**log_m
    a, b = (ratio(x, n) for x, n in zip(steps, near))
    try:
        if case is CaseId.R1R3:
            rl, rr = m * a, m * b
            dv = I(law, m, rl) + I(law, m, rr)
        elif case is CaseId.R1S3:
            rl, rr = m * a, m / b
            dv = I(law, m, rl) - S(law, m, rr)
        elif case is CaseId.S1R3:
            rl, rr = m / a, m * b
            dv = -S(law, m, rl) + I(law, m, rr)
        else:
            rl, rr = m / a, m / b
            dv = -S(law, m, rl) - S(law, m, rr)
        p = make(law, rl, offset, rr, offset + dv)
        found = classify(p)
    except EulerFanError:
        return
    for c in {case, found}:
        if c in riemann.WAVE_KINDS:
            assert_same(p, c)
    assert_finite_solution(p)


def assert_finite_solution(p):
    """solve_standard raises an EulerFanError, or every wave speed, the
    middle density and the middle velocity are finite; the one NaN is the
    middle velocity across the vacuum."""
    try:
        s = solve_standard(p)
    except EulerFanError:
        return
    speeds = [speed for wave in s.waves for speed in wave.speeds]
    assert all(math.isfinite(speed) for speed in speeds), (p, s)
    if s.middle is not None:
        assert math.isfinite(s.middle.rho), (p, s)
        if s.case is CaseId.R1R3_VACUUM:
            assert math.isnan(s.middle.v2), (p, s)
        else:
            assert math.isfinite(s.middle.v2), (p, s)


def exact_residual(p, case, m):
    """R(m) of the proof in _bisect's docstring, to 60 digits: the residual
    in exact arithmetic on the floats the kernels hold, with the exact
    pressure at a shock's data density."""
    law = p.law
    K, gamma = mpmath.mpf(law.K), mpmath.mpf(law.gamma)
    total = -mpmath.mpf(p.dv)
    for kind, rb in zip(riemann.WAVE_KINDS[case], (p.left.rho, p.right.rho)):
        M, B = mpmath.mpf(m), mpmath.mpf(rb)
        if kind == riemann.SHOCK:
            total -= mpmath.sqrt((M - B) * (K * M**gamma - K * B**gamma) / (M * B))
        elif law.isothermal:
            total += mpmath.mpf(math.sqrt(law.K)) * mpmath.log(B / M)
        else:
            c2 = mpmath.mpf(law.K * law.gamma) * M ** mpmath.mpf(law.gamma - 1.0)
            total += mpmath.mpf(2.0 / (law.gamma - 1.0)) * (mpmath.mpf(sound_speed(law, rb)) - mpmath.sqrt(c2))
    return total


@pytest.mark.parametrize("gamma", GAMMAS + (5.0 / 3.0, 7.0))
def test_rounding_bound_holds(gamma):
    """|f(m) - R(m)| <= E at points across each bracket, next to its ends
    and next to the root, with E = e0 + 22u|f(m)| (an interval of one point)."""
    rng = np.random.default_rng(5)
    mpmath.mp.dps = 60
    for case in TWO_WAVE_CASES:
        for _ in range(5):
            law = GasLaw(float(10.0 ** rng.uniform(-2.0, 2.0)), gamma)
            p, rho_m = problem_for_case(case, rng, law=law)
            rl, rr = p.left.rho, p.right.rho
            lo, hi = {
                CaseId.R1R3: (1e-14 * min(rl, rr), min(rl, rr)),
                CaseId.S1S3: (max(rl, rr), 4.0 * rho_m),
            }.get(case, (min(rl, rr), max(rl, rr)))
            e0 = riemann._rounding_bound(p, case, lo, hi)
            assert e0 is not None
            f = riemann.middle_equation(p, case)
            points = [lo + (hi - lo) * t for t in np.linspace(0.0, 1.0, 9)]
            points += [x * (1.0 + 2.0**-k) for k in range(1, 52, 5) for x in (lo, rho_m)]
            points += [x * (1.0 - 2.0**-k) for k in range(1, 52, 5) for x in (hi, rho_m)]
            for m in points:
                if lo <= m <= hi:
                    fm = f(m)
                    error = abs(mpmath.mpf(fm) - exact_residual(p, case, m))
                    assert error <= e0 + 22.0 * 2.0**-53 * abs(fm), (p, case, m)


def count_evaluations(monkeypatch, solve, problems):
    """Residual evaluations per solve, counted through middle_equation."""
    counts, build_equation = [], riemann.middle_equation

    def counted(p, case):
        residual = build_equation(p, case)

        def evaluate(m):
            counts[-1] += 1
            return residual(m)

        return evaluate

    monkeypatch.setattr(riemann, "middle_equation", counted)
    for p, case in problems:
        counts.append(0)
        solve(p, case)
    monkeypatch.undo()
    return counts


def test_evaluations_per_solve(monkeypatch):
    """Criterion 1's draws: the median solve evaluates the residual at
    most 20 times with a shock (46 for plain bisection), and no more often
    than plain bisection with two rarefactions."""
    rng = np.random.default_rng(101)
    problems = {case: [] for case in TWO_WAVE_CASES}
    for case in SEVEN_CASES:
        for _ in range(100):
            p, _ = problem_for_case(case, rng)
            if case in problems:
                problems[case].append((p, case))
    for case, batch in problems.items():
        new = statistics.median(count_evaluations(monkeypatch, riemann._solve_middle_density, batch))
        old = statistics.median(count_evaluations(monkeypatch, solve_middle_density, batch))
        assert new <= (old if case is CaseId.R1R3 else 20), (case, new, old)


class TestBracketRepairs:
    """Inputs whose middle density plain bisection on the old brackets
    and stopping rule got wrong, or did not find."""

    @pytest.mark.parametrize("right", [1e8, 1e12])
    def test_root_near_the_low_end_of_a_wide_bracket(self, right):
        law = GasLaw(1.0, 1.4)
        dv = -shock_bracket(law, 1.0, 1.5) + rarefaction_integral(law, 1.5, right)
        p = make(law, 1.0, 0.0, right, dv)
        s = solve_standard(p)
        assert s.case is CaseId.S1R3
        assert s.middle.rho == pytest.approx(1.5, rel=1e-10)
        assert verify_standard(p, s).overall

    @pytest.mark.parametrize(
        "law, dv, rho_m",
        [
            (GasLaw(1.0, 1.4), (1 - 1e-3) * 2 * rarefaction_integral(GasLaw(1.0, 1.4), 0.0, 1.0), 1e-15),
            (GasLaw(1.0, 1.0), 2 * math.log(1e20), 1e-20),
            (GasLaw(1.0, 1.0), 150.0, math.exp(-75.0)),
        ],
        ids=["gamma=1.4", "gamma=1", "gamma=1-dv=150"],
    )
    def test_two_rarefactions_below_the_bracket(self, law, dv, rho_m):
        # the root lies below 1e-14 * min(rho-, rho+)
        p = make(law, 1.0, -0.5 * dv, 1.0, 0.5 * dv)
        s = solve_standard(p)
        assert s.case is CaseId.R1R3
        assert s.middle.rho == pytest.approx(rho_m, rel=1e-9)
        assert verify_standard(p, s).overall

    def test_two_rarefactions_cli(self, tmp_path):
        dv = 2 * math.log(1e20)
        doc = {
            "law": {"K": 1.0, "gamma": 1.0},
            "left": {"rho": 1.0, "v1": 0.0, "v2": -0.5 * dv},
            "right": {"rho": 1.0, "v1": 0.0, "v2": 0.5 * dv},
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        assert main(["--mode", "standard", "--input", str(path), "--out", str(tmp_path / "out")]) == STATUS_OK

    def test_middle_density_below_the_floats(self):
        # gamma = 1.01 just below the vacuum threshold: rho_m is about 1e-1060
        law = GasLaw(1.0, 1.01)
        dv = 2 * rarefaction_integral(law, 0.0, 1.0) - 1e-3
        p = make(law, 1.0, 0.0, 1.0, dv)
        assert classify(p) is CaseId.R1R3
        with pytest.raises(NumericError, match="arithmetic underflow: the middle density"):
            solve_standard(p)
