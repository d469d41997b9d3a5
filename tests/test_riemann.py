import math
from collections import Counter

import numpy as np
import pytest

from eulerfan import (
    BracketError,
    CaseId,
    DomainError,
    GasLaw,
    InvariantError,
    NumericError,
    RiemannProblem,
    State,
    classify,
    lambda1,
    lambda3,
    near_boundaries,
    pure_shock_speed,
    rarefaction_integral,
    rotate_180,
    search_feasible,
    shock_bracket,
    solve_standard,
    verify_standard,
)
from eulerfan import riemann, wavecurves
from eulerfan.riemann import middle_equation
from generators import GAMMAS, problem_for_case

LAW_LOG = GasLaw(1.0, 1.0)
LAW_SQ = GasLaw(0.5, 2.0)

TWO_WAVE_CASES = (CaseId.R1R3, CaseId.R1S3, CaseId.S1R3, CaseId.S1S3)
ALL_CASES = (
    CaseId.R1R3_VACUUM,
    CaseId.R1R3,
    CaseId.SINGLE_R,
    CaseId.R1S3,
    CaseId.S1R3,
    CaseId.SINGLE_S,
    CaseId.S1S3,
)


def make(law, rl, vl2, rr, vr2, v1=0.0):
    return RiemannProblem(law, State(rl, v1, vl2), State(rr, v1, vr2))


class TestClassify:
    def test_examples(self):
        assert classify(make(LAW_LOG, 1, 0, 4, -1.5)) is CaseId.SINGLE_S
        assert classify(make(LAW_SQ, 2, 3, 2, 3, v1=1.0)) is CaseId.CONSTANT
        assert classify(make(LAW_SQ, 1, -2, 1, 2)) is CaseId.R1R3_VACUUM
        assert classify(make(LAW_LOG, 1, 0, 4, -1)) is CaseId.S1R3

    def test_single_rarefaction_boundary_both_orders(self):
        for rl, rr in ((4.0, 1.0), (1.0, 4.0)):
            dv = abs(rarefaction_integral(LAW_SQ, rl, rr))
            p = make(LAW_SQ, rl, 0.0, rr, dv)
            assert classify(p) is CaseId.SINGLE_R
            fam = solve_standard(p).waves[0].family
            assert fam == (1 if rl > rr else 3)

    def test_single_shock_family(self):
        for rl, rr in ((1.0, 4.0), (4.0, 1.0)):
            dv = -shock_bracket(LAW_LOG, rl, rr)
            p = make(LAW_LOG, rl, 0.0, rr, dv)
            assert classify(p) is CaseId.SINGLE_S
            fam = solve_standard(p).waves[0].family
            assert fam == (1 if rl < rr else 3)

    def test_vacuum_boundary_uses_nonstrict_sign(self):
        threshold = rarefaction_integral(LAW_SQ, 0.0, 1.0) * 2.0
        p = make(LAW_SQ, 1.0, -0.5 * threshold, 1.0, 0.5 * threshold)
        assert classify(p) is CaseId.R1R3_VACUUM

    def test_no_vacuum_case_for_isothermal_law(self):
        p = make(LAW_LOG, 1.0, 0.0, 4.0, 50.0)
        assert classify(p) is CaseId.R1R3

    def test_generated_cases_recovered(self):
        rng = np.random.default_rng(41)
        for case in ALL_CASES:
            for _ in range(20):
                p, _ = problem_for_case(case, rng)
                assert classify(p) is case, (case, p)

    def test_near_boundary_reported(self):
        p = make(LAW_LOG, 1.0, 0.0, 4.0, -1.5 + 1e-13)
        assert classify(p) is CaseId.SINGLE_S
        assert near_boundaries(p) == ("single-shock",)

    def test_mismatched_tangential_velocity_rejected(self):
        with pytest.raises(DomainError):
            RiemannProblem(LAW_SQ, State(1, 0.0, 0), State(1, 0.1, 0))

    @pytest.mark.parametrize(
        "left, right",
        [
            ((0.0, 0.0), (0.0, math.nan)),
            ((0.0, 0.0), (0.0, math.inf)),
            ((0.0, -math.inf), (0.0, 0.0)),
            ((math.inf, 0.0), (math.inf, 0.0)),
            ((math.nan, 0.0), (math.nan, 0.0)),
        ],
        ids=["right-v2-nan", "right-v2-inf", "left-v2-neg-inf", "v1-inf", "v1-nan"],
    )
    def test_non_finite_velocity_rejected(self, left, right):
        # a vacuum middle State may carry v2 = nan, but data may not
        with pytest.raises(DomainError):
            RiemannProblem(LAW_LOG, State(1.0, *left), State(4.0, *right))


@pytest.mark.parametrize("op", [classify, solve_standard])
def test_pressure_overflow_is_a_numeric_error(op):
    # pressure(1e200) = 1e600 for gamma = 3: no float holds it
    with pytest.raises(NumericError):
        op(make(GasLaw(1.0, 3.0), 1e200, 0.0, 4e200, -1.5))


@pytest.mark.parametrize(
    "op, p",
    [
        # the shock bracket's density product underflows: ZeroDivisionError
        (near_boundaries, make(GasLaw(1.0, 1.4), 5e-324, 0.0, 1e-323, -1e-300)),
        # the bracket was NaN, and the pattern read S1R3 where it is S1S3
        (classify, make(LAW_LOG, 1e200, 0.0, 4e200, -1e10)),
        # the bracket was inf, and the pattern read SingleS
        (classify, make(LAW_LOG, 1e200, 0.0, 1e-200, 0.0)),
    ],
    ids=["near-boundaries-underflow", "classify-nan-bracket", "classify-inf-bracket"],
)
def test_bracket_beyond_the_floats_is_a_numeric_error(op, p):
    with pytest.raises(NumericError, match="arithmetic (over|under)flow"):
        op(p)


# dv = 1e308 - (-1e308) overflows to inf, which lay in the Constant band
JUMP_OVERFLOW = make(GasLaw(1.0, 1.4), 1.0, -1e308, 1.0, 1e308)


@pytest.mark.parametrize(
    "op",
    [
        classify,
        near_boundaries,
        lambda p: middle_equation(p, CaseId.S1S3),
        lambda p: verify_standard(p, riemann.StandardSolution(CaseId.CONSTANT, None, ())),
    ],
    ids=["classify", "near-boundaries", "middle-equation", "verify-standard"],
)
def test_velocity_jump_overflow_is_a_numeric_error(op):
    # classify answered Constant, and verify_standard passed
    with pytest.raises(NumericError, match="arithmetic overflow: the velocity jump"):
        op(JUMP_OVERFLOW)


@pytest.mark.parametrize("v2", [10**308, 1e308], ids=["int", "float"])
@pytest.mark.parametrize(
    "op, message",
    [(classify, "the velocity jump"), (solve_standard, "the velocity jump"), (search_feasible, "the discriminant")],
    ids=["classify", "solve-standard", "search"],
)
def test_int_velocity_jump_beyond_the_floats(op, message, v2):
    # int arithmetic does not overflow: the int jump -2 * 10**308 passed
    # dv's test, and each call raised a bare OverflowError where it met a
    # float; the int data now fail as their float copy does
    p = RiemannProblem(GasLaw(1, 1.4), State(1, 0, v2), State(2, 0, -v2))
    with pytest.raises(NumericError, match=f"arithmetic overflow: {message}"):
        op(p)


def test_velocity_jump_overflow_message_is_cut():
    # each int velocity went into the message in full: about 650 characters
    p = RiemannProblem(GasLaw(1, 1.4), State(1, 0, 10**308), State(2, 0, -(10**308)))
    with pytest.raises(NumericError, match="arithmetic overflow: the velocity jump") as err:
        p.dv
    assert len(str(err.value)) < 200


@pytest.mark.parametrize(
    "p",
    [
        # the energy density squares v1, which no solver step touches
        make(GasLaw(1.0, 1.4), 1.0, 0.0, 2.0, -3.0, v1=1e160),
        # a shock's normal momentum flux squares v2; dv is 0 at this scale
        make(GasLaw(1.0, 1.4), 1.0, 1e160, 4.0, 1e160),
    ],
    ids=["tangential", "normal"],
)
def test_velocity_overflow_in_verify_standard(p):
    s = solve_standard(p)
    assert any(w.kind == "shock" for w in s.waves)
    with pytest.raises(NumericError, match="arithmetic overflow"):
        verify_standard(p, s)


@pytest.mark.parametrize("rho", [1e-200, 1e200])
@pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0])
def test_equal_densities_at_extreme_scale(gamma, rho):
    # the shock threshold is 0.0 before the product rho*rho leaves the
    # floats; it raised NumericError at both scales
    p = make(GasLaw(1.0, gamma), rho, 0.0, rho, 1.0)
    expected = CaseId.R1R3 if gamma == 1.0 or rho > 1.0 else CaseId.R1R3_VACUUM
    assert classify(p) is expected
    s = solve_standard(p)
    assert s.case is expected
    # at 1e200 and gamma > 1 the sound speeds are 1e40 or more, so the middle
    # residual's rounding is far above its tolerance of 1e-11 (ROADMAP
    # item 11)
    if rho < 1.0 or gamma == 1.0:
        assert verify_standard(p, s).overall


@pytest.mark.parametrize("gamma", [1.0, 1.4])
def test_shock_side_data_density_below_the_square_root_of_the_floats(gamma):
    # the residual at the bracket's end takes the shock bracket of 1e-200
    # and itself, which is 0.0; it raised "arithmetic underflow: the density
    # product 1e-200*1e-200"
    law = GasLaw(1.0, gamma)
    dv = 0.5 * (abs(rarefaction_integral(law, 1e-100, 1e-200)) - shock_bracket(law, 1e-100, 1e-200))
    p = make(law, 1e-100, 0.0, 1e-200, dv)
    assert classify(p) is CaseId.R1S3
    s = solve_standard(p)
    assert 1e-200 < s.middle.rho < 1e-100
    assert verify_standard(p, s).overall


@pytest.mark.parametrize("gamma", [1.0, 1.4])
def test_overflowing_residual_term_names_its_kernel(gamma):
    # at the first doubled upper end, 2e160, the density product overflows;
    # the residual was NaN from there on, and after 60 doublings a
    # BracketError read "no sign change on [1e+160, 2.305843009213694e+178]"
    p = make(GasLaw(1.0, gamma), 1e160, 0.0, 1e160, -1.0)
    assert classify(p) is CaseId.S1S3
    with pytest.raises(NumericError) as err:
        solve_standard(p)
    assert str(err.value) == "arithmetic overflow: the shock bracket of 2e+160 and 1e+160"


# The guards that the middle-density solve keeps: a caller can name a case
# that its data do not have, or a bracket outside the rounding proof.
def test_a_case_the_data_do_not_have_is_a_bracket_error():
    p = make(GasLaw(1.0, 1.4), 1.0, 0.0, 2.0, 1.0)
    assert classify(p) is CaseId.R1R3
    # the S1R3 residual is negative at both data densities
    with pytest.raises(BracketError):
        riemann._solve_middle_density(p, CaseId.S1R3)


@pytest.mark.parametrize("case", [CaseId.CONSTANT, CaseId.SINGLE_R, CaseId.SINGLE_S, CaseId.R1R3_VACUUM])
def test_a_case_without_a_middle_state_has_no_equation(case):
    with pytest.raises(InvariantError, match="has no middle-state equation"):
        middle_equation(make(LAW_LOG, 1.0, 0.0, 4.0, -1.0), case)


def test_no_rounding_bound_below_the_shock_side_density():
    p = make(LAW_LOG, 1.0, 0.0, 4.0, -1.0)
    assert classify(p) is CaseId.S1R3
    assert riemann._rounding_bound(p, CaseId.S1R3, 1.0, 4.0) is not None
    # the shock's trial densities must lie at or above rho- = 1
    assert riemann._rounding_bound(p, CaseId.S1R3, 0.5, 4.0) is None


def test_no_rounding_bound_above_the_rarefaction_side_density():
    p = make(LAW_LOG, 1.0, 0.0, 4.0, -1.0)
    # R1S3's 1-rarefaction needs trial densities at or below rho- = 1; its
    # 3-shock's, at or above rho+ = 4, hold on [4, 8]
    assert riemann._rounding_bound(p, CaseId.R1S3, 4.0, 8.0) is None


def _s1s3_root_below_an_overflowing_end(gamma):
    p = make(GasLaw(1.1035455147341889e117, gamma), 1.9033388938838377e38, -7.301992467052995e64,
             4.8055283302186465e37, -4.266034303856327e114)
    assert classify(p) is CaseId.S1S3
    # the doubling stops at 3.8980380546740996e41, where the shock bracket
    # overflows, above the root
    assert max(p.left.rho, p.right.rho) < solve_standard(p).middle.rho < 3.8980380546740996e41


def _s1r3_velocities_above_the_squares(gamma):
    p = make(GasLaw(1.0, gamma), 1.0, 1e300, 1e100, 1e300)
    s = solve_standard(p)
    assert s.case is CaseId.S1R3
    # the shock's jump relations square v2 = 1e300
    assert verify_standard(p, s).overall


def _r1r3_at_large_density(gamma):
    p = make(GasLaw(1.0, gamma), 1e200, 0.0, 1e200, 1.0)
    s = solve_standard(p)
    assert s.case is CaseId.R1R3
    # sound speeds of 1e40 or more against tolerances of about 1e-11
    assert verify_standard(p, s).overall


def _sub_unit_densities(gamma):
    law = GasLaw(1.0, gamma)
    # the velocities are 0, so rho -> 1e-13 rho maps one problem onto the
    # other; the band's absolute 1 reads the small one as Constant
    assert classify(make(law, 1.0, 0.0, 4.0, 0.0)) is CaseId.S1R3
    assert classify(make(law, 1e-13, 0.0, 4e-13, 0.0)) is CaseId.S1R3


def _open_defect(raises, reason):
    return pytest.mark.xfail(strict=True, raises=raises, reason=f"known defect: {reason}")


# Open defects of the classical layer at the edges of its domain, one cell
# each (CHANGES.md FOUND lines).  Each XPASSes, and so fails, once its fix
# lands: an S1S3 bracket that stops below an overflowing end, ROADMAP
# item 2 (the band's absolute 1) or item 11 (absolute tolerances).  Replace
# the cell with a passing test then.
@pytest.mark.parametrize(
    "check, gamma",
    [
        pytest.param(_s1s3_root_below_an_overflowing_end, 3.6121195353619333, id="s1s3-doubling",
                     marks=_open_defect(NumericError, "the S1S3 doubling raises past the root")),
        pytest.param(_s1r3_velocities_above_the_squares, 1.4, id="squared-velocity",
                     marks=_open_defect(NumericError, "verify_standard squares velocities above 1e154 (ROADMAP item 2)")),
    ]
    + [
        pytest.param(_r1r3_at_large_density, gamma, id=f"absolute-middle-tolerance-{gamma}",
                     marks=_open_defect(AssertionError, "certificate tolerances are absolute (ROADMAP item 11)"))
        for gamma in (1.4, 2.0)
    ]
    + [
        pytest.param(_sub_unit_densities, gamma, id=f"sub-unit-band-{gamma}",
                     marks=_open_defect(AssertionError, "the classification band is absolute (ROADMAP item 2)"))
        for gamma in GAMMAS
    ],
)
def test_open_edge_defect(check, gamma):
    check(gamma)


def test_zero_density_is_a_domain_error():
    # State takes rho = 0 for the solver's vacuum; a problem does not
    with pytest.raises(DomainError, match="positive density"):
        make(LAW_SQ, 0.0, 0.0, 1.0, 0.0)


class TestRotation:
    def test_involution(self):
        p = make(LAW_SQ, 1.0, 0.3, 2.0, -0.7, v1=0.4)
        assert rotate_180(rotate_180(p)) == p

    def test_case_mapping(self):
        rng = np.random.default_rng(17)
        swaps = {CaseId.R1S3: CaseId.S1R3, CaseId.S1R3: CaseId.R1S3}
        for case in ALL_CASES:
            for _ in range(10):
                p, _ = problem_for_case(case, rng)
                rotated_case = classify(rotate_180(p))
                assert rotated_case is swaps.get(case, case)

    def test_single_wave_families_swap(self):
        shock = make(LAW_LOG, 1.0, 0.0, 4.0, -1.5)
        rare = make(LAW_SQ, 4.0, 0.0, 1.0, abs(rarefaction_integral(LAW_SQ, 4.0, 1.0)))
        for p in (shock, rare):
            fam = solve_standard(p).waves[0].family
            fam_rot = solve_standard(rotate_180(p)).waves[0].family
            assert {fam, fam_rot} == {1, 3}

    def test_constant_rotation_negates_velocities(self):
        p = make(LAW_SQ, 2.0, 0.7, 2.0, 0.7, v1=-0.2)
        q = rotate_180(p)
        assert classify(q) is CaseId.CONSTANT
        assert q.left == State(2.0, 0.2, -0.7) and q.right == q.left


class TestSolveStandard:
    def test_single_shock_speed_example(self):
        s = solve_standard(make(LAW_LOG, 1, 0, 4, -1.5))
        assert s.middle is None
        assert s.waves[0].speeds[0] == pytest.approx(-2.0, rel=1e-14)

    def test_constant_solution_is_empty(self):
        s = solve_standard(make(LAW_SQ, 2, 3, 2, 3))
        assert s.case is CaseId.CONSTANT
        assert s.middle is None and s.waves == ()

    def test_two_rarefactions_closed_form_middle(self):
        s = solve_standard(make(LAW_SQ, 1, -1, 1, 1))
        assert s.case is CaseId.R1R3
        assert s.middle.rho == pytest.approx(0.25, rel=1e-12)

    def test_vacuum_middle(self):
        s = solve_standard(make(LAW_SQ, 1, -2, 1, 2))
        assert s.case is CaseId.R1R3_VACUUM
        assert s.middle.rho == 0.0
        assert math.isnan(s.middle.v2)
        w1, w3 = s.waves
        assert w1.speeds[1] <= w3.speeds[0]

    def test_generated_middle_state_recovered(self):
        rng = np.random.default_rng(42)
        for case in TWO_WAVE_CASES:
            for _ in range(25):
                p, rho_m = problem_for_case(case, rng)
                s = solve_standard(p)
                assert s.middle.rho == pytest.approx(rho_m, rel=1e-9)

    def test_middle_density_monotonicity(self):
        rng = np.random.default_rng(43)
        for case in TWO_WAVE_CASES:
            for _ in range(25):
                p, _ = problem_for_case(case, rng)
                rho_m = solve_standard(p).middle.rho
                rl, rr = p.left.rho, p.right.rho
                if case is CaseId.R1R3:
                    assert rho_m < min(rl, rr)
                elif case is CaseId.S1S3:
                    assert rho_m > max(rl, rr)
                else:
                    assert min(rl, rr) < rho_m < max(rl, rr)

    def test_wave_speeds_nondecreasing(self):
        rng = np.random.default_rng(44)
        for case in ALL_CASES:
            for _ in range(15):
                p, _ = problem_for_case(case, rng)
                s = solve_standard(p)
                speeds = [v for w in s.waves for v in (w.leftmost, w.rightmost)]
                assert speeds == sorted(speeds), (case, speeds)

    @pytest.mark.parametrize(
        "p",
        [
            # the middle density lies below the densities whose ratio to rho-
            # is a float: the rarefaction integral raises on the way down
            make(GasLaw(7.407301696940875e-109, 1.0), 7.4056223220101e52, -9.695943015803278e20,
                 2.2499499601139898e-246, 3.274457939566829e230),
        ],
        ids=["middle-velocity"],
    )
    def test_overflowing_speed_is_a_numeric_error(self, p):
        with pytest.raises(NumericError, match="arithmetic overflow"):
            solve_standard(p)

    def test_shock_speed_beyond_the_mass_fluxes(self):
        # the 1-shock's mass flux rho*v2 overflows, but not its speed: it was
        # inf, then a NumericError
        s = solve_standard(make(GasLaw(1.0, 1.4), 1.0, 1e300, 1e100, 1e300))
        assert s.case is CaseId.S1R3
        assert s.waves[0].speeds == (1e300,)

    def test_isothermal_huge_jump_is_solved(self):
        # the middle density exp(-75) lies below the first two-rarefaction
        # bracket, which is stepped down to it
        p = make(LAW_LOG, 1.0, 0.0, 1.0, 150.0)
        s = solve_standard(p)
        assert s.middle.rho == pytest.approx(math.exp(-75.0), rel=1e-9)
        assert verify_standard(p, s).overall


class TestVerifyStandard:
    def test_generated_solutions_pass(self):
        rng = np.random.default_rng(45)
        for case in ALL_CASES:
            for _ in range(10):
                p, _ = problem_for_case(case, rng)
                s = solve_standard(p)
                c = verify_standard(p, s)
                assert c.overall, (case, c.failed())

    def test_single_shock_entropy_strictly_dissipative(self):
        p = make(LAW_LOG, 1, 0, 4, -1.5)
        c = verify_standard(p, solve_standard(p))
        assert c.entry("shock1.entropy-production").value > 0.0

    def test_constant_certificate_vacuous(self):
        p = make(LAW_SQ, 2, 3, 2, 3)
        c = verify_standard(p, solve_standard(p))
        assert c.overall

    def test_corrupted_middle_density_fails(self):
        rng = np.random.default_rng(46)
        p, _ = problem_for_case(CaseId.S1R3, rng)
        s = solve_standard(p)
        bad = s._replace(middle=s.middle._replace(rho=1.01 * s.middle.rho))
        c = verify_standard(p, bad)
        assert not c.overall
        rh_fail = [
            e
            for e in c.failed()
            if ".mass" in e.label or ".momentum" in e.label
        ]
        assert rh_fail

    def test_near_boundary_is_informational(self):
        p = make(LAW_LOG, 1.0, 0.0, 4.0, -1.5 + 1e-13)
        c = verify_standard(p, solve_standard(p))
        assert c.overall
        assert any(e.label.startswith("near-boundary") for e in c.entries)


def _reference_equation(p, case):
    """Each case's middle-state equation written out on its own."""
    law, rl, rr, dv = p.law, p.left.rho, p.right.rho, p.dv
    I, S = rarefaction_integral, shock_bracket
    return {
        CaseId.R1R3: lambda m: (I(law, m, rl) + I(law, m, rr)) - dv,
        CaseId.R1S3: lambda m: (I(law, m, rl) - S(law, m, rr)) - dv,
        CaseId.S1R3: lambda m: (I(law, m, rr) - S(law, m, rl)) - dv,
        CaseId.S1S3: lambda m: (-S(law, m, rr) - S(law, m, rl)) - dv,
    }[case]


def _reference_waves(p, case, middle):
    """(family, kind, speeds) of each wave, assembled case by case."""
    law, ul, ur = p.law, p.left, p.right
    if case is CaseId.SINGLE_R:
        lam = lambda1 if ul.rho > ur.rho else lambda3
        return [(1 if ul.rho > ur.rho else 3, "rarefaction", (lam(law, ul), lam(law, ur)))]
    if case is CaseId.SINGLE_S:
        return [(1 if ul.rho < ur.rho else 3, "shock", (pure_shock_speed(ul, ur),))]
    r1 = (1, "rarefaction", (lambda1(law, ul), lambda1(law, middle)))
    s1 = (1, "shock", (pure_shock_speed(ul, middle),))
    r3 = (3, "rarefaction", (lambda3(law, middle), lambda3(law, ur)))
    s3 = (3, "shock", (pure_shock_speed(middle, ur),))
    return {
        CaseId.R1R3: [r1, r3],
        CaseId.R1S3: [r1, s3],
        CaseId.S1R3: [s1, r3],
        CaseId.S1S3: [s1, s3],
    }[case]


@pytest.mark.parametrize("law", [LAW_LOG, GasLaw(0.7, 1.4)], ids=["gamma=1", "gamma=1.4"])
class TestWavePatternTable:
    """The shared wave-kind table reproduces the per-case formulas bit for
    bit (``==``, not ``approx``): the golden digests pin only some cases."""

    def test_middle_equation(self, law):
        rng = np.random.default_rng(47)
        for case in TWO_WAVE_CASES:
            for _ in range(10):
                p, rho_m = problem_for_case(case, rng, law=law)
                f, ref = middle_equation(p, case), _reference_equation(p, case)
                rl, rr = p.left.rho, p.right.rho
                for m in (rho_m, rl, rr, math.sqrt(rl * rr), 0.3 * min(rl, rr), 3.0 * max(rl, rr)):
                    assert f(m) == ref(m), (case, p, m)

    def test_two_wave_solution(self, law):
        rng = np.random.default_rng(48)
        I, S = rarefaction_integral, shock_bracket
        for case in TWO_WAVE_CASES:
            for _ in range(10):
                p, _ = problem_for_case(case, rng, law=law)
                s = solve_standard(p)
                rho_m, ul = s.middle.rho, p.left
                if case in (CaseId.R1R3, CaseId.R1S3):
                    vm2 = ul.v2 + I(law, rho_m, ul.rho)
                else:
                    vm2 = ul.v2 - S(law, rho_m, ul.rho)
                assert s.middle == State(rho_m, ul.v1, vm2)
                got = [(w.family, w.kind, w.speeds) for w in s.waves]
                assert got == _reference_waves(p, case, s.middle), (case, p)

    def test_single_wave_solution(self, law):
        rng = np.random.default_rng(49)
        for case in (CaseId.SINGLE_R, CaseId.SINGLE_S):
            for _ in range(10):
                p, _ = problem_for_case(case, rng, law=law)
                s = solve_standard(p)
                got = [(w.family, w.kind, w.speeds) for w in s.waves]
                assert s.middle is None
                assert got == _reference_waves(p, case, None), (case, p)


# classify's thresholds, the two fixed-density terms, the middle velocity and
# the wave speeds: the eos calls of solve_standard outside its bisection
SOLVE_OVERHEAD_EOS_CALLS = 16
# residual evaluations of one middle-density solve, its bracket included
MAX_EVALUATIONS = 20


@pytest.mark.parametrize("case", TWO_WAVE_CASES)
def test_bisection_work_per_step(monkeypatch, case):
    """Each middle-equation evaluation pays one pressure or sound speed per
    side, at the trial density; the terms at the data densities are
    computed once per equation, not once per bisection step.  The solve
    evaluates the residual at most MAX_EVALUATIONS times: it infers the
    sign of most midpoints."""
    eos_calls, evaluations = Counter(), Counter()

    def counted(name, fn):
        def wrapper(*args):
            eos_calls[name] += 1
            return fn(*args)

        return wrapper

    for module in (riemann, wavecurves):
        for name in ("pressure", "sound_speed"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    build_equation = riemann.middle_equation

    def counted_equation(p, c):
        residual = build_equation(p, c)

        def evaluate(m):
            evaluations[c] += 1
            return residual(m)

        return evaluate

    monkeypatch.setattr(riemann, "middle_equation", counted_equation)
    rng = np.random.default_rng(51)
    for law in (LAW_LOG, GasLaw(0.7, 1.4), GasLaw(2.0, 3.0)):
        for _ in range(3):
            p, _ = problem_for_case(case, rng, law=law)
            eos_calls.clear()
            evaluations.clear()
            assert solve_standard(p).case is case
            steps = evaluations[case]
            assert steps <= MAX_EVALUATIONS
            total = eos_calls["pressure"] + eos_calls["sound_speed"]
            assert total <= 2 * steps + SOLVE_OVERHEAD_EOS_CALLS, (law, dict(eos_calls), steps)
