import math
import sys
from collections import Counter

import numpy as np
import pytest

import eulerfan.wedge
from eulerfan import (
    CaseId,
    ConstructionError,
    DomainError,
    GasLaw,
    NumericError,
    RiemannProblem,
    State,
    build_s,
    build_sr,
    classify,
    fan_geometry,
    rarefaction_integral,
    rotate_180,
    search_feasible,
    shock_bracket,
    solve_standard,
    verify_construction,
    verify_full,
    verify_standard,
)
from eulerfan.certificate import Certificate, strict
from eulerfan.errors import GRID_MAX, SEARCH_SIZES
from generators import problem_for_case, random_case5, random_case6_one_shock

LAW_LOG = GasLaw(1.0, 1.0)

CASE5 = RiemannProblem(LAW_LOG, State(1, 0, 0), State(4, 0, -1))
CASE6 = RiemannProblem(LAW_LOG, State(1, 0, 0), State(4, 0, -1.5))
NO_SUBSOLUTION = RiemannProblem(LAW_LOG, State(1.0, 0.0, 0.0), State(4.0, 0.0, 1.0))


class TestBuildSR:
    def test_hand_example_regression(self):
        w = build_sr(CASE5)
        assert w.perturbation == 0.5
        assert w.u2.rho == pytest.approx(3.5950798960185324, rel=1e-12)
        assert w.u2.v2 == pytest.approx(-1.1067281459884015, rel=1e-12)
        assert w.sub.rho1 == pytest.approx(2.9163898180324868, rel=1e-12)
        assert w.sub.mu0 == pytest.approx(-1.8833188924898632, rel=1e-12)
        assert w.sub.mu1 == pytest.approx(-0.5445828225774819, rel=1e-12)
        assert w.mu2 == pytest.approx(-0.10672814598840152, rel=1e-12)
        assert w.glue_margin == pytest.approx(0.4378546765890804, rel=1e-12)

    def test_bundle_verifies(self):
        w = build_sr(CASE5)
        assert verify_full(w.problem_tilde, w.sub).overall
        assert verify_standard(w.problem_wedge, w.right_wave).overall
        cert = verify_construction(CASE5, w)
        assert cert.overall, cert.failed()

    def test_rho1_below_middle_density(self):
        w = build_sr(CASE5)
        assert w.sub.rho1 < solve_standard(CASE5).middle.rho

    def test_aux_state_on_rarefaction_curve(self):
        w = build_sr(CASE5)
        cert = verify_construction(CASE5, w)
        entry = cert.entry("aux-on-rarefaction-curve")
        assert abs(entry.value) <= entry.tolerance

    def test_rotated_case4_builds_mirrored(self):
        p4 = rotate_180(CASE5)
        assert classify(p4) is CaseId.R1S3
        w = build_sr(rotate_180(p4))
        assert w.glue_margin == pytest.approx(build_sr(CASE5).glue_margin, rel=1e-12)

    def test_two_rarefaction_input_rejected(self):
        p = RiemannProblem(GasLaw(0.5, 2.0), State(1, 0, -1), State(1, 0, 1))
        with pytest.raises(DomainError):
            build_sr(p)

    @pytest.mark.parametrize("case", [CaseId.CONSTANT, CaseId.SINGLE_R, CaseId.R1S3, CaseId.R1R3_VACUUM])
    def test_verify_against_data_without_a_shock_rarefaction_middle(self, case):
        # the certificate's reference density is the data's S1R3 middle
        # density; Constant and SingleR data have no middle state, and
        # raised a bare AttributeError
        p, _ = problem_for_case(case, np.random.default_rng(19))
        with pytest.raises(DomainError, match="1-shock/3-rarefaction"):
            verify_construction(p, build_sr(CASE5))

    def test_succeeds_where_direct_search_is_empty(self):
        assert search_feasible(NO_SUBSOLUTION) is None
        w = build_sr(NO_SUBSOLUTION)
        assert w.glue_margin > 0.0
        assert verify_construction(NO_SUBSOLUTION, w).overall

    def test_search_failure_exhausts_schedule(self, monkeypatch):
        monkeypatch.setattr(eulerfan.wedge, "search_feasible", lambda p, **kw: None)
        with pytest.raises(ConstructionError) as err:
            build_sr(CASE5, max_halvings=12)
        attempts = err.value.attempts
        assert len(attempts) == 13
        s_values = [a["s"] for a in attempts]
        assert s_values == [0.5 * 0.5**k for k in range(13)]
        assert all(a["failure"] == "no-feasible-pair" for a in attempts)

    def test_random_batch(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            p, rho_m = random_case5(rng)
            w = build_sr(p)
            assert w.glue_margin > 0.0
            assert w.sub.rho1 < solve_standard(p).middle.rho
            assert verify_construction(p, w).overall

    @pytest.mark.xfail(
        strict=True,
        raises=ConstructionError,
        reason="known defect: the schedule reaches machine scale without a feasible pair",
    )
    @pytest.mark.parametrize(
        "seed, draw, failures",
        [
            (2, 21, {"no-feasible-pair": 41}),
            (6, 294, {"no-feasible-pair": 36, "perturbed-problem-not-shock-rarefaction": 5}),
        ],
        ids=["seed2-draw21", "seed6-draw294"],
    )
    def test_known_schedule_exhaustion(self, seed, draw, failures):
        rng = np.random.default_rng(seed)
        for _ in range(draw + 1):
            p, _ = random_case5(rng)
        try:
            w = build_sr(p)
        except ConstructionError as err:
            assert Counter(a["failure"] for a in err.attempts) == failures
            raise
        assert verify_construction(p, w).overall


@pytest.mark.parametrize("build, p", [(build_sr, CASE5), (build_s, CASE6)])
class TestScheduleSizes:
    @pytest.mark.parametrize("max_halvings", [-1, -40, True, 2.0, "3"])
    def test_bad_max_halvings_rejected(self, build, p, max_halvings):
        with pytest.raises(DomainError):
            build(p, max_halvings=max_halvings)

    @pytest.mark.parametrize(
        "initial_fraction",
        [0.0, -0.5, math.inf, math.nan, True, "0.5", None, 10**400],
        ids=["0.0", "-0.5", "inf", "nan", "True", "0.5", "None", "huge-int"],
    )
    def test_bad_initial_fraction_rejected(self, build, p, initial_fraction):
        with pytest.raises(DomainError):
            build(p, initial_fraction=initial_fraction)

    def test_bad_search_sizes_rejected(self, build, p):
        with pytest.raises(DomainError):
            build(p, scan_points=0, grid=0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_bad_search_tolerance_rejected(self, build, p, tol):
        with pytest.raises(DomainError, match="tol_strict"):
            build(p, tol_strict=tol)

    @pytest.mark.parametrize(
        "options",
        [{"rho1_below": 2.0}, {"bogus": 1}, {"max_halvings": 0, "initial_fraction": 100.0, "bogus": 1}],
        ids=["bound-set-by-the-construction", "unknown", "unknown-on-a-failing-schedule"],
    )
    def test_only_search_sizes_pass_through(self, build, p, options):
        # a bare TypeError from the call, a bare TypeError from the search,
        # and a ConstructionError that ignored the unknown name
        with pytest.raises(DomainError, match="a construction passes on only"):
            build(p, **options)

    def test_attempts_use_the_strict_tolerance(self, build, p, monkeypatch):
        seen = []

        def recording(fn):
            def wrapper(*args, **kwargs):
                seen.append((fn.__name__, kwargs.get("tol_strict")))
                return fn(*args, **kwargs)

            return wrapper

        for name in ("search_feasible", "verify_full", "verify_standard"):
            monkeypatch.setattr(eulerfan.wedge, name, recording(getattr(eulerfan.wedge, name)))
        build(p, tol_strict=1e-9)
        assert seen == [("search_feasible", 1e-9), ("verify_full", 1e-9), ("verify_standard", 1e-9)]

    def test_each_right_piece_is_classified_once(self, build, p, monkeypatch):
        # solve_standard classifies the right piece (u2 to the right data);
        # the construction reads that case instead of classifying it again
        classified = []

        def recording(q):
            classified.append(q)
            return classify(q)

        monkeypatch.setattr(eulerfan.wedge, "classify", recording)
        w = build(p)
        assert classified
        assert all(q.left != w.u2 for q in classified)

    def test_zero_halvings_is_one_attempt(self, build, p, monkeypatch):
        monkeypatch.setattr(eulerfan.wedge, "search_feasible", lambda p, **kw: None)
        with pytest.raises(ConstructionError) as err:
            build(p, max_halvings=0, initial_fraction=1)
        assert [a["s"] for a in err.value.attempts] == [1]

    def test_schedule_stops_where_s_underflows(self, build, p, monkeypatch):
        # from s = 1.0 the 1075th halving gives 0.0; the 126 attempts past it
        # all repeated the same failing one
        monkeypatch.setattr(eulerfan.wedge, "search_feasible", lambda p, **kw: None)
        with pytest.raises(ConstructionError) as err:
            build(p, max_halvings=1200, initial_fraction=1.0)
        assert [a["s"] for a in err.value.attempts] == [0.5**k for k in range(1075)]


# single-shock data whose one attempt at max_halvings=0 ends before the
# search: at s = 1/2 the auxiliary shock is not weaker
LAW_AIR = GasLaw(1.0, 1.4)
NO_SEARCH = RiemannProblem(LAW_AIR, State(1.0, 0.0, 0.0), State(1.01, 0.0, -shock_bracket(LAW_AIR, 1.0, 1.01)))


@pytest.mark.parametrize(
    "sizes",
    [{"grid": 1}, {"grid": "x"}, {"grid": GRID_MAX + 1}, {"scan_points": 0}, {"scan_points": True}],
    ids=["grid-1", "grid-string", "grid-above-max", "scan-points-0", "scan-points-bool"],
)
def test_search_sizes_checked_before_any_attempt(sizes):
    # these sizes raised ConstructionError(['aux-shock-not-weaker']): only
    # a search checked them, and no attempt reached one
    with pytest.raises(ConstructionError) as err:
        build_s(NO_SEARCH, max_halvings=0)
    assert [a["failure"] for a in err.value.attempts] == ["aux-shock-not-weaker"]
    with pytest.raises(DomainError) as expected:
        search_feasible(CASE5, **sizes)
    with pytest.raises(DomainError) as got:
        build_s(NO_SEARCH, max_halvings=0, **sizes)
    assert str(got.value) == str(expected.value)


def test_search_sizes_are_the_search_keywords():
    # one table of size rules: it names every keyword of search_feasible
    # but the bound and the tolerance, which the construction sets
    assert set(SEARCH_SIZES) == set(search_feasible.__kwdefaults__) - {"rho1_below", "tol_strict"}


@pytest.mark.parametrize(
    "build, seed, draw",
    [(build_sr, 601, lambda rng: random_case5(rng)[0]), (build_s, 602, random_case6_one_shock)],
    ids=["build_sr", "build_s"],
)
def test_constructions_pass_at_their_own_tolerance(build, seed, draw):
    # the attempts were decided at the default 1e-12: at 1e-6, 14 of the
    # first 100 seed-601 constructions failed their full certificate
    rng = np.random.default_rng(seed)
    built = 0
    for _ in range(30):
        p = draw(rng)
        try:
            w = build(p, tol_strict=1e-6)
        except ConstructionError:
            continue
        built += 1
        assert verify_full(w.problem_tilde, w.sub, tol_strict=1e-6).overall
        assert verify_standard(w.problem_wedge, w.right_wave, tol_strict=1e-6).overall
    assert built >= 25


def weak_shock(build, gamma, eps):
    """Data of ``build`` with K = 1 whose 1-shock joins rho- = 1 (v- = 0) to
    1 + eps: the whole jump for build_s, and for build_sr followed by a
    rarefaction to twice that density."""
    law = GasLaw(1.0, gamma)
    rho_m = 1.0 + eps
    v_m = -shock_bracket(law, 1.0, rho_m)
    if build is build_s:
        return RiemannProblem(law, State(1.0, 0.0, 0.0), State(rho_m, 0.0, v_m))
    right = State(2.0 * rho_m, 0.0, v_m + rarefaction_integral(law, rho_m, 2.0 * rho_m))
    return RiemannProblem(law, State(1.0, 0.0, 0.0), right)


weak_shock_exhausts = pytest.mark.xfail(
    strict=True, raises=ConstructionError, reason="known defect: no feasible pair for a shock this weak"
)


# Both constructions certify down to eps = 0.03 at every gamma, and exhaust
# their schedule from eps = 0.01 down
@pytest.mark.parametrize(
    "build, gamma, eps",
    [
        pytest.param(build, gamma, eps, marks=[weak_shock_exhausts] if eps <= 1e-2 else [])
        for build in (build_sr, build_s)
        for gamma in (1.0, 1.4, 3.0)
        for eps in (1e-1, 3e-2, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    ],
)
def test_weak_shock_boundary(build, gamma, eps):
    p = weak_shock(build, gamma, eps)
    assert classify(p) is (CaseId.S1R3 if build is build_sr else CaseId.SINGLE_S)
    try:
        w = build(p)
    except ConstructionError as err:
        assert len(err.attempts) == 41
        raise
    assert verify_construction(p, w).overall
    assert verify_full(w.problem_tilde, w.sub).overall
    assert verify_standard(w.problem_wedge, w.right_wave).overall


class TestAttemptFailures:
    """The failure reasons of an attempt that passed the left piece: the
    tier-1 suite reached none of them before."""

    @staticmethod
    def failures(p, **options):
        with pytest.raises(ConstructionError) as err:
            build_sr(p, max_halvings=0, **options)
        return [a["failure"] for a in err.value.attempts]

    def test_right_problem_misclassified(self):
        # s = 1 puts u2 on the right state, so the right piece is Constant
        rng = np.random.default_rng(601)
        p = [random_case5(rng)[0] for _ in range(5)][-1]
        with pytest.raises(ConstructionError) as err:
            build_sr(p, initial_fraction=1.0, max_halvings=0)
        assert err.value.attempts == [
            {"s": 1.0, "rho2": 3.7535411706396453, "failure": "right-problem-misclassified"}
        ]

    def test_right_problem_not_a_single_3_wave(self, monkeypatch):
        def as_1_wave(p):
            s = solve_standard(p)
            return s._replace(waves=(s.waves[0]._replace(family=1),))

        monkeypatch.setattr(eulerfan.wedge, "solve_standard", as_1_wave)
        assert self.failures(CASE5) == ["right-problem-not-a-single-3-wave"]

    def test_right_wave_verification_failed(self, monkeypatch):
        failing = Certificate((strict("forced", -1.0, 1e-12),))
        monkeypatch.setattr(eulerfan.wedge, "verify_standard", lambda p, s, **tols: failing)
        assert self.failures(CASE5) == ["right-wave-verification-failed"]

    def test_nonpositive_glue_margin(self, monkeypatch):
        # the paper's gluing inequality mu1 < mu2, with mu2 moved far left
        def moved_left(p):
            s = solve_standard(p)
            return s._replace(waves=(s.waves[0]._replace(speeds=(-1e300, 0.0)),))

        monkeypatch.setattr(eulerfan.wedge, "solve_standard", moved_left)
        monkeypatch.setattr(eulerfan.wedge, "verify_standard", lambda p, s, **tols: Certificate(()))
        assert self.failures(CASE5) == ["nonpositive-glue-margin"]


class TestBuildS:
    def test_hand_example_regression(self):
        w = build_s(CASE6)
        assert w.perturbation == 0.5
        assert w.u2.rho == pytest.approx(6.0, rel=1e-12)
        assert w.u2.v2 == pytest.approx(-1.0917517095361369, rel=1e-12)
        assert w.sub.rho1 == pytest.approx(3.6206728361217024, rel=1e-12)
        assert w.mu2 == pytest.approx(-0.2752551286084106, rel=1e-12)
        assert w.glue_margin == pytest.approx(0.14807934645869036, rel=1e-12)

    def test_bundle_verifies(self):
        w = build_s(CASE6)
        assert verify_full(w.problem_tilde, w.sub).overall
        assert verify_standard(w.problem_wedge, w.right_wave).overall
        cert = verify_construction(CASE6, w)
        assert cert.overall, cert.failed()
        assert w.sub.rho1 < CASE6.right.rho

    def test_mu2_is_mass_jump_speed(self):
        from eulerfan import pure_shock_speed

        w = build_s(CASE6)
        assert w.mu2 == pure_shock_speed(w.u2, CASE6.right)

    def test_side_condition_forces_shrink(self):
        # nearly equal densities: the rarefaction cap is tiny, so the first
        # attempts violate the weaker-shock side condition and s must shrink
        law = GasLaw(1.0, 1.4)
        rl, rr = 3.9, 4.0
        p = RiemannProblem(
            law, State(rl, 0, 0), State(rr, 0, -shock_bracket(law, rl, rr))
        )
        w = build_s(p)
        assert w.perturbation < 0.5
        cert = verify_construction(p, w)
        assert cert.entry("aux-shock-weaker-than-rarefaction").passed

    def test_three_shock_input_rejected(self):
        p = rotate_180(CASE6)
        assert classify(p) is CaseId.SINGLE_S
        with pytest.raises(DomainError):
            build_s(p)
        w = build_s(rotate_180(p))
        assert w.glue_margin > 0.0

    def test_two_shock_input_rejected(self):
        p = RiemannProblem(LAW_LOG, State(1, 0, 0), State(4, 0, -2.5))
        assert classify(p) is CaseId.S1S3
        with pytest.raises(DomainError):
            build_s(p)

    def test_random_batch(self):
        rng = np.random.default_rng(78)
        for _ in range(25):
            p = random_case6_one_shock(rng)
            w = build_s(p)
            assert w.glue_margin > 0.0
            assert verify_construction(p, w).overall


class TestFanGeometry:
    def test_shock_branch_regions(self):
        w = build_s(CASE6)
        regions = fan_geometry(w, 1.0)
        assert [r[0] for r in regions] == ["left", "wedge", "aux", "shock-3", "right"]
        breakpoints = [regions[0][2], regions[1][2], regions[2][2]]
        assert breakpoints == sorted(breakpoints)
        assert breakpoints[0] < breakpoints[1] < breakpoints[2]
        assert regions[3][1] == regions[3][2] == w.mu2

    def test_rarefaction_branch_regions(self):
        w = build_sr(CASE5)
        regions = fan_geometry(w, 1.0)
        assert [r[0] for r in regions] == ["left", "wedge", "aux", "fan-3", "right"]
        interior = [regions[0][2], regions[1][2], regions[2][2], regions[3][2]]
        assert all(a < b for a, b in zip(interior, interior[1:]))

    def test_self_similarity(self):
        w = build_s(CASE6)
        one = fan_geometry(w, 1.0)
        two = fan_geometry(w, 2.0)
        for (_, lo1, hi1), (_, lo2, hi2) in zip(one, two):
            if math.isfinite(lo1):
                assert lo2 == pytest.approx(2.0 * lo1, rel=1e-15)
            if math.isfinite(hi1):
                assert hi2 == pytest.approx(2.0 * hi1, rel=1e-15)

    def test_time_collapses_to_origin(self):
        w = build_s(CASE6)
        tiny = fan_geometry(w, 1e-12)
        for _, lo, hi in tiny[1:-1]:
            assert abs(lo) < 1e-10 and abs(hi) < 1e-10

    def test_nonpositive_time_rejected(self):
        w = build_s(CASE6)
        with pytest.raises(DomainError):
            fan_geometry(w, 0.0)

    @pytest.mark.parametrize(
        "t", [math.inf, -math.inf, math.nan, True, False, 10**400, "1.0", None],
        ids=["inf", "-inf", "nan", "True", "False", "huge-int", "string", "None"],
    )
    def test_non_finite_or_non_numeric_time_rejected(self, t):
        # fan_geometry(w, inf) gave breakpoints -inf, -inf, inf, ...; True
        # passed as t = 1
        with pytest.raises(DomainError):
            fan_geometry(build_s(CASE6), t)

    def test_integer_time_accepted(self):
        w = build_s(CASE6)
        assert fan_geometry(w, 2) == fan_geometry(w, 2.0)

    def test_overflowing_breakpoints_are_a_numeric_error(self):
        # mu0 is about -2.1, so mu0 * t overflows for the largest float
        w = build_s(CASE6)
        assert abs(w.sub.mu0) > 1.0
        with pytest.raises(NumericError):
            fan_geometry(w, sys.float_info.max)
