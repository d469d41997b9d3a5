import copy
import functools
import inspect
import math
import sys
from collections import Counter
from itertools import chain

import numpy as np
import pytest

from eulerfan import (
    CriterionError,
    DomainError,
    FanSubsolution,
    GasLaw,
    InvariantError,
    NumericError,
    RiemannProblem,
    State,
    check_reduced,
    discriminant,
    extract_deltas,
    internal_energy,
    lift_to_full,
    pressure,
    rarefaction_integral,
    reduced_from,
    reduced_residuals,
    rotate_180,
    search_feasible,
    shock_bracket,
    solve_standard,
    v12_star,
    verify_full,
)
from eulerfan import subsolution, wedge
from eulerfan.certificate import scale_of
from eulerfan.cli import certificate_from_json, certificate_to_json
from eulerfan.errors import GRID_MAX, squared
from eulerfan.riemann import STRICT_TOL
from eulerfan.subsolution import (
    DELTA2_CAP,
    SEARCH_DELTA_FLOOR,
    _delta2_grid,
    _guided_candidates,
    _ProblemTerms,
    _ReducedRows,
    _scan,
    _stage,
)
import batches
from batches import kept
from generators import GAMMAS, random_case5, random_case6_one_shock

LAW_LOG = GasLaw(1.0, 1.0)

CASE5 = RiemannProblem(LAW_LOG, State(1, 0, 0), State(4, 0, -1))
CASE6 = RiemannProblem(LAW_LOG, State(1, 0, 0), State(4, 0, -1.5))

# weak-shock data admitting no fan subsolution found by the search; the
# auxiliary-state route still succeeds on it (see test_wedge)
NO_SUBSOLUTION = RiemannProblem(LAW_LOG, State(1.0, 0.0, 0.0), State(4.0, 0.0, 1.0))


class TestDiscriminant:
    def test_hand_value(self):
        assert discriminant(CASE5) == pytest.approx(5.0, rel=1e-15)

    def test_identical_states(self):
        p = RiemannProblem(LAW_LOG, State(2, 0, 1), State(2, 0, 1))
        assert discriminant(p) == 0.0

    def test_single_shock_data_sits_on_zero(self):
        assert discriminant(CASE6) == pytest.approx(0.0, abs=1e-13)


class TestClosedForms:
    def test_fan_speeds_hand_values(self):
        r = reduced_from(CASE5, 2.0, 1.0)
        mu0, mu1 = r.mu0, r.mu1
        assert mu0 == pytest.approx(-4.0 / 3.0 - math.sqrt(10.0) / 3.0, rel=1e-14)
        assert mu1 == pytest.approx(-4.0 / 3.0 + math.sqrt(2.5) / 3.0, rel=1e-14)
        assert mu0 < mu1

    def test_fan_speed_divergence_at_window_edges(self):
        near_left = 1.0 + 1e-10
        near_right = 4.0 - 1e-10
        left = reduced_from(CASE5, near_left, 1.0)
        right = reduced_from(CASE5, near_right, 1.0)
        mu0_l, mu1_l = left.mu0, left.mu1
        mu0_r, mu1_r = right.mu0, right.mu1
        assert mu0_l < -1e4 and abs(mu1_l) < 10.0
        assert mu1_r > 1e4 and abs(mu0_r) < 10.0

    def test_window_required(self):
        for rho1 in (1.0, 4.0, 0.5, 5.0):
            with pytest.raises(DomainError):
                reduced_from(CASE5, rho1, 1.0)

    def test_negative_discriminant_rejected(self):
        p = RiemannProblem(LAW_LOG, State(1, 0, 0), State(4, 0, -3.0))
        with pytest.raises(CriterionError):
            reduced_from(p, 2.0, 1.0)

    def test_small_scale_negative_discriminant_rejected(self):
        # the example above shrunk (densities by 1e-3, K by 1e-8, velocities
        # by 1e-4): the discriminant -2.7e-13 is below STRICT_TOL in absolute
        # terms but far outside the rounding of its terms
        p = RiemannProblem(GasLaw(1e-8, 1.0), State(1e-3, 0, 0), State(4e-3, 0, -3e-4))
        assert discriminant(p) == pytest.approx(-2.7e-13, rel=1e-12)
        with pytest.raises(CriterionError):
            v12_star(p, 2e-3)
        with pytest.raises(CriterionError):
            reduced_from(p, 2e-3, 1e-3)

    def test_single_shock_boundary_clamps_to_shock_speed(self):
        # on the single-shock locus the discriminant is a roundoff-size
        # number and both fan speeds collapse onto the shock speed
        r = reduced_from(CASE6, 2.0, 1.0)
        mu0, mu1 = r.mu0, r.mu1
        sigma = solve_standard(CASE6).waves[0].speeds[0]
        assert mu0 == pytest.approx(sigma, abs=1e-9)
        assert mu1 == pytest.approx(sigma, abs=1e-9)
        assert mu0 <= mu1

    def test_v12_hand_value_and_mass_identity(self):
        v12 = v12_star(CASE5, 2.0)
        assert v12 == pytest.approx(-(4.0 + math.sqrt(10.0)) / 6.0, rel=1e-14)
        mu0 = reduced_from(CASE5, 2.0, 1.0).mu0
        assert mu0 * (1.0 - 2.0) == pytest.approx(0.0 - 2.0 * v12, rel=1e-13)

    def test_delta1_hand_value(self):
        d1 = reduced_from(CASE5, 2.0, 1.0).delta1
        assert d1 == pytest.approx(-0.5 + (4.0 + math.sqrt(10.0)) ** 2 / 36.0, rel=1e-13)

    def test_delta1_left_edge_limit(self):
        # -> D / (rho- (rho+ - rho-)) = 5/3 for the hand example
        d1 = reduced_from(CASE5, 1.0 + 1e-9, 1.0).delta1
        assert d1 == pytest.approx(5.0 / 3.0, rel=1e-4)

    def test_delta1_positive_between_shock_endpoints(self):
        # data whose two states are joined by a single 1-shock: the wedge
        # stress excess is positive throughout the open interval (convexity)
        rng = np.random.default_rng(3)
        for _ in range(50):
            law = GasLaw(10.0 ** rng.uniform(-1, 1), rng.choice([1.0, 1.4, 2.0, 3.0]))
            rl = 10.0 ** rng.uniform(-1, 1)
            rm = rl * 10.0 ** rng.uniform(0.1, 1.0)
            vl2 = rng.uniform(-2, 2)
            p = RiemannProblem(
                law,
                State(rl, 0.0, vl2),
                State(rm, 0.0, vl2 - shock_bracket(law, rl, rm)),
            )
            for t in (0.1, 0.5, 0.9):
                rho1 = rl + t * (rm - rl)
                assert reduced_from(p, rho1, 1.0).delta1 > 0.0

    def test_reduced_residuals_vanish(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p, _ = random_case5(rng)
            t = rng.uniform(1e-3, 1 - 1e-3)
            rho1 = p.left.rho + t * (p.right.rho - p.left.rho)
            r = reduced_from(p, rho1, 1.0)
            assert r.mu0 < r.mu1
            for label, lhs, rhs in reduced_residuals(p, r):
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs)), label


def closed_forms(t, rho1):
    """(p1, e1, v12, d1) at rho1: the scan's first draw, as the single-point
    callers take it."""
    return next(_scan(t, (rho1,)))


def scan_window(t, rho1, tol):
    """The delta2 window (lo, hi) that the search's scan gives rho1, or None
    where it yields nothing."""
    return next((window for _, window, _ in _scan(t, (rho1,), tol)), None)


@functools.lru_cache
def scan_line(statement):
    """The number of the line of _scan that holds ``statement``."""
    lines, first = inspect.getsourcelines(_scan)
    return first + [line.strip() for line in lines].index(statement)


def scan_setting(t, rho1, tol, settings):
    """scan_window, with the scan's locals set each time it reaches a line
    of ``settings``, as a debugger sets variables at a breakpoint:
    ``settings`` maps a statement of _scan to the values that a trace
    function sets when that line is reached.  The scan's own code runs
    throughout, on the values set from that line on; this drives its bound
    with coefficients that its own arithmetic and row check would never
    hand it.  Raises AssertionError when no line is ever reached."""
    targets = {scan_line(statement): values for statement, values in settings.items()}
    reached = []

    def on_line(frame, event, arg):
        if event == "line" and frame.f_lineno in targets:
            reached.append(frame.f_lineno)
            frame.f_locals.update(targets[frame.f_lineno])
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code is _scan.__code__ else None

    saved = sys.gettrace()
    sys.settrace(on_call)
    try:
        window = scan_window(t, rho1, tol)
    finally:
        sys.settrace(saved)
    assert reached, settings
    return window


def old_v12(p, d, rho1):
    """v12 as written before the one-frame closed forms: the bit-parity
    reference."""
    rl, vl2, rr, vr2 = p.left.rho, p.left.v2, p.right.rho, p.right.v2
    root = math.sqrt(d * (rho1 - rl) * (rr - rho1))
    return (-rl * vl2 * (rr - rho1) - rr * vr2 * (rho1 - rl) + root) / (rho1 * (rl - rr))


def old_delta1(p, d, rho1):
    """delta1 as written before the one-frame closed forms, with eos's
    pressures."""
    rl, vl2, rr, vr2 = p.left.rho, p.left.v2, p.right.rho, p.right.v2
    term = rr * (vl2 - vr2) + math.sqrt(d * (rr - rho1) / (rho1 - rl))
    p1, pl = pressure(p.law, rho1), pressure(p.law, rl)
    return -(p1 - pl) / rho1 + rl * (rho1 - rl) / (rho1**2 * (rl - rr) ** 2) * term**2


# the generators' gammas, and gamma just inside and just outside the band
# that selects eos's logarithmic energy
KERNEL_GAMMAS = GAMMAS + (1.0 + 1e-13, 1.0 + 2e-12)


class TestClosedFormBits:
    """The scan computes p and eps inline and v12 and delta1 in one frame:
    every value keeps the bits of eos and of the former formulas."""

    @pytest.mark.parametrize("seed, gamma", list(enumerate(KERNEL_GAMMAS)))
    def test_same_bits_as_eos_and_the_former_formulas(self, seed, gamma):
        rng = np.random.default_rng(700 + seed)
        checked = 0
        for _ in range(40):
            law = GasLaw(float(10.0 ** rng.uniform(-1, 1)), gamma)
            p, _ = random_case5(rng, law=law)
            t = _ProblemTerms(p)
            if t.clamped is None:
                continue
            rl, rr = p.left.rho, p.right.rho
            fractions = [float(u) for u in rng.uniform(0.0, 1.0, 8)] + [1e-12, 0.5, 1.0 - 1e-12]
            for rho1 in [rl + u * (rr - rl) for u in fractions] + [math.nextafter(rl, rr)]:
                p1, e1, v12, d1 = closed_forms(t, rho1)
                assert p1.hex() == pressure(law, rho1).hex(), rho1
                assert e1.hex() == internal_energy(law, rho1).hex(), rho1
                assert repr(v12) == repr(old_v12(p, t.clamped, rho1)), rho1
                assert repr(d1) == repr(old_delta1(p, t.clamped, rho1)), rho1
                checked += 1
        assert checked > 200

    @pytest.mark.parametrize(
        "law, rho1, eos",
        [
            (GasLaw(1.0, 3.0), 1e200, pressure),  # rho1**3 raises OverflowError
            (GasLaw(1e300, 1.4), 1e10, pressure),  # K * rho1**1.4 is inf
            (GasLaw(1e306, 1.0), 1e-300, internal_energy),  # K * log(rho1) is -inf
        ],
        ids=["power", "product", "log-energy"],
    )
    def test_overflow_raises_the_eos_error(self, law, rho1, eos):
        # rho1 lies outside the window here, so the overflow is reached
        # directly: the scan hands it to eos, which raises its own error
        t = _ProblemTerms(RiemannProblem(law, State(1.0, 0.0, 0.0), State(2.0, 0.0, 0.0)))
        with pytest.raises(NumericError) as expected:
            eos(law, rho1)
        with pytest.raises(NumericError) as got:
            closed_forms(t, rho1)
        assert str(got.value) == str(expected.value)


class TestCheckReduced:
    def test_feasible_point_passes(self):
        rho1, delta2 = search_feasible(CASE5)
        cert = check_reduced(CASE5, rho1, delta2)
        assert cert.overall

    def test_enormous_delta2_fails_entropy(self):
        rho1, _ = search_feasible(CASE5)
        cert = check_reduced(CASE5, rho1, 1e12)
        failed = {e.label for e in cert.failed()}
        assert failed & {"entropy-left", "entropy-right"}

    def test_boundary_rho1_fails_with_zero_margin(self):
        cert = check_reduced(CASE5, CASE5.left.rho, 1.0)
        entry = cert.entry("rho1-above-left")
        assert entry.value == 0.0 and not entry.passed
        assert not cert.overall

    def test_nonpositive_delta2_fails(self):
        rho1, _ = search_feasible(CASE5)
        assert not check_reduced(CASE5, rho1, 0.0).overall

    def test_wrong_density_order_rejected(self):
        with pytest.raises(DomainError):
            check_reduced(RiemannProblem(LAW_LOG, State(4, 0, 0), State(1, 0, 0.1)), 2.0, 1.0)


NOT_FINITE = ["x", None, True, math.nan, math.inf, -math.inf, 10**400]
NOT_FINITE_IDS = ["string", "None", "bool", "nan", "inf", "-inf", "huge-int"]


class TestFiniteArguments:
    """The single-point closed forms take rho1 and delta2 as finite
    numbers: anything else is a DomainError, and an int is its float."""

    @pytest.mark.parametrize("value", NOT_FINITE, ids=NOT_FINITE_IDS)
    def test_rho1_rejected(self, value):
        # a string was a bare TypeError
        for call in (
            lambda: check_reduced(CASE5, value, 1.0),
            lambda: reduced_from(CASE5, value, 1.0),
            lambda: v12_star(CASE5, value),
        ):
            with pytest.raises(DomainError, match="^rho1 must be a finite number"):
                call()

    @pytest.mark.parametrize("value", NOT_FINITE, ids=NOT_FINITE_IDS)
    def test_delta2_rejected(self, value):
        # reduced_from kept a string, check_reduced certified a NaN that
        # certificate_to_json then refused
        for call in (lambda: check_reduced(CASE5, 2.0, value), lambda: reduced_from(CASE5, 2.0, value)):
            with pytest.raises(DomainError, match="^delta2 must be a finite number"):
                call()

    def test_rho1_outside_the_window_keeps_its_outcome(self):
        assert not check_reduced(CASE5, 5.0, 1.0).overall
        with pytest.raises(DomainError, match="strictly between"):
            reduced_from(CASE5, 5.0, 1.0)
        with pytest.raises(DomainError, match="strictly between"):
            v12_star(CASE5, 5.0)

    @pytest.mark.parametrize("rho1, delta2", [(2.0, 1), (2, 1.0), (2, 1)])
    def test_ints_are_their_floats(self, rho1, delta2):
        # CASE5's densities are ints: an int rho1 gave int window margins,
        # and an int delta2 an int value, which certificate_from_json refused
        c = check_reduced(CASE5, rho1, delta2)
        assert c == check_reduced(CASE5, 2.0, 1.0)
        assert all(type(e.value) is float for e in c.entries)
        assert certificate_from_json(certificate_to_json(c)) == c
        r = reduced_from(CASE5, rho1, delta2)
        assert r == reduced_from(CASE5, 2.0, 1.0)
        assert type(r.rho1) is float and type(r.delta2) is float
        assert v12_star(CASE5, rho1) == v12_star(CASE5, 2.0)


class TestSearch:
    def test_deterministic(self):
        assert search_feasible(CASE5) == search_feasible(CASE5)

    def test_found_pair_is_strict(self):
        rho1, delta2 = search_feasible(CASE5)
        cert = check_reduced(CASE5, rho1, delta2)
        for e in cert.entries:
            assert e.value > e.tolerance

    def test_documented_empty_instance(self):
        assert search_feasible(NO_SUBSOLUTION) is None

    def test_wrong_density_order_rejected(self):
        # CASE5 turned half a turn has the same positive discriminant, but
        # rho- > rho+ leaves no density window: None would claim a certified
        # empty search where the unrotated problem has a pair
        p = rotate_180(CASE5)
        assert p.left.rho > p.right.rho and discriminant(p) == discriminant(CASE5) == 5.0
        assert search_feasible(CASE5) is not None
        with pytest.raises(DomainError, match="rho- < rho\\+"):
            search_feasible(p)

    def test_negative_discriminant_rejected(self):
        p = RiemannProblem(LAW_LOG, State(1, 0, 0), State(4, 0, -3.0))
        with pytest.raises(CriterionError):
            search_feasible(p)

    @pytest.mark.parametrize(
        "sizes",
        [
            {"scan_points": 0, "grid": 0},
            {"scan_points": 0},
            {"scan_points": -1},
            {"grid": 1},
            {"grid": -5},
            {"scan_points": True},
            {"grid": 64.0},
            {"scan_points": "8"},
        ],
    )
    def test_bad_sizes_rejected(self, sizes):
        # a search over nothing would return None, the certified-empty result
        with pytest.raises(DomainError):
            search_feasible(CASE5, **sizes)

    def test_grid_bound(self):
        # the largest grid is a size like any other; one more is refused
        # before the grid is built: at 1e9 points it would not fit in memory
        assert search_feasible(CASE5, grid=GRID_MAX) == search_feasible(CASE5)
        for grid in (GRID_MAX + 1, 10**9):
            with pytest.raises(DomainError, match=f"grid must be <= {GRID_MAX}"):
                search_feasible(CASE5, grid=grid)

    @pytest.mark.parametrize(
        "tol",
        [math.nan, math.inf, -math.inf, -1.0, 0.0, True, "1e-12", None, 10**400],
        ids=["nan", "inf", "-inf", "-1.0", "0.0", "True", "string", "None", "huge-int"],
    )
    def test_bad_tolerance_rejected(self, tol):
        # criterion 4's first feasible draw: no point passes at such a
        # tolerance, and None would claim a certified empty search
        rng = np.random.default_rng(104)
        p = [random_case5(rng, profile="tight")[0] for _ in range(6)][-1]
        assert search_feasible(p) == (2.570407877021694, 0.008982821812237777)
        with pytest.raises(DomainError, match="tol_strict"):
            search_feasible(p, tol_strict=tol)

    def test_single_shock_draws_get_one_outcome(self):
        # the discriminant of single-shock data is zero up to rounding; its
        # sign still splits the draws, but no longer the outcome
        rng = np.random.default_rng(0)
        positive = 0
        for _ in range(300):
            p = random_case6_one_shock(rng)
            positive += discriminant(p) > 0.0
            with pytest.raises(CriterionError, match="positive discriminant"):
                search_feasible(p)
        assert 0 < positive < 300

    def test_small_genuine_discriminant_is_searched(self):
        # CASE5 shrunk: densities by 1e-3, K by 1e-8 and the velocities by
        # 1e-4 scale the discriminant to 5e-14, below STRICT_TOL in absolute
        # terms yet far above the rounding of its terms
        p = RiemannProblem(GasLaw(1e-8, 1.0), State(1e-3, 0, 0), State(4e-3, 0, -1e-4))
        assert 0.0 < discriminant(p) < STRICT_TOL
        assert discriminant(p) == pytest.approx(5e-14, rel=1e-12)
        assert search_feasible(p) == reference_search(p)

    def test_smallest_sizes_accepted(self):
        # the CLI's limits: one guided candidate and a two-point grid
        assert search_feasible(CASE5, scan_points=1, grid=2) == reference_search(
            CASE5, scan_points=1, grid=2
        )


def full_guided_list(p, scan_points):
    """The guided candidates as one list of ``scan_points`` floats, every
    one computed: the walk as it was before it stopped at underflow."""
    rho_m = solve_standard(p).middle.rho
    jump = shock_bracket(p.law, p.left.rho, rho_m)
    gap = rho_m - p.left.rho
    if p.left.v2 > rho_m * jump / (2.0 * gap):
        return [p.left.rho + gap * 0.5**k for k in range(1, scan_points + 1)]
    return [rho_m - gap * 0.5**k for k in range(1, scan_points + 1)]


def without_repeats(values):
    """``values`` with each run of equal neighbours cut to its first."""
    return [v for i, v in enumerate(values) if i == 0 or v != values[i - 1]]


class TestGuidedCandidates:
    def test_walk_stops_where_the_step_underflows(self):
        # random_case5 seed 2 draw 21: a size of 10**6 built a list of 10**6
        # floats, all but the first 1075 or so repeats of an end density
        rng = np.random.default_rng(2)
        for _ in range(22):
            p, _ = random_case5(rng)
        walked = list(_guided_candidates(p, 10**6))
        assert len(walked) <= 1075
        assert walked[-1] in (p.left.rho, solve_standard(p).middle.rho)

    @pytest.mark.parametrize("scan_points", [1, 64, 1074, 1075, 1076, 3000])
    def test_same_walk_as_the_full_list(self, scan_points):
        # the search skips a candidate equal to the one before it, so only
        # the walk without repeats decides its answer
        rng = np.random.default_rng(606)
        for i in range(40):
            p, _ = random_case5(rng, profile=("wide", "tight")[i % 2])
            walked = list(_guided_candidates(p, scan_points))
            assert len(walked) <= min(scan_points, 1075)
            assert without_repeats(walked) == without_repeats(full_guided_list(p, scan_points))


class TestNumericFailure:
    def test_pressure_overflow(self):
        p = RiemannProblem(GasLaw(1.0, 3.0), State(1e200, 0, 0), State(4e200, 0, -1.5))
        with pytest.raises(NumericError):
            search_feasible(p)

    def test_overflowing_margins_are_not_a_certified_miss(self):
        # p(4) = 4**500 is about 1e301: the data are finite, the entropy
        # margins are not, so the search must not report "nothing found"
        p = RiemannProblem(GasLaw(1.0, 500.0), State(1, 0, 0), State(4, 0, -1.5))
        with pytest.raises(NumericError, match="overflow at rho1="):
            scan_window(_ProblemTerms(p), 1.5, STRICT_TOL)
        with pytest.raises(NumericError):
            search_feasible(p)

    @pytest.mark.parametrize(
        "v12, d1", [(math.inf, -1.0), (math.nan, -1.0), (-1.0, -math.inf), (-1.0, math.nan)]
    )
    def test_overflowing_terms_below_the_floor(self, v12, d1):
        # an inf or NaN v12 or delta1 makes the left row's terms inf or NaN,
        # so the scan raises even where delta1 alone would refuse rho1; they
        # are set right after the closed forms, at the left row's first line
        values = {"v12": v12, "d1": d1}
        with pytest.raises(NumericError, match="overflow at rho1="):
            scan_setting(_ProblemTerms(CASE5), 2.0, STRICT_TOL, {"dv_l = v12 - vl2": values})

    def test_density_ratio_overflow(self):
        # rho+/rho- is inf: the first grid rho1 was inf, so the grid stage
        # returned a certified empty result without evaluating a point
        law = GasLaw(1e-200, 1.4)

        def problem(rl, rr):
            v2 = 1.5 * rarefaction_integral(law, rl, rr)
            return RiemannProblem(law, State(rl, 0, 0), State(rr, 0, v2))

        with pytest.raises(NumericError, match="arithmetic overflow: the density ratio"):
            search_feasible(problem(1e-150, 1e159))
        # the neighbouring data have a finite ratio and fail at a grid point
        with pytest.raises(NumericError, match="arithmetic overflow: delta1"):
            search_feasible(problem(1e-149, 1e158))

    def test_velocity_jump_overflow(self):
        # (vl2 - vr2)**2 = 1e320 in the discriminant; an int square does not
        # overflow, and raised a bare OverflowError where it met a float
        for v2 in (1e160, 10**160):
            p = RiemannProblem(GasLaw(1.0, 1.4), State(1, 0, 0), State(4, 0, v2))
            with pytest.raises(NumericError, match="arithmetic overflow"):
                discriminant(p)
            with pytest.raises(NumericError, match="arithmetic overflow"):
                search_feasible(p)

    def test_delta1_overflow(self):
        # for gamma = 1 the densities are fine, but delta1 squares rho1
        p = RiemannProblem(GasLaw(1e-20, 1.0), State(1e150, 0, 0), State(1e158, 0, -1e-10))
        with pytest.raises(NumericError, match="arithmetic overflow: delta1"):
            reduced_from(p, 1e156, 1.0)

    def test_discriminant_overflow(self):
        # both discriminant terms overflow to inf, and inf - inf is NaN:
        # discriminant and v12_star returned it, reduced_from went on to delta1
        p = RiemannProblem(LAW_LOG, State(1e200, 0, 0), State(4e200, 0, -1e-3))
        for call in (
            lambda: discriminant(p),
            lambda: v12_star(p, 2e200),
            lambda: reduced_from(p, 2e200, 1.0),
            lambda: search_feasible(p),
        ):
            with pytest.raises(NumericError, match="arithmetic overflow: the discriminant"):
                call()

    def test_closed_form_overflow(self):
        # S1R3 data with a finite discriminant of 1e300: v12 is -inf, mu0 and
        # mu1 infinite and delta1 NaN, all returned without an error
        p = RiemannProblem(LAW_LOG, State(1, 0, 0), State(1e150, 0, -1))
        assert discriminant(p) == pytest.approx(1e300)
        with pytest.raises(NumericError, match="arithmetic overflow: v12 at rho1="):
            v12_star(p, 1e149)
        with pytest.raises(NumericError, match="arithmetic overflow: the closed forms at rho1="):
            reduced_from(p, 1e149, 1.0)
        with pytest.raises(NumericError):
            check_reduced(p, 1e149, 1.0)

    def test_closed_form_divisor_underflow(self):
        # rho1*(rl - rr) is 2e-200 * -3e-200: it underflows to -0.0 in v12
        p = RiemannProblem(LAW_LOG, State(1e-200, 0, 0), State(4e-200, 0, 0))
        with pytest.raises(NumericError, match="arithmetic underflow"):
            reduced_from(p, 2e-200, 1.0)
        with pytest.raises(NumericError, match="arithmetic underflow"):
            check_reduced(p, 2e-200, 1.0)
        # rho1**2*(rl - rr)**2 underflows in delta1
        p = RiemannProblem(GasLaw(1e300, 1.4), State(1e-160, 0, 0), State(4e-160, 0, 0))
        with pytest.raises(NumericError, match="arithmetic underflow"):
            search_feasible(p)

    def test_tangential_velocity_overflow(self):
        # the search never sees v1; the lift and both verifiers square it
        p = RiemannProblem(LAW_LOG, State(1, 1e160, 0), State(4, 1e160, -1))
        r = reduced_from(p, *search_feasible(p))
        with pytest.raises(NumericError, match="arithmetic overflow"):
            lift_to_full(p, r)
        f = lift_to_full(CASE5, reduced_from(CASE5, *search_feasible(CASE5)))
        with pytest.raises(NumericError, match="arithmetic overflow"):
            verify_full(p, f)
        with pytest.raises(NumericError, match="arithmetic overflow"):
            extract_deltas(f._replace(v11=1e160))

    def test_checked_square(self):
        # one rule for every velocity square: x**2 with its bits and type,
        # or NumericError
        for x in (3.0, -1.3e154, 7, 0.1):
            assert squared(x) == x**2 and type(squared(x)) is type(x**2)
        for x in (1e155, -1e155):
            with pytest.raises(NumericError, match="arithmetic overflow: a squared velocity"):
                squared(x)

    def test_wedge_velocity_overflow(self):
        r = reduced_from(CASE5, *search_feasible(CASE5))._replace(v12=1e160)
        with pytest.raises(NumericError, match="arithmetic overflow"):
            reduced_residuals(CASE5, r)
        f = lift_to_full(CASE5, reduced_from(CASE5, *search_feasible(CASE5)))
        with pytest.raises(NumericError, match="arithmetic overflow"):
            verify_full(CASE5, f._replace(v12=1e160))


class TestLiftAndVerify:
    def _feasible_setup(self, seed=9):
        rng = np.random.default_rng(seed)
        while True:
            p, _ = random_case5(rng, profile="tight")
            found = search_feasible(p)
            if found is not None:
                return p, found

    def test_round_trip(self):
        p, (rho1, delta2) = self._feasible_setup()
        r = reduced_from(p, rho1, delta2)
        full = lift_to_full(p, r)
        cert = verify_full(p, full)
        assert cert.overall, cert.failed()
        d1, d2 = extract_deltas(full)
        assert d1 == pytest.approx(r.delta1, abs=1e-12)
        assert d2 == pytest.approx(r.delta2, abs=1e-12)

    def test_definiteness_product_equals_delta_product(self):
        p, (rho1, delta2) = self._feasible_setup()
        r = reduced_from(p, rho1, delta2)
        full = lift_to_full(p, r)
        half_c = 0.5 * full.c1
        product = (half_c - full.v11**2 + full.u11) * (
            half_c - full.v12**2 - full.u11
        ) - (full.u12 - full.v11 * full.v12) ** 2
        assert product == pytest.approx(r.delta1 * r.delta2, rel=1e-12)

    def test_symmetric_deltas_square(self):
        p, (rho1, _) = self._feasible_setup()
        d1 = reduced_from(p, rho1, 1.0).delta1
        r = reduced_from(p, rho1, d1)  # delta2 == delta1
        full = lift_to_full(p, r)
        half_c = 0.5 * full.c1
        product = (half_c - full.v11**2 + full.u11) * (
            half_c - full.v12**2 - full.u11
        ) - (full.u12 - full.v11 * full.v12) ** 2
        assert product == pytest.approx(d1**2, rel=1e-12)

    def test_zero_tangential_velocity_zeroes_u12(self):
        r = reduced_from(CASE5, *search_feasible(CASE5))
        full = lift_to_full(CASE5, r)
        assert CASE5.left.v1 == 0.0 and full.u12 == 0.0

    def test_kinetic_margin_is_delta_sum(self):
        p, (rho1, delta2) = self._feasible_setup()
        r = reduced_from(p, rho1, delta2)
        full = lift_to_full(p, r)
        assert full.c1 - full.v11**2 - full.v12**2 == pytest.approx(
            r.delta1 + r.delta2, rel=1e-12
        )

    def test_nonpositive_deltas_rejected(self):
        r = reduced_from(CASE5, *search_feasible(CASE5))
        bad = r._replace(delta1=-r.delta1)
        with pytest.raises(InvariantError):
            lift_to_full(CASE5, bad)

    def test_corrupt_kinetic_bound_fails_overall(self):
        # shaving delta2 off C1 leaves the definiteness product at
        # (delta2/2)(delta1 - delta2/2), so the guaranteed failures are the
        # normal-momentum balances that carry rho1 * C1 / 2
        p, (rho1, delta2) = self._feasible_setup()
        r = reduced_from(p, rho1, delta2)
        full = lift_to_full(p, r)
        corrupted = full._replace(c1=full.c1 - r.delta2)
        cert = verify_full(p, corrupted)
        assert not cert.overall
        assert not cert.entry("momentum-normal-left").passed

    def test_corrupt_kinetic_bound_twice_fails_definiteness(self):
        # removing 2*delta2 zeroes the first definiteness factor exactly
        p, (rho1, delta2) = self._feasible_setup()
        r = reduced_from(p, rho1, delta2)
        full = lift_to_full(p, r)
        corrupted = full._replace(c1=full.c1 - 2.0 * r.delta2)
        cert = verify_full(p, corrupted)
        assert not cert.overall
        assert not cert.entry("subsolution-definiteness").passed

    def test_trivial_fan_recast_of_shock_fails(self):
        # interpolate the single-shock states into a fake wedge whose stress
        # is the exact velocity dyad: the kinetic bound has zero margin
        p = CASE6
        rho1 = 0.5 * (p.left.rho + p.right.rho)
        v11 = p.left.v1
        v12 = 0.5 * (p.left.v2 + p.right.v2)
        c1 = v11**2 + v12**2
        u11 = 0.5 * (v11**2 - v12**2)
        u12 = v11 * v12
        sigma = solve_standard(p).waves[0].speeds[0]
        fake = FanSubsolution(
            rho1=rho1, v11=v11, v12=v12, u11=u11, u12=u12, c1=c1,
            mu0=sigma - 0.1, mu1=sigma + 0.1,
        )
        cert = verify_full(p, fake)
        assert not cert.overall
        assert not cert.entry("kinetic-energy-bound").passed

    def test_reverse_extraction_from_perturbed_solution(self):
        p, (rho1, delta2) = self._feasible_setup()
        r = reduced_from(p, rho1, delta2)._replace(delta2=0.9 * delta2)
        full = lift_to_full(p, r)
        if verify_full(p, full).overall:
            d1, d2 = extract_deltas(full)
            assert check_reduced(p, rho1, d2).overall


class TestEquivalence:
    def test_feasible_points_lift_and_verify(self):
        rng = np.random.default_rng(10)
        checked = 0
        for _ in range(60):
            p, _ = random_case5(rng, profile="tight")
            found = search_feasible(p)
            if found is None:
                continue
            checked += 1
            full = lift_to_full(p, reduced_from(p, *found))
            cert = verify_full(p, full)
            assert len(cert.entries) == 11
            assert cert.overall, cert.failed()
        assert checked > 0


def halving_steps(ev):
    """The guided stage's delta2 points for one rho1, in walking order."""
    a0 = ev.rhs_l0 - ev.lhs_l
    b0 = ev.rhs_r0 - ev.lhs_r
    denom = max(abs(ev.slope_l), abs(ev.slope_r), 1e-300)
    delta2 = min(10.0 * (abs(a0) + abs(b0)) / denom, DELTA2_CAP)
    steps = []
    while delta2 >= SEARCH_DELTA_FLOOR:
        steps.append(delta2)
        delta2 *= 0.5
    return steps


def reference_halving(ev, tol):
    """The guided stage for one rho1: the predicate at every halving step."""
    if not ev.window_ok:
        return None
    a0 = ev.rhs_l0 - ev.lhs_l
    b0 = ev.rhs_r0 - ev.lhs_r
    if not (
        a0 > tol * max(1.0, abs(ev.lhs_l), abs(ev.rhs_l0))
        and b0 > tol * max(1.0, abs(ev.lhs_r), abs(ev.rhs_r0))
    ):
        return None
    return next((d for d in halving_steps(ev) if ev.feasible(d, tol)), None)


def reference_grid(ev, delta2_grid, tol):
    """The grid stage for one rho1: the predicate at every grid point."""
    return next((delta2 for delta2 in delta2_grid if ev.feasible(delta2, tol)), None)


def scan_grids(p, grid):
    """The grid stage's rho1 and delta2 points, in scan order."""
    rl, rr = p.left.rho, p.right.rho
    lo_exp, hi_exp = math.log10(SEARCH_DELTA_FLOOR), math.log10(DELTA2_CAP)
    rho1_grid = [rl * (rr / rl) ** ((i + 0.5) / grid) for i in range(grid)]
    delta2_grid = [
        10.0 ** (lo_exp + (hi_exp - lo_exp) * (j + 0.5) / grid) for j in range(grid)
    ]
    return rho1_grid, delta2_grid


def reference_walk(p, scan_points, grid, tol):
    """search_feasible's scan order walked point by point: the predicate
    runs at every halving step and every grid point, with no delta2 window.
    Yields (rho1, delta2) for each rho1 that has a feasible delta2, with
    its first one, in scan order."""
    if not p.left.rho < p.right.rho:
        return
    t = _ProblemTerms(p)
    for rho1 in list(_guided_candidates(p, scan_points)):
        found = reference_halving(_ReducedRows(t, rho1), tol)
        if found is not None:
            yield rho1, found
    rho1_grid, delta2_grid = scan_grids(p, grid)
    for rho1 in rho1_grid:
        found = reference_grid(_ReducedRows(t, rho1), delta2_grid, tol)
        if found is not None:
            yield rho1, found


# (hits yielded, rest of the walk) per problem and search size for the session,
# keyed by repr: an int and its float, or -0.0 and 0.0, get a walk each
WALKS = {}


def reference_search(p, *, scan_points=64, grid=128, tol_strict=STRICT_TOL, rho1_below=math.inf):
    """The pair search_feasible must return: the reference walk's first hit
    below ``rho1_below``, or None.  The walk goes only as far as the furthest
    answer asked for; one that raised is not kept."""
    key = (repr(p), scan_points, grid, tol_strict)
    hits, rest = WALKS.pop(key, None) or ([], reference_walk(p, scan_points, grid, tol_strict))
    found = next((hit for hit in chain(tuple(hits), kept(rest, hits)) if hit[0] < rho1_below), None)
    WALKS[key] = hits, rest
    return found


def search_step(t, rho1, points=None):
    """search_feasible at one rho1: a search stage over the stream of rho1
    alone, whose scan gives the window, then the walk of ``points`` (the
    guided schedule when None) only if it is open."""
    found = _stage(t, (rho1,), STRICT_TOL, points)
    return None if found is None else found[1]


def stage_scans(monkeypatch, on_draw=None, on_yield=None):
    """Wrap the search stages' scans (those with a tolerance; the rows of
    one rho1 are drawn without) so that ``on_draw(t, rho1, tol)`` sees every
    rho1 a scan draws from its stream, before the scan evaluates it, and
    ``on_yield(rho1, window)`` every open window it yields with its rows."""
    scan = subsolution._scan

    def drawn(t, rho1s, tol):
        for rho1 in rho1s:
            if on_draw is not None:
                on_draw(t, rho1, tol)
            yield rho1

    def wrapped(t, rho1s, tol=None):
        if tol is None:
            yield from scan(t, rho1s)
            return
        for rho1, window, rows in scan(t, drawn(t, rho1s, tol), tol):
            if on_yield is not None:
                on_yield(rho1, window)
            yield rho1, window, rows

    monkeypatch.setattr(subsolution, "_scan", wrapped)


def schedule_searches(build, problems, monkeypatch):
    """(problem, options) of every search build makes along its perturbation
    schedules."""
    seen = []

    def record(p, **opts):
        seen.append((p, opts))
        return search_feasible(p, **opts)

    monkeypatch.setattr(wedge, "search_feasible", record)
    for p in problems:
        build(p)
    monkeypatch.undo()
    return seen


def schedule_batch_searches():
    """The perturbation-schedule searches of the first 10 problems of each
    acceptance batch."""
    return batches.searches("wedge-sr", 10) + batches.searches("wedge-s", 10)


class TestSearchMatchesReference:
    """The delta2 window only decides where the predicate runs: every search
    must return the pair of the full walk, hits and misses alike."""

    def assert_matches(self, problems, **opts):
        outcomes = []
        for p in problems:
            found = search_feasible(p, **opts)
            assert found == reference_search(p, **opts), p
            outcomes.append(found is None)
        return outcomes

    @pytest.mark.parametrize("profile", ["wide", "tight"])
    def test_random_data(self, profile):
        rng = np.random.default_rng(31)
        misses = self.assert_matches([random_case5(rng, profile=profile)[0] for _ in range(40)])
        assert not all(misses)

    def test_perturbation_schedules(self):
        # the schedule searches of the first 10 problems of each acceptance
        # batch, without their bound
        misses = self.assert_matches([s.p for s in schedule_batch_searches()])
        assert any(misses) and not all(misses)

    def test_every_rho1(self, monkeypatch):
        # per rho1, not only up to the first hit: every guided candidate and
        # every fourth grid rho1 of schedule and random problems
        rng = np.random.default_rng(603)
        searches = schedule_searches(wedge.build_sr, [random_case5(rng)[0] for _ in range(30)], monkeypatch)
        problems = [p for p, _ in searches]
        problems += [random_case5(rng, profile="tight")[0] for _ in range(30)]
        hits = 0
        for p in problems:
            t = _ProblemTerms(p)
            for rho1 in list(_guided_candidates(p, 64)):
                found = search_step(t, rho1)
                assert found == reference_halving(_ReducedRows(t, rho1), STRICT_TOL), (p, rho1)
                hits += found is not None
            rho1_grid, delta2_grid = scan_grids(p, 128)
            for rho1 in rho1_grid[::4]:
                found = search_step(t, rho1, delta2_grid)
                assert found == reference_grid(_ReducedRows(t, rho1), delta2_grid, STRICT_TOL), (p, rho1)
                hits += found is not None
        assert hits > 0

    @pytest.mark.parametrize(
        "opts",
        [{"tol_strict": 1e-6}, {"scan_points": 3, "grid": 7}, {"scan_points": 1, "grid": 2}],
        ids=["loose-tolerance", "small-scan", "smallest-scan"],
    )
    def test_search_options(self, opts):
        rng = np.random.default_rng(32)
        self.assert_matches([random_case5(rng)[0] for _ in range(25)], **opts)


class TestBoundedSearch:
    """rho1_below only removes candidates: the search returns the first hit
    of the full walk over the rho1 below the bound."""

    def test_random_data(self):
        rng = np.random.default_rng(33)
        cut = 0
        for _ in range(30):
            p, rho_m = random_case5(rng)
            unbounded = search_feasible(p)
            bounds = [rho_m, 0.5 * (p.left.rho + rho_m)]
            if unbounded is not None:
                bounds.append(unbounded[0])
            for bound in bounds:
                found = search_feasible(p, rho1_below=bound)
                assert found == reference_search(p, rho1_below=bound), (p, bound)
                if unbounded is not None and unbounded[0] < bound:
                    assert found == unbounded
                else:
                    cut += 1
        assert cut > 0

    def test_perturbation_schedules(self):
        # the schedule searches of the first 10 problems of each acceptance
        # batch, with their bound: below it the hit is the unbounded one
        outcomes = Counter()
        for s in schedule_batch_searches():
            bound = s.opts["rho1_below"]
            assert s.opts == {"rho1_below": bound, "tol_strict": STRICT_TOL}
            assert s.result == reference_search(s.p, rho1_below=bound), s.p
            unbounded = search_feasible(s.p)
            if unbounded is not None and unbounded[0] < bound:
                assert s.result == unbounded, s.p
            outcomes[s.result is None] += 1
        assert outcomes[True] and outcomes[False]

    def test_schedule_evaluates_only_below_reference(self):
        # build_sr's bound is the middle density: its perturbed problems share
        # it, so the guided approach reaches it, and repeats it at roundoff;
        # on the first 5 problems of the seed-601 acceptance batch
        draws = batches.record("wedge-sr")[:5]
        misses = 0
        for draw in draws:
            p = draw.problem
            rho_m = solve_standard(p).middle.rho
            for search in draw.searches:
                rho1s = [rho1 for stage in search.stages for rho1 in stage.rho1s]
                assert all(rho1 < rho_m for rho1 in rho1s), p
                assert len(set(rho1s)) == len(rho1s), p
            misses += len(draw.searches) - 1
            assert draw.construction.sub.rho1 < rho_m
        assert misses > 0
        # without the bound the same searches would have gone to rho_m and
        # back: the check above is not vacuous (the stream itself drops
        # repeats, so the walk is the full list's)
        guided = [full_guided_list(search.p, 64) for draw in draws for search in draw.searches]
        assert any(len(set(c)) < len(c) for c in guided)

    def test_nan_bound_rejected(self):
        # every comparison with NaN is false: the search would skip every
        # rho1 and report a certified empty result
        with pytest.raises(DomainError):
            search_feasible(CASE5, rho1_below=math.nan)

    @pytest.mark.parametrize("bound", [1.0, 1, 0.5, 0.0, -1.0, -math.inf])
    def test_bound_at_or_below_the_left_density_rejected(self, bound):
        # rho- is 1: no rho1 lies above rho- and below the bound, so None
        # would certify a search over nothing
        with pytest.raises(DomainError, match="rho1_below must be a number above rho-=1"):
            search_feasible(CASE5, rho1_below=bound)

    @pytest.mark.parametrize("bound", [math.nextafter(1.0, 2.0), 1.0001, 1.005])
    def test_bound_below_every_candidate_rejected(self, bound):
        # above rho- = 1, but every guided candidate lies nearer rho_m and
        # the first grid rho1 is 4**(1/256), about 1.0054: no rho1 is drawn,
        # so None would certify a search over nothing
        with pytest.raises(DomainError, match="no guided or grid rho1 lies below"):
            search_feasible(CASE5, rho1_below=bound)

    def test_bound_above_the_first_grid_rho1_is_searched(self, monkeypatch):
        drawn = []
        stage_scans(monkeypatch, on_draw=lambda t, rho1, tol: drawn.append(rho1))
        assert search_feasible(CASE5, rho1_below=1.006) is None
        assert reference_search(CASE5, rho1_below=1.006) is None
        assert drawn == scan_grids(CASE5, 128)[0][:1]

    def test_unusable_pair_no_longer_ends_the_attempt(self, monkeypatch):
        # random_case5 data seed 2, draw 334: at s = 1/16 the unbounded search
        # finds a pair at rho1 >= rho_m, which used to end the attempt as
        # rho1-not-below-reference; below rho_m there is none, so the attempt
        # is a miss and the construction still ends at s = 1/32
        rng = np.random.default_rng(2)
        for _ in range(335):
            p, _ = random_case5(rng)
        assert wedge.build_sr(p).perturbation == 0.03125
        searches = schedule_searches(wedge.build_sr, [p], monkeypatch)
        assert len(searches) == 5
        tilde, opts = searches[3]
        assert opts["rho1_below"] == solve_standard(p).middle.rho
        unusable = search_feasible(tilde)
        assert unusable is not None and unusable[0] >= opts["rho1_below"]
        assert search_feasible(tilde, **opts) is None


class StubEvaluator:
    """A fixed delta2 window and feasible set, recording where the
    predicate runs."""

    def __init__(self, window, feasible_at):
        self.window = window
        self.feasible_at = feasible_at
        self.calls = []

    def feasible(self, delta2, tol):
        self.calls.append(delta2)
        return delta2 in self.feasible_at


def stub_walk(monkeypatch, ev, points):
    """search_step at one grid rho1, with the stub ev standing in for the
    window and the rows that the scan yields, and for no yield when its
    window is None."""

    def scan(t, rho1s, tol):
        return ((rho1, ev.window, ev) for rho1 in rho1s if ev.window is not None)

    with monkeypatch.context() as m:
        m.setattr(subsolution, "_scan", scan)
        return search_step(None, 2.0, points)


def filtered_walk(ev, points, tol):
    """Every point in order, the predicate only inside [lo, hi]."""
    if ev.window is None:
        return None
    lo, hi = ev.window
    return next((d for d in points if lo <= d <= hi and ev.feasible(d, tol)), None)


ASCENDING = tuple(float(k) for k in range(1, 11))


class TestFirstFeasibleWalk:
    """A stage's walk over the delta2 points of an open window runs the
    predicate at the points of the full filtered walk, in the same order,
    and returns the same point."""

    @pytest.mark.parametrize("order", ["ascending", "descending"])
    @pytest.mark.parametrize(
        "window",
        [
            (2.0, 8.0),  # both ends on a point
            (1.5, 5.0),  # upper end on a point
            (1.0, 100.0),  # every point inside
            (0.005, 0.2),  # below every point
            (25.0, 200.0),  # above every point
            (10.0, 1.0),  # lo > hi: empty
            (0.0, math.inf),  # unbounded above
            None,
        ],
    )
    @pytest.mark.parametrize(
        "feasible_at", [set(), {6.0}, {2.0, 8.0}, set(ASCENDING)], ids=["none", "one", "ends", "all"]
    )
    def test_matches_filtered_walk(self, order, window, feasible_at, monkeypatch):
        points = ASCENDING if order == "ascending" else ASCENDING[::-1]
        ev, ref = StubEvaluator(window, feasible_at), StubEvaluator(window, feasible_at)
        assert stub_walk(monkeypatch, ev, points) == filtered_walk(ref, points, STRICT_TOL)
        assert ev.calls == ref.calls

    @pytest.mark.parametrize("window", [(2.0, 1.5), (8.0, 10.0), (0.5, 0.5), (1.0, 3.0)])
    @pytest.mark.parametrize("feasible_at", [set(), {3.0}], ids=["none", "one"])
    def test_one_point(self, window, feasible_at, monkeypatch):
        ev, ref = StubEvaluator(window, feasible_at), StubEvaluator(window, feasible_at)
        assert stub_walk(monkeypatch, ev, (3.0,)) == filtered_walk(ref, (3.0,), STRICT_TOL)
        assert ev.calls == ref.calls

    def test_no_points(self, monkeypatch):
        assert stub_walk(monkeypatch, StubEvaluator((1.0, 2.0), {1.0}), ()) is None

    @pytest.mark.parametrize("window", [None, (2.0, 8.0)])
    def test_lazy_points_drawn_only_for_an_open_window(self, window, monkeypatch):
        drawn = []

        def points():
            for d in ASCENDING:
                drawn.append(d)
                yield d

        ev, ref = StubEvaluator(window, {6.0}), StubEvaluator(window, {6.0})
        assert stub_walk(monkeypatch, ev, points()) == filtered_walk(ref, ASCENDING, STRICT_TOL)
        assert ev.calls == ref.calls
        assert drawn == ([] if window is None else list(ASCENDING[:6]))


def reference_window(ev, tol):
    """The scan's window written with scale_of, max and min, on both rows of
    ev, a _ReducedRows: each row's one bound c + k*d > 0 widened by
    eta*(|rhs0| + |lhs| + 1) in c and eta*|s| in k, rows too large to bound
    left out, None once a row empties the interval."""
    if not ev.window_ok or ev.d1 < SEARCH_DELTA_FLOOR:
        return None
    eta = subsolution._WINDOW_ETA * (1.0 + tol)
    lo, hi = 0.0, math.inf
    for lhs, rhs0, s in (
        (ev.lhs_l, ev.rhs_l0, ev.slope_l),
        (ev.lhs_r, ev.rhs_r0, ev.slope_r),
    ):
        size = abs(rhs0) + abs(lhs) + 1.0
        if not (size + abs(s)) * (1.0 + tol) < subsolution._WINDOW_SIZE_CAP:
            continue
        c = rhs0 - lhs + eta * size - tol * scale_of(lhs)
        k = s + eta * abs(s)
        if k > 0.0:
            lo = max(lo, -c / k)
        elif k < 0.0:
            hi = min(hi, -c / k)
        elif not c > 0.0:
            return None
        if lo > hi:
            return None
    return lo, hi


# coefficient values for hand-made evaluators: signed zeros, subnormals,
# huge values, infinities and NaN
EDGE_VALUES = (0.0, -0.0, 1.0, -1.0, 3.5, -0.25, 5e-324, -5e-324, 1e-300, 1e300, -1e300,
               math.inf, -math.inf, math.nan)


def hand_made(rows):
    """Rows inside the density window, with delta1 = 1 and the (lhs, rhs0,
    slope) entropy rows ``rows`` (left, right)."""
    ev = object.__new__(_ReducedRows)
    ev.rl, ev.rr, ev.rho1 = 1.0, 4.0, 2.0
    ev.window_ok, ev.d1 = True, 1.0
    (ev.lhs_l, ev.rhs_l0, ev.slope_l), (ev.lhs_r, ev.rhs_r0, ev.slope_r) = rows
    return ev


HAND_MADE_TERMS = _ProblemTerms(CASE5)


def kernel_window(ev, tol):
    """The scan's window at ev's rho1, with delta1 and both rows read from
    ev, a _ReducedRows: the search's bound code on hand-made coefficients,
    which the scan's own row check would refuse when they are not finite.
    The scan runs on CASE5's terms, whose density window (1, 4) is ev's,
    and takes delta1 and each row from ev at the first line of that row's
    bound."""
    left = {"d1": ev.d1, "lhs_l": ev.lhs_l, "rhs_l0": ev.rhs_l0, "s_l": ev.slope_l}
    right = {"lhs_r": ev.lhs_r, "rhs_r0": ev.rhs_r0, "s_r": ev.slope_r}
    settings = {"elif d1 < floor:": left, "m = lhs_r if lhs_r > 0.0 else -lhs_r": right}
    return scan_setting(HAND_MADE_TERMS, ev.rho1, tol, settings)


class TestDelta2Window:
    """The window equals the per-row max/min form, repr for repr, and is
    never returned empty."""

    @pytest.mark.parametrize("tol", [STRICT_TOL, 1e-9])
    def test_matches_reference_on_random_case5(self, tol):
        rng = np.random.default_rng(12)
        kinds = Counter()
        for _ in range(30):
            p, _ = random_case5(rng)
            t = _ProblemTerms(p)
            rho1_grid, _ = scan_grids(p, 64)
            for rho1 in rho1_grid + list(_guided_candidates(p, 64)):
                got = scan_window(t, rho1, tol)
                assert repr(got) == repr(reference_window(_ReducedRows(t, rho1), tol)), (p, rho1)
                kinds["none" if got is None else "open" if got[0] <= got[1] else "empty"] += 1
        assert kinds["none"] and kinds["open"] and not kinds["empty"]

    @pytest.mark.parametrize("tol", [STRICT_TOL, 0.5, 1.0, 2.0])
    def test_matches_reference_on_hand_made_coefficients(self, tol):
        rng = np.random.default_rng(13)
        values = np.array(EDGE_VALUES)
        for _ in range(3000):
            v = [float(x) for x in rng.choice(values, 6)]
            ev = hand_made((v[:3], v[3:]))
            assert repr(kernel_window(ev, tol)) == repr(reference_window(ev, tol))

    @pytest.mark.parametrize("slope", [0.0, -0.0, math.nan])
    def test_zero_and_nan_slopes(self, slope):
        ev = hand_made(((1.0, 2.0, slope), (1.0, 3.0, -1.0)))
        assert repr(kernel_window(ev, STRICT_TOL)) == repr(reference_window(ev, STRICT_TOL))
        ev.rhs_l0 = 1.0  # base margin 0: a zero slope fails every delta2
        assert repr(kernel_window(ev, STRICT_TOL)) == repr(reference_window(ev, STRICT_TOL))


def entropy_rows_pass(ev, delta2, tol):
    """Both entropy rows strict at ``tol``: the part of ``feasible`` that
    the scan's window bounds (the other rows do not depend on delta2 or only
    through its floor)."""
    return all(margin > tol * scale for _, margin, scale in ev.rows(delta2)[-2:])


def near(x, n=4):
    """x and the n floats on either side of it."""
    points, below, above = [x], x, x
    for _ in range(n):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        points += [below, above]
    return points


def exact_ends(ev, tol):
    """-c/k of the six unwidened bounds c + k*d > 0 that make up the exact
    predicate, tol*max(1, |lhs|) and +-tol*rhs per row: where the float
    predicate changes its answer, though the scan's window bounds only the
    first of them."""
    ends = []
    for lhs, rhs0, s in ((ev.lhs_l, ev.rhs_l0, ev.slope_l), (ev.lhs_r, ev.rhs_r0, ev.slope_r)):
        a = rhs0 - lhs
        for c, k in (
            (a - tol * scale_of(lhs), s),
            (a - tol * rhs0, s * (1.0 - tol)),
            (a + tol * rhs0, s * (1.0 + tol)),
        ):
            if k != 0.0 and math.isfinite(c / k):
                ends.append(-c / k)
    return ends


def passes_outside(cases, tol):
    """(passing points, passing points outside the scan's window) over the
    probe points >= 0 of each (hand-made rows, probes) case and the floats
    next to both ends of its window."""
    passed = outside = 0
    for ev, probes in cases:
        window = kernel_window(ev, tol)
        if window is not None:
            probes = probes + [math.nextafter(window[0], -math.inf), math.nextafter(window[1], math.inf)]
        for d in probes:
            if 0.0 <= d < math.inf and entropy_rows_pass(ev, d, tol):
                passed += 1
                outside += window is None or not window[0] <= d <= window[1]
    return passed, outside


# passes at every delta2 for tol < 2: margin 2 against tol * scale 1
PASSING_ROW = (-1.0, 1.0, 0.0)

WINDOW_TOLS = [STRICT_TOL, 1e-9, 1e-6, 0.5, 1.0, 2.0]


def cancelling_case(rng):
    """Hand-made rows, one of them whose terms cancel near a random
    d0 (rhs0 + s*d0 ~ lhs, or rhs0 ~ -s*d0), or are unrelated, and probe
    points next to d0 and to every end of the exact window."""
    lhs = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 6))
    s = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4, 6))
    d0 = float(10.0 ** rng.uniform(-6, 8))
    rhs0 = (
        lhs - s * d0,
        -s * d0,
        float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 6)),
    )[rng.integers(3)]
    rows = ((lhs, rhs0, s), PASSING_ROW)
    return hand_made(rows if rng.integers(2) else rows[::-1]), near(d0)


class TestWindowBoundsThePredicate:
    """Outside the scan's window the float predicate fails: at the floats next to
    its ends, next to the ends of the exact-arithmetic window, and at every
    point the search walks."""

    @pytest.mark.parametrize("tol", WINDOW_TOLS)
    def test_cancelling_coefficients(self, tol, monkeypatch):
        rng = np.random.default_rng(14)
        cases = []
        for _ in range(600):
            ev, probes = cancelling_case(rng)
            cases.append((ev, probes + [x for end in exact_ends(ev, tol) for x in near(end)]))
        passed, outside = passes_outside(cases, tol)
        assert outside == 0
        if tol < 2.0:
            # at tol >= 2 no row can pass: rhs - lhs <= 2*max(|lhs|, |rhs|)
            assert passed > 0
            # the rounding term is needed: without it passing points fall
            # outside the window
            monkeypatch.setattr(subsolution, "_WINDOW_ETA", 0.0)
            assert passes_outside(cases, tol)[1] > 0

    @pytest.mark.parametrize("tol", WINDOW_TOLS)
    def test_edge_values(self, tol):
        rng = np.random.default_rng(15)
        values = np.array(EDGE_VALUES)
        cases = []
        for _ in range(1500):
            v = [float(x) for x in rng.choice(values, 6)]
            ev = hand_made((v[:3], v[3:]))
            probes = list(EDGE_VALUES) + [x for end in exact_ends(ev, tol) for x in near(end, 1)]
            cases.append((ev, probes))
        passed, outside = passes_outside(cases, tol)
        assert outside == 0
        assert passed > 0 or tol >= 2.0

    def test_search_points(self, monkeypatch):
        # every halving step and grid point, at every guided candidate and
        # every second grid rho1 of schedule and random problems
        rng = np.random.default_rng(604)
        searches = schedule_searches(wedge.build_sr, [random_case5(rng)[0] for _ in range(4)], monkeypatch)
        problems = [p for p, _ in searches]
        problems += [random_case5(rng, profile="tight")[0] for _ in range(8)]
        hits = 0
        for p in problems:
            t = _ProblemTerms(p)
            rho1_grid, delta2_grid = scan_grids(p, 128)
            for rho1 in list(_guided_candidates(p, 64)) + rho1_grid[::2]:
                ev = _ReducedRows(t, rho1)
                if not ev.window_ok:
                    continue
                window = scan_window(t, rho1, STRICT_TOL)
                for d in halving_steps(ev) + delta2_grid:
                    if ev.feasible(d, STRICT_TOL):
                        hits += 1
                        assert window is not None and window[0] <= d <= window[1], (p, rho1, d)
        assert hits > 0


def test_search_work_per_rho1(monkeypatch):
    """A miss pays p and eps once per rho1 it evaluates; the problem terms
    (data densities, discriminant) are computed once per search."""
    seen = [search.p for search in batches.searches("wedge-sr", 3)]
    miss = next(p for p in seen if search_feasible(p) is None)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in ("pressure", "internal_energy"):
        monkeypatch.setattr(subsolution, name, counted(name, getattr(subsolution, name)))
    stage_scans(monkeypatch, on_draw=lambda t, rho1, tol: calls.update(["rho1"]))
    assert subsolution.search_feasible(miss) is None
    rho1_evaluated = calls["rho1"]
    assert rho1_evaluated > 128
    assert calls["pressure"] <= rho1_evaluated + 2
    assert calls["internal_energy"] <= rho1_evaluated + 2


def test_stages_leave_the_problem_terms_as_built(monkeypatch):
    """A search stage reads the problem terms and writes none: the rows of
    an open window come with the scan's yield.  Checked at every stage of
    the seed-601 schedule searches of three problems, hits and misses."""
    searches = batches.searches("wedge-sr", 3)
    stage, changed = subsolution._stage, []

    def checked(t, rho1s, tol, points=None):
        built = dict(vars(t))
        found = stage(t, rho1s, tol, points)
        changed.append(vars(t) != built)
        return found

    monkeypatch.setattr(subsolution, "_stage", checked)
    outcomes = Counter(search_feasible(search.p, **search.opts) is None for search in searches)
    assert outcomes[True] and outcomes[False]
    assert changed and not any(changed)


def test_predicate_runs_only_inside_open_windows(monkeypatch):
    """A schedule miss runs the predicate at no point; a hit runs it only
    inside non-empty delta2 windows."""
    seen = [search.p for search in batches.searches("wedge-sr", 3)]
    miss = next(p for p in seen if search_feasible(p) is None)
    hit = next(p for p in seen if search_feasible(p) is not None)
    calls, outside, last = [], [], {}
    feasible = _ReducedRows.feasible

    def drawn(t, rho1, tol):
        last["rho1"], last["window"] = rho1, None

    def window(rho1, window):
        last["window"] = window

    def counted(ev, delta2, tol):
        calls.append(delta2)
        window = last["window"]
        if ev.rho1 != last["rho1"] or window is None or not window[0] <= delta2 <= window[1]:
            outside.append(delta2)
        return feasible(ev, delta2, tol)

    stage_scans(monkeypatch, on_draw=drawn, on_yield=window)
    monkeypatch.setattr(_ReducedRows, "feasible", counted)
    assert search_feasible(miss) is None
    assert calls == []
    assert search_feasible(hit) is not None
    assert calls and outside == []


def test_schedules_run_the_predicate_only_where_it_passes():
    """On the first 20 problems of the seed-601 batch, every predicate call
    of build_sr's schedules is a search hit: a window wider than it needs to
    be would send the predicate to failing points."""
    draws = batches.record("wedge-sr")[:20]
    hits = [search.result is not None for draw in draws for search in draw.searches]
    assert len(hits) > len(draws)  # some schedules miss before they hit
    assert sum(len(draw.predicate_calls) for draw in draws) == sum(hits) == len(draws)


def schedule_kernel_calls(monkeypatch):
    """(t, rho1, tol, window) of every rho1 that the search stages' scans
    evaluate in build_sr and build_s on the first 20 problems of the
    seed-601 and seed-602 batches, and the number of right rows those scans
    computed: the times a scan with a tolerance reached the right row's
    first line, which a trace function counts.  The rows of one rho1 drawn
    without a tolerance are not counted."""
    calls, right = [], [0]
    right_line = scan_line("dv_r = vr2 - v12")

    def drawn(t, rho1, tol):
        calls.append([t, rho1, tol, None])

    def window(rho1, window):
        assert calls[-1][1] == rho1  # the scan yields the rho1 it drew last
        calls[-1][3] = window

    def on_line(frame, event, arg):
        if event == "line" and frame.f_lineno == right_line:
            right[0] += 1
        return on_line

    def on_call(frame, event, arg):
        if frame.f_code is _scan.__code__ and frame.f_locals["tol"] is not None:
            return on_line
        return None

    saved = sys.gettrace()
    with monkeypatch.context() as m:
        stage_scans(m, on_draw=drawn, on_yield=window)
        sys.settrace(on_call)
        try:
            rng = np.random.default_rng(601)
            for _ in range(20):
                wedge.build_sr(random_case5(rng)[0])
            rng = np.random.default_rng(602)
            for _ in range(20):
                wedge.build_s(random_case6_one_shock(rng))
        finally:
            sys.settrace(saved)
    return [tuple(call) for call in calls], right[0]


@pytest.fixture(scope="module")
def schedule_scans():
    with pytest.MonkeyPatch.context() as m:
        return schedule_kernel_calls(m)


def test_kernel_matches_the_two_row_window(schedule_scans):
    """At every rho1 the schedules evaluate, the scan, which stops after
    a left row that empties the window, gives the window of both rows."""
    calls, _ = schedule_scans
    kinds = Counter()
    for t, rho1, tol, got in calls:
        assert repr(got) == repr(reference_window(_ReducedRows(t, rho1), tol)), (rho1, tol)
        kinds[got is None] += 1
    assert kinds[True] and kinds[False]


def test_right_row_only_where_the_left_row_leaves_a_window(schedule_scans):
    """The scan computes the right row at exactly the rho1 whose left row,
    on its own, leaves a delta2 window open."""
    calls, right = schedule_scans
    left_open = computed = 0
    for t, rho1, tol, _ in calls:
        ev = _ReducedRows(t, rho1)
        if not ev.window_ok or ev.d1 < SEARCH_DELTA_FLOOR:
            continue
        computed += 1
        left_only = copy.copy(ev)
        left_only.lhs_r, left_only.rhs_r0, left_only.slope_r = PASSING_ROW
        left_open += reference_window(left_only, tol) is not None
    assert right == left_open
    # the left row refuses many rho1 on its own: computing both rows at
    # every rho1 would give more right rows
    assert 0 < left_open < computed


def test_schedule_work_is_pinned(schedule_scans):
    """The work of those schedules, counted at the per-rho1 kernel that the
    stage scans replaced: 15,104 rho1 evaluated, 7,188 right rows computed
    and 60 open windows.  A change that evaluates more fails here."""
    calls, right = schedule_scans
    assert len(calls) == 15104
    assert right == 7188
    assert sum(window is not None for *_, window in calls) == 60


# CASE5 with its velocities scaled by 3e102 and K by the square of that: the
# entropy rows now overflow at the lower third of the grid's rho1, while
# guided candidates 4 to 8 and grid rho1 100 to 107 hold hits
NEAR_OVERFLOW = RiemannProblem(GasLaw(9e204, 1.0), State(1, 0, 0), State(4, 0, -3e102))


class TestStageLaziness:
    """A stage stops at its first hit: no rho1 after it is drawn, so one
    whose rows overflow cannot raise; drawn first, it raises the message
    the search has always raised for it."""

    def setup_method(self):
        self.t = _ProblemTerms(NEAR_OVERFLOW)
        rho1_grid, self.delta2_grid = scan_grids(NEAR_OVERFLOW, 128)
        self.hit, self.overflowing = rho1_grid[100], rho1_grid[0]

    def stage(self, rho1s, drawn):
        return _stage(self.t, kept(rho1s, drawn), STRICT_TOL, self.delta2_grid)

    def test_hit_then_overflow(self):
        drawn = []
        found = self.stage((self.hit, self.overflowing), drawn)
        assert found is not None and found[0] == self.hit
        ev = _ReducedRows(self.t, self.hit)
        assert found[1] == reference_grid(ev, self.delta2_grid, STRICT_TOL)
        assert drawn == [self.hit]

    def test_overflow_then_hit(self):
        drawn = []
        message = f"the reduced conditions overflow at rho1={self.overflowing!r}"
        with pytest.raises(NumericError) as raised:
            self.stage((self.overflowing, self.hit), drawn)
        assert str(raised.value) == message
        assert drawn == [self.overflowing]

    def test_search_stops_at_the_guided_hit(self):
        # the guided stage hits, so the grid, whose first rho1 overflows,
        # is never walked; with three guided candidates, all misses, it is
        found = search_feasible(NEAR_OVERFLOW)
        assert found == reference_search(NEAR_OVERFLOW)
        assert found[0] in list(_guided_candidates(NEAR_OVERFLOW, 64))
        message = f"the reduced conditions overflow at rho1={self.overflowing!r}"
        with pytest.raises(NumericError) as raised:
            search_feasible(NEAR_OVERFLOW, scan_points=3)
        assert str(raised.value) == message

    def test_single_point_rows_are_drawn_lazily(self):
        # at rho1 = 3.95 delta1 and the left row are finite and the right row
        # overflows: check_reduced, which draws both rows, raises; reduced_from
        # and v12_star, which draw neither, return
        rho1, message = 3.95, "the reduced conditions overflow at rho1=3.95"
        terms = _scan(self.t, (rho1,))
        assert all(map(math.isfinite, next(terms) + next(terms)))
        with pytest.raises(NumericError, match=message):
            next(terms)
        with pytest.raises(NumericError, match=message):
            check_reduced(NEAR_OVERFLOW, rho1, 1.0)
        r = reduced_from(NEAR_OVERFLOW, rho1, 1.0)
        assert r.rho1 == rho1 and math.isfinite(r.delta1)
        assert v12_star(NEAR_OVERFLOW, rho1) == r.v12

    def test_delta1_overflow_message(self):
        # the density-ratio data of TestNumericFailure: delta1 overflows in
        # its power at the first grid rho1
        law = GasLaw(1e-200, 1.4)
        v2 = 1.5 * rarefaction_integral(law, 1e-149, 1e158)
        p = RiemannProblem(law, State(1e-149, 0, 0), State(1e158, 0, v2))
        rho1 = scan_grids(p, 128)[0][0]
        drawn = []
        stream = kept((rho1, math.nextafter(rho1, math.inf)), drawn)
        with pytest.raises(NumericError) as raised:
            _stage(_ProblemTerms(p), stream, STRICT_TOL, _delta2_grid(128))
        assert str(raised.value) == f"arithmetic overflow: delta1 at rho1={rho1!r}"
        assert drawn == [rho1]
