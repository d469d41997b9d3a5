"""The search kernel decides each rho1 in straight-line code, and the grid
stage draws its rho1 from C-level iterators.  The kernel must yield what the
reference scan in ``reference_scan`` yields, bit for bit, or raise its
exception, on every stream; and the streams must treat int-valued data as
their float copies."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerfan import (
    EulerFanError, GasLaw, NumericError, RiemannProblem, State, search_feasible, shock_bracket, wedge,
)
from eulerfan.riemann import STRICT_TOL
from eulerfan.subsolution import _guided_candidates, _ProblemTerms, _scan
import batches
from generators import GAMMAS
from reference_scan import in_hex, outcome, scan


def assert_same(t, rho1s, tol):
    rho1s = list(rho1s)
    got = outcome(_scan, t, rho1s, tol)
    assert got == outcome(scan, t, rho1s, tol), (t.law, t.rl, t.vl2, t.rr, t.vr2, rho1s, tol)
    return got


@pytest.mark.parametrize("name", ["wedge-sr", "wedge-s"])
def test_acceptance_batch_streams(name):
    """Every stream a search stage of the 500-problem acceptance batch
    draws, as far as the stage drew it, with what the kernel yielded there.
    The constructions bound every search above rho-, so none of them
    searches an empty range."""
    made = batches.searches(name)
    assert len(made) == {"wedge-sr": 2157, "wedge-s": 1472}[name]
    assert all(s.opts["rho1_below"] > s.p.left.rho for s in made)
    stages = [stage for s in made for stage in s.stages]
    # two stages at most per search: the guided one, then the grid
    assert len(made) < len(stages) <= 2 * len(made)
    for t, tol, rho1s, yields in stages:
        expected = [in_hex(*found) for found in yields]
        assert outcome(scan, t, rho1s, tol) == (expected, None), (t.law, t.rl, t.vl2, t.rr, t.vr2, tol)
    assert sum(len(stage.yields) for stage in stages) >= 500


# CASE5 with its velocities scaled by 3e102 and K by the square of that, as
# in test_subsolution: the entropy rows overflow at the lower third of the
# grid's rho1, while guided candidates and upper grid rho1 hold hits
NEAR_OVERFLOW = RiemannProblem(GasLaw(9e204, 1.0), State(1, 0, 0), State(4, 0, -3e102))


def grid_rho1(p, grid=128):
    rl, rr = p.left.rho, p.right.rho
    return [rl * (rr / rl) ** ((i + 0.5) / grid) for i in range(grid)]


@pytest.mark.parametrize("tol", [STRICT_TOL, 1e-6])
def test_near_overflow(tol):
    t = _ProblemTerms(NEAR_OVERFLOW)
    guided = list(_guided_candidates(NEAR_OVERFLOW, 64))
    grid = grid_rho1(NEAR_OVERFLOW)
    for rho1s in (guided, grid, grid[::-1], grid[100:] + grid[:1]):
        assert_same(t, rho1s, tol)
    # the grid raises at its first rho1, after no yield; from the top it
    # yields its open windows before it reaches the overflow
    assert outcome(_scan, t, grid, tol)[0] == []
    yields, raised = outcome(_scan, t, grid[::-1], tol)
    assert yields and raised[0] is NumericError


@settings(max_examples=300, deadline=None)
@given(
    gamma=st.one_of(st.sampled_from(GAMMAS + (1.0 + 1e-13, 1.0 + 2e-12, 7.0)), st.floats(1.0, 12.0)),
    log_k=st.floats(-60.0, 60.0),
    log_rho=st.floats(-150.0, 150.0),
    log_ratio=st.floats(-12.0, 2.5),
    log_v=st.floats(-150.0, 150.0),
    vl2=st.floats(-1.0, 1.0),
    jump=st.floats(-1.2, 1.2),
    fractions=st.lists(st.floats(0.0, 1.0), max_size=6),
    tol=st.sampled_from([STRICT_TOL, 1e-9, 1e-6, 0.5]),
)
def test_extreme_scales(gamma, log_k, log_rho, log_ratio, log_v, vl2, jump, fractions, tol):
    """Data at extreme density, velocity and law scales: the velocity jump
    is a fraction of the shock bracket of the densities (the discriminant is
    positive inside (-1, 1)), and the stream holds log-spaced rho1 across
    the density window, its edges and the floats next to them."""
    try:
        law = GasLaw(10.0**log_k, gamma)
        rl = 10.0**log_rho
        rr = rl * (1.0 + 10.0**log_ratio)
        vl2 *= 10.0**log_v
        p = RiemannProblem(law, State(rl, 0.0, vl2), State(rr, 0.0, vl2 - jump * shock_bracket(law, rl, rr)))
        t = _ProblemTerms(p)
    except EulerFanError:
        return
    edges = [rl, math.nextafter(rl, math.inf), math.nextafter(rr, 0.0), rr, 0.5 * (rl + rr)]
    assert_same(t, edges + [rl * (rr / rl) ** u for u in fractions], tol)


def int_valued(p):
    """p with its law constants, densities and velocities as Python ints."""
    return RiemannProblem(
        GasLaw(int(p.law.K), int(p.law.gamma)),
        *(State(int(s.rho), int(s.v1), int(s.v2)) for s in (p.left, p.right)),
    )


# S1R3 data with a guided hit, S1R3 data on which every search misses, and
# single-shock data (K = 4, gamma = 1: the shock bracket of 1 and 4 is 3)
S1R3 = RiemannProblem(GasLaw(1.0, 1.0), State(1.0, 0.0, 0.0), State(4.0, 0.0, -1.0))
S1R3_MISS = RiemannProblem(GasLaw(1.0, 2.0), State(1.0, 0.0, 0.0), State(4.0, 0.0, -1.0))
SINGLE_S = RiemannProblem(GasLaw(4.0, 1.0), State(1.0, 0.0, 0.0), State(4.0, 0.0, -3.0))


class TestIntValuedData:
    """State and GasLaw keep ints: the streams multiply and compare them
    with operator functions, so an int density or bound gives the float
    copy's answer."""

    @pytest.mark.parametrize("p", [S1R3, S1R3_MISS], ids=["hit", "miss"])
    @pytest.mark.parametrize(
        "opts",
        [{}, {"rho1_below": 3}, {"rho1_below": 2}, {"scan_points": 1}, {"scan_points": 1, "rho1_below": 3}],
    )
    def test_search(self, p, opts):
        floats = {key: float(value) if key == "rho1_below" else value for key, value in opts.items()}
        assert search_feasible(int_valued(p), **opts) == search_feasible(p, **floats)

    def test_grid_bound_is_kept(self):
        # one guided candidate, then the grid, whose hit lies above 2: an
        # int bound of 2 ends the stage before it, as 2.0 does
        p = int_valued(S1R3)
        assert search_feasible(p, scan_points=1)[0] in grid_rho1(p)[64:]
        assert search_feasible(p, scan_points=1, rho1_below=2) is None

    def test_build_sr(self):
        assert wedge.build_sr(int_valued(S1R3)) == wedge.build_sr(S1R3)

    def test_build_s(self):
        p = int_valued(SINGLE_S)
        values = (p.law.K, p.law.gamma) + tuple(getattr(s, name) for s in (p.left, p.right) for name in s._fields)
        assert {type(value) for value in values} == {int}
        assert wedge.build_s(p) == wedge.build_s(SINGLE_S)
