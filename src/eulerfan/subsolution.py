"""Fan-subsolution algebra: closed-form interface speeds and wedge-state
quantities, the reduced feasibility conditions in (rho1, delta2), the
deterministic feasibility search, the lift from reduced to full unknowns, and
the verifier of the full condition system.  The entropy rows write Lemma 1's
admissibility bracket (``oracles.admissibility_bracket``) out inline."""

from __future__ import annotations

import functools
import math
import operator
from itertools import chain, repeat, takewhile

from . import certificate as cert
from .certificate import Certificate
from .eos import internal_energy, pressure
from .errors import (
    SEARCH_SIZES, CriterionError, DomainError, InvariantError, NumericError, Record, is_number, require_count,
    require_finite, require_positive, squared,
)
from .riemann import EQUATION_TOL, STRICT_TOL, CaseId, RiemannProblem, _solve_middle_density, classify
# not called here: the benchmark's tracer rebinds this module's solve_standard
from .riemann import solve_standard  # noqa: F401
from .wavecurves import shock_bracket

# delta2 is scanned over at most this magnitude; the admissibility conditions
# are affine in delta2, so a one-dimensional bracket below the cap is exact.
DELTA2_CAP = 1e8

# The search only returns points whose deltas clear this absolute floor:
# the full system needs the product delta1 * delta2 strictly positive at
# tolerance, so points hugging the 1e-12 margin line are too fragile to lift.
SEARCH_DELTA_FLOOR = 2e-6

# _scan widens each entropy row's bound by _WINDOW_ETA * (1 + tol), 32 unit
# roundoffs of a double per unit of 1 + tol, so that rounding in the
# predicate and in the window cannot put a passing delta2 outside it.
_WINDOW_ETA = 2.0**-48

# _scan's window leaves out a row whose coefficients, times 1 + tol, reach
# this size: its bound could overflow, and leaving it out only widens.
_WINDOW_SIZE_CAP = 2.0**1000


class ReducedSubsolution(Record):
    """Reduced wedge unknowns, each a float: the density rho1, the normal
    velocity v12, the fan speeds mu0 and mu1, and the deltas.

    Invariants (checked by certificates, not the constructor): mu0 < mu1 and
    both delta1, delta2 positive.
    """

    _fields = ("rho1", "v12", "mu0", "mu1", "delta1", "delta2")


class FanSubsolution(Record):
    """Full wedge unknowns, each a float: density, velocity (v11, v12), the
    two independent entries (u11, u12) of the traceless symmetric stress
    deviator, the kinetic bound C1, and the fan speeds."""

    _fields = ("rho1", "v11", "v12", "u11", "u12", "c1", "mu0", "mu1")


class _ProblemTerms:
    """The terms of the star formulas that depend only on the problem: the
    data, the law constants, p and eps at both data densities, and the
    discriminant with its clamped value, each computed once per problem.

    ``clamped`` is the discriminant clamped to zero inside its roundoff
    band, or None below the band.  The search refuses a discriminant inside
    the band before it evaluates any rho1, so the clamp serves direct
    closed-form calls on the single-shock locus, whose discriminant is zero
    up to roundoff: there a small negative rounding error must not kill the
    square roots."""

    def __init__(self, p: RiemannProblem):
        law = p.law
        self.law = law
        # read by _scan for p and eps at rho1, as eos reads them
        self.K, self.gamma, self.gm1, self.isothermal = law.K, law.gamma, law.gamma - 1.0, law.isothermal
        self.rl, self.vl2 = p.left.rho, p.left.v2
        self.rr, self.vr2 = p.right.rho, p.right.v2
        self.pl, self.pr = pressure(law, self.rl), pressure(law, self.rr)
        self.el, self.er = internal_energy(law, self.rl), internal_energy(law, self.rr)
        # the rho1-free factors of v12 and delta1, each the same float as
        # the subexpression it stands for
        self.gap = self.rl - self.rr
        self.left_flux = -self.rl * self.vl2
        self.right_flux = self.rr * self.vr2
        try:
            dv = p.dv  # vl2 - vr2 is -dv, bit for bit
        except NumericError:
            # in floats the jump overflows to inf, and the discriminant to -inf
            raise NumericError("arithmetic overflow: the discriminant") from None
        self.jump = self.rr * -dv
        t1 = self.gap * (self.pl - self.pr)
        t2 = self.rr * self.rl * squared(dv)
        self.disc = t1 - t2
        if not math.isfinite(self.disc):
            raise NumericError("arithmetic overflow: the discriminant")
        # Within disc_noise the sign of t1 - t2 is rounding error: on
        # single-shock data t1 and t2 agree to a few ulps.  The band scales
        # with the terms, so small-scale data keeps a genuine sign.
        self.disc_noise = STRICT_TOL * max(abs(t1), abs(t2))
        self.clamped = None if self.disc < -self.disc_noise else max(self.disc, 0.0)


def discriminant(p: RiemannProblem) -> float:
    """(rho- - rho+)(p(rho-) - p(rho+)) - rho+ rho- (v-2 - v+2)^2.

    Positive exactly when the data's velocity jump is smaller in magnitude
    than the shock bracket of its densities; the square roots of the interface
    speed formulas need it nonnegative.  Raises NumericError when it
    overflows.
    """
    return _ProblemTerms(p).disc


def _star_terms(p: RiemannProblem, rho1: float) -> _ProblemTerms:
    """The problem terms, for rho1 strictly inside the density window."""
    if not (p.left.rho < rho1 < p.right.rho):
        raise DomainError(
            f"rho1 must lie strictly between the data densities, got {rho1!r}"
        )
    return _ProblemTerms(p)


def _scan(t: _ProblemTerms, rho1s, tol: float | None = None):
    """The one copy of the arithmetic at a wedge density rho1, over the
    stream ``rho1s`` in one frame: p, eps, v12 and delta1 (the closed
    forms), the two entropy rows and the delta2 window.  The problem terms
    are read from ``t`` once; no rho1 is drawn before it is needed.  Each
    rho1 runs as straight-line code: the two rows are written out, each
    difference of rho1 or v12 with the data is taken once, and a magnitude
    is a conditional negation, which the window's decisions cannot tell
    from abs (only the sign of a zero differs, and a NaN fails either way).

    With ``tol`` it is a search stage's kernel and yields (rho1, (lo, hi),
    rows) for each rho1 whose window is open, lo <= hi: the predicate
    (``rows.feasible``) fails at every delta2 >= 0 outside it, and
    ``rows`` is the _ReducedRows of the delta1 and both entropy rows just
    computed.  Other rho1 yield nothing: outside the density window, delta1
    below SEARCH_DELTA_FLOOR (checked after the left row), or no delta2
    left by the rows.  The right row is computed only once the left one
    leaves a window.  Without ``tol``, a rho1 inside the density window
    yields (p1, e1, v12, d1), then the left and the right row as (lhs,
    rhs0, s), with margin rhs0 + s*delta2 - lhs, each computed only once it
    is drawn: the single-point callers draw these.

    p and eps are eos's expressions with the law constants held by ``t``;
    where one overflows, eos is called and raises its own NumericError
    (rho1 inside the window is finite and positive, so eos's density test
    holds).  CriterionError when the discriminant is below its band;
    NumericError when a divisor of v12 or delta1 underflows, delta1
    overflows in a power, or a row it computes has an inf or NaN term (as
    an inf or NaN v12 or delta1 gives), whose margin would be meaningless,
    not negative.  A right row that is never computed cannot raise: the
    finite left row and delta1 below the floor, or the left row's bound,
    have then proved that the predicate fails at every delta2 of this rho1.

    The window.  An entropy row with terms lhs and rhs = rhs0 + s*d passes
    when its margin rhs - lhs exceeds tol*max(1, |lhs|, |rhs|), so only when
    it exceeds tol*max(1, |lhs|): one affine bound c + k*d > 0 per row.
    Leaving out the |rhs| part of the scale only widens the window.

    The predicate computes rhs = fl(rhs0 + fl(d*s)) and passes when
    fl(rhs - lhs) > fl(tol*scale) >= fl(tol*max(1, |lhs|)).  Rounding is
    monotone, so that implies rhs - lhs > tol*max(1, |lhs|) exactly; only
    rhs carries error.  In the standard model (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 2-3: fl(x op y) = (x op y)(1 +
    e) + f, |e| <= u = 2**-53, |f| <= 2**-1075, f = 0 for + and -) that
    error is at most u|rhs0| + 2u|s|d to first order in u, plus underflow.
    Computing c, k and -c/k below loses at most another 4u(1+tol)(|rhs0| +
    |lhs| + 1) in c and 3u|s| in k, plus 8u for underflow (d times
    2**-1075 is at most 4u for a float d); the 1 in the c term takes every
    absolute term.  So eta = 32u(1+tol), more than twice the totals of
    13u(1+tol) per unit of |rhs0| + |lhs| + 1 on c and 5u per unit of |s|
    on k, gives c' = c + eta*(|rhs0| + |lhs| + 1) and k' = k + eta*|s|
    (both widen, as d >= 0) with every passing d inside [lo, hi] as
    computed here.  Monotonicity holds through overflow too, and an
    overflowing rhs makes the scale inf and the row fail.

    A row with k' > 0 raises lo to -c'/k', one with k' < 0 lowers hi to
    it, and one with k' = 0 passes every d or none.  A row whose (|rhs0|
    + |lhs| + |s| + 1)*(1 + tol) is not below _WINDOW_SIZE_CAP could
    overflow inside its bound and is left out, which only widens the
    window.
    """
    d = t.clamped
    if d is None:
        raise CriterionError(f"negative discriminant {t.disc!r}: no fan subsolution can exist")
    law, K, gamma, gm1, isothermal = t.law, t.K, t.gamma, t.gm1, t.isothermal
    rl, vl2, pl, el = t.rl, t.vl2, t.pl, t.el
    rr, vr2, pr, er = t.rr, t.vr2, t.pr, t.er
    gap, left_flux, right_flux, jump = t.gap, t.left_flux, t.right_flux, t.jump
    two_rl = 2.0 * rl
    sqrt, log, isfinite, inf = math.sqrt, math.log, math.isfinite, math.inf
    bounded = tol is not None
    if bounded:
        up, floor, size_cap = 1.0 + tol, SEARCH_DELTA_FLOOR, _WINDOW_SIZE_CAP
        eta = _WINDOW_ETA * up
    for rho1 in rho1s:
        if bounded and not rl < rho1 < rr:
            continue
        try:
            p1 = K * rho1**gamma
            e1 = K * log(rho1) if isothermal else K * rho1**gm1 / gm1
        except OverflowError:
            p1 = e1 = inf
        if not (p1 < inf and -inf < e1 < inf):
            p1, e1 = pressure(law, rho1), internal_energy(law, rho1)
        from_l, to_r, to_l = rho1 - rl, rr - rho1, rl - rho1
        root = sqrt(d * from_l * to_r)
        try:
            v12 = (left_flux * to_r - right_flux * from_l + root) / (rho1 * gap)
        except ZeroDivisionError:
            raise NumericError(f"arithmetic underflow: the v12 divisor at rho1={rho1!r}") from None
        term = jump + sqrt(d * to_r / from_l)
        try:
            d1 = -(p1 - pl) / rho1 + rl * from_l / (rho1**2 * gap**2) * term**2
        except OverflowError:
            raise NumericError(f"arithmetic overflow: delta1 at rho1={rho1!r}") from None
        except ZeroDivisionError:
            raise NumericError(f"arithmetic underflow: the delta1 divisor at rho1={rho1!r}") from None
        if not bounded:
            yield p1, e1, v12, d1
        # the left row
        dv_l = v12 - vl2
        coupling_l = rl * rho1 * dv_l / to_l
        lhs_l = dv_l * (pl + p1 - two_rl * rho1 * (el - e1) / to_l)
        rhs_l0 = d1 * rho1 * (v12 + vl2) - d1 * coupling_l
        s_l = -coupling_l
        # 0 * x is 0 for finite x and NaN for inf or NaN: one isfinite per row
        if not isfinite(0.0 * lhs_l + 0.0 * rhs_l0 + 0.0 * coupling_l):
            raise NumericError(f"the reduced conditions overflow at rho1={rho1!r}")
        if not bounded:
            yield lhs_l, rhs_l0, s_l
        elif d1 < floor:
            continue
        else:
            lo, hi = 0.0, inf
            m = lhs_l if lhs_l > 0.0 else -lhs_l
            ms = s_l if s_l > 0.0 else -s_l
            size = (rhs_l0 if rhs_l0 > 0.0 else -rhs_l0) + m + 1.0
            if (size + ms) * up < size_cap:
                c = rhs_l0 - lhs_l + eta * size - tol * (m if m > 1.0 else 1.0)
                k = s_l + eta * ms
                if k > 0.0:
                    x = -c / k
                    if x > lo:
                        lo = x
                elif k < 0.0:
                    x = -c / k
                    if x < hi:
                        hi = x
                elif not c > 0.0:
                    continue
                if lo > hi:
                    continue
        # the right row, only once the left one leaves a window
        dv_r = vr2 - v12
        from_r = rho1 - rr
        coupling_r = rho1 * rr * dv_r / from_r
        lhs_r = dv_r * (p1 + pr - 2.0 * rho1 * rr * (e1 - er) / from_r)
        rhs_r0 = -d1 * rho1 * (vr2 + v12) + d1 * coupling_r
        s_r = coupling_r
        if not isfinite(0.0 * lhs_r + 0.0 * rhs_r0 + 0.0 * coupling_r):
            raise NumericError(f"the reduced conditions overflow at rho1={rho1!r}")
        if not bounded:
            yield lhs_r, rhs_r0, s_r
            continue
        m = lhs_r if lhs_r > 0.0 else -lhs_r
        ms = s_r if s_r > 0.0 else -s_r
        size = (rhs_r0 if rhs_r0 > 0.0 else -rhs_r0) + m + 1.0
        if (size + ms) * up < size_cap:
            c = rhs_r0 - lhs_r + eta * size - tol * (m if m > 1.0 else 1.0)
            k = s_r + eta * ms
            if k > 0.0:
                x = -c / k
                if x > lo:
                    lo = x
            elif k < 0.0:
                x = -c / k
                if x < hi:
                    hi = x
            elif not c > 0.0:
                continue
            if lo > hi:
                continue
        yield rho1, (lo, hi), _ReducedRows(t, rho1, d1, (lhs_l, rhs_l0, s_l), (lhs_r, rhs_r0, s_r))


def v12_star(p: RiemannProblem, rho1: float) -> float:
    """Wedge normal velocity forced by the mass jump at the left interface;
    NumericError when it overflows, or when delta1, computed with it,
    overflows in a power or underflows in a divisor.  DomainError for a
    rho1 that is not a finite number strictly inside (rho-, rho+)."""
    rho1 = require_finite("rho1", rho1)
    v12 = next(_scan(_star_terms(p, rho1), (rho1,)))[2]
    if not math.isfinite(v12):
        raise NumericError(f"arithmetic overflow: v12 at rho1={rho1!r}")
    return v12


def reduced_from(p: RiemannProblem, rho1: float, delta2: float) -> ReducedSubsolution:
    """Assemble the reduced unknowns determined by the pair (rho1, delta2).

    The closed forms at a wedge density rho1 strictly inside (rho-, rho+):
    the interface speeds mu0 < mu1, whose square-root signs are the unique
    choice with mu0 < mu1; the wedge normal velocity v12 forced by the mass
    jump at the left interface; and the wedge normal-stress excess delta1
    forced by the momentum jump on the left.  Raises NumericError when one
    of these overflows, and DomainError for a rho1 that is not a finite
    number strictly inside (rho-, rho+) or a delta2 that is not a finite
    number; an int comes back as its float.
    """
    rho1, delta2 = require_finite("rho1", rho1), require_finite("delta2", delta2)
    t = _star_terms(p, rho1)
    _, _, v12, delta1 = next(_scan(t, (rho1,)))
    d, rl, rr = t.clamped, t.rl, t.rr
    base = (rl * t.vl2 - rr * t.vr2) / (rl - rr)
    mu0 = base + math.sqrt(d * (rr - rho1) / (rho1 - rl)) / (rl - rr)
    mu1 = base - math.sqrt(d * (rho1 - rl) / (rr - rho1)) / (rl - rr)
    # as in the entropy rows: 0 * x is NaN exactly for an inf or NaN x
    if not math.isfinite(0.0 * v12 + 0.0 * mu0 + 0.0 * mu1 + 0.0 * delta1):
        raise NumericError(f"arithmetic overflow: the closed forms at rho1={rho1!r}")
    return ReducedSubsolution(rho1, v12, mu0, mu1, delta1, delta2)


def reduced_residuals(
    p: RiemannProblem, r: ReducedSubsolution
) -> tuple[tuple[str, float, float], ...]:
    """(label, lhs, rhs) for the four jump equations of the reduced system."""
    law = p.law
    rl, vl2 = p.left.rho, p.left.v2
    rr, vr2 = p.right.rho, p.right.v2
    pl, p1, pr = pressure(law, rl), pressure(law, r.rho1), pressure(law, rr)
    flux1 = r.rho1 * (squared(r.v12) + r.delta1)
    vl2_sq, vr2_sq = squared(vl2), squared(vr2)
    return (
        ("mass-left", r.mu0 * (rl - r.rho1), rl * vl2 - r.rho1 * r.v12),
        (
            "momentum-left",
            r.mu0 * (rl * vl2 - r.rho1 * r.v12),
            rl * vl2_sq - flux1 + pl - p1,
        ),
        ("mass-right", r.mu1 * (r.rho1 - rr), r.rho1 * r.v12 - rr * vr2),
        (
            "momentum-right",
            r.mu1 * (r.rho1 * r.v12 - rr * vr2),
            flux1 - rr * vr2_sq + p1 - pr,
        ),
    )


class _ReducedRows:
    """The reduced conditions at one rho1, with the search's bits and
    errors: delta1 and both entropy rows as (lhs, rhs0, slope), each margin
    affine in delta2, so scanning many delta2 values costs a handful of
    flops each.  The search's scan builds one at each open window from the
    terms it has just computed; without them, they are drawn from the
    scan's single-point mode."""

    def __init__(self, t: _ProblemTerms, rho1: float, d1=None, left=None, right=None):
        self.rl, self.rr, self.rho1 = t.rl, t.rr, rho1
        self.window_ok = t.rl < rho1 < t.rr
        if not self.window_ok:
            return
        if left is None:
            terms = _scan(t, (rho1,))
            d1, left, right = next(terms)[3], next(terms), next(terms)
        self.d1 = d1
        self.lhs_l, self.rhs_l0, self.slope_l = left
        self.lhs_r, self.rhs_r0, self.slope_r = right

    def rows(self, delta2: float):
        """(label, margin, scale) for every reduced condition at (rho1, delta2).

        The window and positivity margins come first; the star-function
        margins are only defined (and only appended) when rho1 lies inside
        the open density window.
        """
        rl, rr, rho1 = self.rl, self.rr, self.rho1
        rows = [
            ("rho1-above-left", rho1 - rl, cert.scale_of(rl, rho1)),
            ("rho1-below-right", rr - rho1, cert.scale_of(rr, rho1)),
            ("delta2-positive", delta2, cert.scale_of(delta2)),
        ]
        if self.window_ok:
            rows.append(("delta1-positive", self.d1, cert.scale_of(self.d1)))
            rhs_l = self.rhs_l0 + delta2 * self.slope_l
            rows.append(("entropy-left", rhs_l - self.lhs_l, cert.scale_of(self.lhs_l, rhs_l)))
            rhs_r = self.rhs_r0 + delta2 * self.slope_r
            rows.append(("entropy-right", rhs_r - self.lhs_r, cert.scale_of(self.lhs_r, rhs_r)))
        return rows

    def feasible(self, delta2: float, tol: float) -> bool:
        """Every reduced condition strict at tolerance ``tol``, with both
        deltas at or above SEARCH_DELTA_FLOOR: the search's one predicate."""
        if delta2 < SEARCH_DELTA_FLOOR or not self.window_ok or self.d1 < SEARCH_DELTA_FLOOR:
            return False
        return all(margin > tol * scale for _, margin, scale in self.rows(delta2))


def check_reduced(
    p: RiemannProblem,
    rho1: float,
    delta2: float,
    *,
    tol_strict: float = STRICT_TOL,
) -> Certificate:
    """Certificate of the reduced feasibility conditions at (rho1, delta2).

    The density window, delta positivity, and the two entropy inequalities,
    the latter evaluated with the closed-form wedge quantities.  When rho1
    sits outside the open window the star functions are undefined and only
    the (failing) window margins are reported.  Raises DomainError for a
    ``tol_strict`` that is not finite and positive, and for a rho1 or
    delta2 that is not a finite number; an int is taken as its float.
    """
    tol_strict = require_positive("tol_strict", tol_strict)
    rho1, delta2 = require_finite("rho1", rho1), require_finite("delta2", delta2)
    if not p.left.rho < p.right.rho:
        raise DomainError("the reduced conditions need rho- < rho+")
    entries = []
    for label, margin, scale in _ReducedRows(_ProblemTerms(p), rho1).rows(delta2):
        kind = cert.NONSTRICT if label.startswith("entropy") else cert.STRICT
        entries.append(cert.make_entry(label, kind, margin, tol_strict * scale))
    return Certificate(tuple(entries))


def _halvings(rows: _ReducedRows, tol: float):
    """The guided stage's delta2 schedule at one rho1: both entropy margins
    are affine in delta2, so the feasible set in delta2 is an interval
    touching 0, and the schedule halves delta2 down to SEARCH_DELTA_FLOOR
    from a crude positive-root bound on the base values and slopes, or is
    empty when a base margin fails."""
    a0 = rows.rhs_l0 - rows.lhs_l
    b0 = rows.rhs_r0 - rows.lhs_r
    if not (
        a0 > tol * cert.scale_of(rows.lhs_l, rows.rhs_l0)
        and b0 > tol * cert.scale_of(rows.lhs_r, rows.rhs_r0)
    ):
        return
    denom = max(abs(rows.slope_l), abs(rows.slope_r), 1e-300)
    delta2 = min(10.0 * (abs(a0) + abs(b0)) / denom, DELTA2_CAP)
    while delta2 >= SEARCH_DELTA_FLOOR:
        yield delta2
        delta2 *= 0.5


def _guided_candidates(p, scan_points, rho1_below=math.inf):
    """The guided stage's stream: rho1 candidates mirroring the perturbation
    argument, approaching either the left density or the middle density of
    the standard solution, whichever end the left normal velocity selects.
    At most ``scan_points`` of them, drawn lazily, up to the first step
    ``gap * 0.5**k`` that underflows to 0.0 (by k = 1075): every later one
    would equal that one.  A candidate at or above ``rho1_below``, or equal
    to the one yielded before it, is dropped in the same frame.  The middle
    density comes from the S1R3 bisection alone, the bits of
    ``solve_standard(p).middle.rho`` without its waves."""
    if classify(p) is not CaseId.S1R3:
        return
    rl = p.left.rho
    rho_m = _solve_middle_density(p, CaseId.S1R3)
    jump = shock_bracket(p.law, rl, rho_m)
    threshold = rho_m * jump / (2.0 * (rho_m - rl))
    gap = rho_m - rl
    from_left = p.left.v2 > threshold
    previous = None
    for k in range(1, scan_points + 1):
        step = gap * 0.5**k
        rho1 = rl + step if from_left else rho_m - step
        if rho1 != previous and rho1 < rho1_below:
            previous = rho1
            yield rho1
        if step == 0.0:
            return


@functools.lru_cache(maxsize=4)
def _rho1_exponents(grid: int) -> tuple[float, ...]:
    """(i + 0.5) / grid for each grid index i: rho1 = rho- * ratio**x."""
    return tuple((i + 0.5) / grid for i in range(grid))


def _grid_below(rl: float, ratio: float, grid: int, rho1_below: float):
    """The grid stage's ascending rho1, up to the first at or above
    ``rho1_below``, drawn by C-level iterators: no Python frame per rho1.
    operator.mul and operator.gt, not bound methods of rl or rho1_below,
    which an int would answer with NotImplemented."""
    rho1s = map(operator.mul, repeat(rl), map(operator.pow, repeat(ratio), _rho1_exponents(grid)))
    return takewhile(functools.partial(operator.gt, rho1_below), rho1s)


def _stage(t: _ProblemTerms, rho1s, tol: float, points=None) -> tuple[float, float] | None:
    """The first (rho1, delta2) hit of one scan of a stage's stream ``rho1s``;
    nothing after it is drawn.  At each open window the stage walks the
    delta2 of ``points`` in their order, or the guided schedule
    (``_halvings``) when ``points`` is None, and runs the predicate only at
    those inside the window: it fails outside, so the first hit is that of
    walking every point."""
    for rho1, (lo, hi), rows in _scan(t, rho1s, tol):
        for d in _halvings(rows, tol) if points is None else points:
            if lo <= d <= hi and rows.feasible(d, tol):
                return rho1, d
    return None


@functools.lru_cache(maxsize=4)
def _delta2_grid(grid: int) -> tuple[float, ...]:
    """The grid stage's ascending delta2 points, log-spaced between
    SEARCH_DELTA_FLOOR and DELTA2_CAP."""
    lo_exp = math.log10(SEARCH_DELTA_FLOOR)
    hi_exp = math.log10(DELTA2_CAP)
    return tuple(
        10.0 ** (lo_exp + (hi_exp - lo_exp) * (j + 0.5) / grid) for j in range(grid)
    )


def search_feasible(
    p: RiemannProblem,
    *,
    scan_points: int = 64,
    grid: int = 128,
    tol_strict: float = STRICT_TOL,
    rho1_below: float = math.inf,
) -> tuple[float, float] | None:
    """Deterministic search for a strictly feasible pair (rho1, delta2).

    Two stages, both with fixed scan orders so results are reproducible
    byte for byte.  First a guided scan walks rho1 geometrically toward the
    end of the (rho-, rho_m) interval suggested by the left velocity, and for
    each candidate halves delta2 downward from an affine upper bound.  If
    that fails, a full log-spaced grid over (rho1, delta2) is tried.  The
    first feasible point in scan order wins.  Returned points additionally
    keep both deltas above SEARCH_DELTA_FLOOR so that the lifted full
    solution is strict at tolerance, not just the reduced one.

    Only rho1 strictly below ``rho1_below`` is tried: a guided candidate at
    or above it is skipped, and the ascending grid stops at its first rho1
    at or above it.  A guided candidate equal to the one before it (the
    geometric approach stops moving at roundoff) is skipped too, since it
    has the same answer.

    Returns None when nothing feasible is found; an empty result is a
    certified outcome of this search, not an error.  Raises CriterionError
    when the discriminant is negative or zero up to rounding (within
    STRICT_TOL of its larger term), as on single-shock data, where both fan
    speeds coincide.  Raises NumericError when the discriminant or, before
    the grid stage, the density ratio rho+/rho- overflows, and when v12,
    delta1 or an entropy row computed at some rho1 is inf or NaN.  Each
    stage walks its rho1 in one ``_scan``, which decides the left entropy
    row first, so a right row that would overflow at a rho1 the left row
    already refuses is never computed and cannot raise, and a stage draws
    nothing after its first hit.  Raises DomainError for ``scan_points``
    below 1 or ``grid`` below 2, where nothing or a single point would be
    searched, for ``grid`` above GRID_MAX, whose grid would not fit in
    memory or time, for a ``tol_strict`` that is not finite and positive,
    where no point could pass and the empty result would certify nothing,
    for a ``rho1_below`` that is not an int or a float, or is NaN or at or
    below rho-, or at or below every guided candidate and the first grid
    rho1, each of which leaves no rho1 to search, and for data with rho- >
    rho+, whose density window is empty: rotate_180 them first.
    """
    scan_points = require_count("scan_points", scan_points, *SEARCH_SIZES["scan_points"])
    grid = require_count("grid", grid, *SEARCH_SIZES["grid"])
    tol_strict = require_positive("tol_strict", tol_strict)
    if not is_number(rho1_below) or not rho1_below > p.left.rho:
        raise DomainError(f"rho1_below must be a number above rho-={p.left.rho!r}, got {rho1_below!r}")
    t = _ProblemTerms(p)
    if t.disc <= t.disc_noise:
        raise CriterionError(
            f"the search requires a positive discriminant, got {t.disc!r}: "
            "zero up to rounding, or negative"
        )
    rl, rr = t.rl, t.rr
    if not rl < rr:
        raise DomainError("the search needs rho- < rho+; rotate the problem first")
    # most windows are empty: no rows are built and no delta2 is drawn there
    guided = _guided_candidates(p, scan_points, rho1_below)
    first = next(guided, None)
    if first is not None:
        found = _stage(t, chain((first,), guided), tol_strict)
        if found is not None:
            return found
    delta2_grid = _delta2_grid(grid)
    ratio = rr / rl
    if not math.isfinite(ratio):
        raise NumericError(f"arithmetic overflow: the density ratio {rr!r}/{rl!r}")
    rho1s = _grid_below(rl, ratio, grid, rho1_below)
    if first is None:
        # neither stage would draw a rho1: None would certify a search over nothing
        first = next(rho1s, None)
        if first is None:
            raise DomainError(f"no guided or grid rho1 lies below rho1_below={rho1_below!r}")
        rho1s = chain((first,), rho1s)
    return _stage(t, rho1s, tol_strict, delta2_grid)


def lift_to_full(p: RiemannProblem, r: ReducedSubsolution) -> FanSubsolution:
    """Reconstruct the full wedge unknowns from a reduced solution.

    The tangential velocity is inherited from the data, the off-diagonal
    stress entry pairs it with the normal velocity, and C1 and u11 place the
    two positivity gaps at exactly delta1 and delta2.  The reconstruction is
    validated operationally: every lifted solution must pass verify_full.
    """
    if not (r.delta1 > 0.0 and r.delta2 > 0.0):
        raise InvariantError("the lift needs positive delta1 and delta2")
    w1 = p.left.v1
    v12_sq = squared(r.v12)
    c1 = squared(w1) + v12_sq + r.delta1 + r.delta2
    u11 = 0.5 * c1 - v12_sq - r.delta1
    u12 = w1 * r.v12
    return FanSubsolution(
        rho1=r.rho1,
        v11=w1,
        v12=r.v12,
        u11=u11,
        u12=u12,
        c1=c1,
        mu0=r.mu0,
        mu1=r.mu1,
    )


def extract_deltas(f: FanSubsolution) -> tuple[float, float]:
    """Recover (delta1, delta2) from the full unknowns; inverse of the lift."""
    v12_sq = squared(f.v12)
    d1 = 0.5 * f.c1 - v12_sq - f.u11
    return d1, f.c1 - squared(f.v11) - v12_sq - d1


def verify_full(
    p: RiemannProblem,
    f: FanSubsolution,
    *,
    tol_eq: float = EQUATION_TOL,
    tol_strict: float = STRICT_TOL,
) -> Certificate:
    """Certificate of the full condition system: speed ordering, the six jump
    equations of both interfaces, the two pointwise subsolution inequalities,
    and the two interface entropy inequalities.  Every violation is reported
    as a failing entry; float overflow is not: a squared velocity above about
    1e154, or an overflowing pressure or energy, raises NumericError, and a
    tolerance that is not finite and positive raises DomainError."""
    tol_eq = require_positive("tol_eq", tol_eq)
    tol_strict = require_positive("tol_strict", tol_strict)
    law = p.law
    rl, vl1, vl2 = p.left.rho, p.left.v1, p.left.v2
    rr, vr1, vr2 = p.right.rho, p.right.v1, p.right.v2
    r1, w1, w2 = f.rho1, f.v11, f.v12
    pl, p1, pr = pressure(law, rl), pressure(law, r1), pressure(law, rr)
    el, e1, er = (
        internal_energy(law, rl),
        internal_energy(law, r1),
        internal_energy(law, rr),
    )
    w1_sq, w2_sq = squared(w1), squared(w2)
    vl1_sq, vl2_sq, vr1_sq, vr2_sq = squared(vl1), squared(vl2), squared(vr1), squared(vr2)
    cross_sq = squared(f.u12 - w1 * w2)
    half_c = 0.5 * f.c1
    entries = [
        cert.strict("speed-order", f.mu1 - f.mu0, tol_strict, f.mu0, f.mu1),
        cert.equation("mass-left", f.mu0 * (rl - r1), rl * vl2 - r1 * w2, tol_eq),
        cert.equation(
            "momentum-tangential-left",
            f.mu0 * (rl * vl1 - r1 * w1),
            rl * vl1 * vl2 - r1 * f.u12,
            tol_eq,
        ),
        cert.equation(
            "momentum-normal-left",
            f.mu0 * (rl * vl2 - r1 * w2),
            rl * vl2_sq + r1 * f.u11 + pl - p1 - r1 * half_c,
            tol_eq,
        ),
        cert.equation("mass-right", f.mu1 * (r1 - rr), r1 * w2 - rr * vr2, tol_eq),
        cert.equation(
            "momentum-tangential-right",
            f.mu1 * (r1 * w1 - rr * vr1),
            r1 * f.u12 - rr * vr1 * vr2,
            tol_eq,
        ),
        cert.equation(
            "momentum-normal-right",
            f.mu1 * (r1 * w2 - rr * vr2),
            -r1 * f.u11 - rr * vr2_sq + p1 - pr + r1 * half_c,
            tol_eq,
        ),
        cert.strict(
            "kinetic-energy-bound",
            f.c1 - w1_sq - w2_sq,
            tol_strict,
            f.c1,
            w1_sq + w2_sq,
        ),
        cert.strict(
            "subsolution-definiteness",
            (half_c - w1_sq + f.u11) * (half_c - w2_sq - f.u11) - cross_sq,
            tol_strict,
            half_c - w1_sq + f.u11,
            half_c - w2_sq - f.u11,
            cross_sq,
        ),
    ]
    kl = 0.5 * (vl1_sq + vl2_sq)
    kr = 0.5 * (vr1_sq + vr2_sq)
    lhs_al = f.mu0 * (rl * el + rl * kl - r1 * e1 - r1 * half_c)
    rhs_al = (rl * el + pl) * vl2 - (r1 * e1 + p1) * w2 + rl * vl2 * kl - r1 * w2 * half_c
    entries.append(cert.nonstrict("entropy-left", rhs_al - lhs_al, tol_strict, lhs_al, rhs_al))
    lhs_ar = f.mu1 * (r1 * e1 + r1 * half_c - rr * er - rr * kr)
    rhs_ar = (r1 * e1 + p1) * w2 - (rr * er + pr) * vr2 + r1 * w2 * half_c - rr * vr2 * kr
    entries.append(cert.nonstrict("entropy-right", rhs_ar - lhs_ar, tol_strict, lhs_ar, rhs_ar))
    return Certificate(tuple(entries))
