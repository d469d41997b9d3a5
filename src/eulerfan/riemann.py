"""Classification and exact solution of the planar Riemann problem with equal
tangential velocities, plus jump-condition and entropy verification of the
computed solution."""

from __future__ import annotations

import math
from enum import Enum

from . import certificate as cert
from .certificate import Certificate
from .eos import GasLaw, internal_energy, pressure
from .errors import (
    FLOAT_MAX, BracketError, DomainError, EulerFanError, InvariantError, NumericError, Record, require_finite,
    require_positive, squared,
)
from .wavecurves import (
    State,
    lambda1,
    lambda3,
    pure_shock_speed,
    rarefaction_integral,
    shock_bracket,
)

# Half-width, relative to scale, of the band around each case-separating
# equality inside which data is treated as sitting exactly on the boundary.
# Classifications inside the band are numerically ambiguous and are surfaced
# as near-boundary notes in the verification certificate.
BOUNDARY_BAND = 1e-12

# Relative tolerance on the middle-state scalar equation after bisection.
MIDDLE_EQUATION_TOL = 1e-11

# Default certificate tolerances.
EQUATION_TOL = 1e-9
STRICT_TOL = 1e-12

SHOCK = "shock"
RAREFACTION = "rarefaction"

# The lowest float, for the velocity jump's test against the floats
_LOWEST = -FLOAT_MAX


class CaseId(str, Enum):
    """Wave pattern of the exact solution.

    The two-wave patterns name the first (left-moving) and third
    (right-moving) family in order; the single-wave patterns leave the family
    to the density ordering.  For gamma = 1 the vacuum pattern cannot occur:
    the rarefaction integral down to the vacuum diverges, so no finite
    velocity jump reaches it.
    """

    CONSTANT = "Constant"
    R1R3_VACUUM = "R1R3Vacuum"
    R1R3 = "R1R3"
    SINGLE_R = "SingleR"
    R1S3 = "R1S3"
    S1R3 = "S1R3"
    SINGLE_S = "SingleS"
    S1S3 = "S1S3"


# Two-wave patterns: (1-wave kind, 3-wave kind).  The middle-state equation,
# the middle velocity and the wave assembly all read this one table.
WAVE_KINDS = {
    CaseId.R1R3: (RAREFACTION, RAREFACTION),
    CaseId.R1S3: (RAREFACTION, SHOCK),
    CaseId.S1R3: (SHOCK, RAREFACTION),
    CaseId.S1S3: (SHOCK, SHOCK),
}


class Wave(Record):
    """One wave of the solution fan.

    ``speeds`` is (sigma,) for a shock and (head, tail) for a rarefaction,
    head being the left edge of the fan.
    """

    _fields = ("family", "kind", "speeds")

    def __init__(self, family: int, kind: str, speeds: tuple[float, ...]):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "speeds", speeds)

    @property
    def leftmost(self) -> float:
        return self.speeds[0]

    @property
    def rightmost(self) -> float:
        return self.speeds[-1]


class RiemannProblem(Record):
    _fields = ("law", "left", "right")

    def __init__(self, law: GasLaw, left: State, right: State):
        if not (isinstance(law, GasLaw) and isinstance(left, State) and isinstance(right, State)):
            raise DomainError("a Riemann problem takes a GasLaw and two States")
        if left.rho <= 0.0 or right.rho <= 0.0:
            raise DomainError("initial states need positive density")
        for v in (left.v1, left.v2, right.v1, right.v2):
            require_finite("initial velocity", v)
        if left.v1 != right.v1:
            raise DomainError("tangential velocities must agree on both sides")
        object.__setattr__(self, "law", law)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def dv(self) -> float:
        """Normal velocity jump v+2 - v-2, the classification coordinate;
        NumericError when it overflows, as an int jump beyond the floats
        does."""
        dv = self.right.v2 - self.left.v2
        if _LOWEST <= dv <= FLOAT_MAX:
            return dv
        raise NumericError(f"arithmetic overflow: the velocity jump {self.right.v2!r:.40} - {self.left.v2!r:.40}")


class StandardSolution(Record):
    _fields = ("case", "middle", "waves")

    def __init__(self, case: CaseId, middle: State | None, waves: tuple[Wave, ...]):
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "middle", middle)
        object.__setattr__(self, "waves", waves)


def _band(*terms: float) -> float:
    return BOUNDARY_BAND * cert.scale_of(*terms)


def _shock_threshold(p: RiemannProblem) -> float:
    return -shock_bracket(p.law, p.left.rho, p.right.rho)


def _rarefaction_threshold(p: RiemannProblem) -> float:
    return abs(rarefaction_integral(p.law, p.left.rho, p.right.rho))


def _vacuum_threshold(p: RiemannProblem) -> float | None:
    if p.law.isothermal:
        return None
    return rarefaction_integral(p.law, 0.0, p.left.rho) + rarefaction_integral(
        p.law, 0.0, p.right.rho
    )


def classify(p: RiemannProblem) -> CaseId:
    """Decide which wave pattern the exact solution has.

    The decision walks the velocity jump dv = v+2 - v-2 upward through three
    thresholds: the (negated) shock bracket -S of the data densities, the
    absolute rarefaction integral |I| between them, and the vacuum threshold
    I0 (sum of the two integrals down to the vacuum).  Below -S: two shocks;
    at -S: a single shock; between: one shock and one rarefaction, the order
    fixed by which density is larger; at |I|: a single rarefaction; between
    |I| and I0: two rarefactions; at or above I0: two rarefactions around a
    vacuum.  Boundary equalities are resolved inside a symmetric band of
    BOUNDARY_BAND * scale.  For gamma = 1 the vacuum threshold is infinite
    and the vacuum pattern is structurally impossible.
    """
    dv = p.dv
    rl, rr = p.left.rho, p.right.rho
    if abs(rl - rr) <= _band(rl, rr) and abs(dv) <= _band(dv):
        return CaseId.CONSTANT
    t_s = _shock_threshold(p)
    if abs(dv - t_s) <= _band(dv, t_s):
        return CaseId.SINGLE_S
    if dv < t_s:
        return CaseId.S1S3
    t_r = _rarefaction_threshold(p)
    if abs(dv - t_r) <= _band(dv, t_r):
        return CaseId.SINGLE_R
    if dv < t_r:
        return CaseId.R1S3 if rl > rr else CaseId.S1R3
    t_v = _vacuum_threshold(p)
    if t_v is not None and (dv > t_v or abs(dv - t_v) <= _band(dv, t_v)):
        return CaseId.R1R3_VACUUM
    return CaseId.R1R3


def _near_thresholds(p: RiemannProblem) -> list[tuple[str, float]]:
    """(name, threshold) of every case-separating equality whose band holds dv."""
    dv = p.dv
    out = []
    for name, threshold in (
        ("single-shock", _shock_threshold(p)),
        ("single-rarefaction", _rarefaction_threshold(p)),
        ("vacuum", _vacuum_threshold(p)),
    ):
        if threshold is not None and abs(dv - threshold) <= _band(dv, threshold):
            out.append((name, threshold))
    return out


def near_boundaries(p: RiemannProblem) -> tuple[str, ...]:
    """Names of case-separating equalities that dv sits within the band of."""
    return tuple(name for name, _ in _near_thresholds(p))


def rotate_180(p: RiemannProblem) -> RiemannProblem:
    """Rotate the plane half a turn: sides swap and velocities flip sign.

    An involution; it exchanges the shock+rarefaction patterns R1S3 and S1R3
    and swaps the family of single waves while fixing every other case.
    """
    new_left = State(p.right.rho, -p.right.v1, -p.right.v2)
    new_right = State(p.left.rho, -p.left.v1, -p.left.v2)
    return RiemannProblem(p.law, new_left, new_right)


# Unit roundoff of a double, the u of the standard model.
_U = 2.0**-53
# The bisection stops at a width of at most 1e-13 of its initial width and
# at most this fraction of its lower end.
_RELATIVE_WIDTH = 2.0**-36
# Regula falsi steps that estimate the root before the walk.
_ESTIMATE_STEPS = 12
# Coefficient of max |f| over an interval's ends in the rounding bound E.
_ERROR_SLOPE = 22.0 * _U


def _bisect(f, lo, hi, flo, fhi, e0):
    """Bisection of f on [lo, hi], from flo = f(lo) and fhi = f(hi), until
    the width is at most 1e-13 * (hi - lo) and at most 2**-36 times its
    lower end, or the ends are adjacent floats.  A midpoint where f is 0.0
    is returned.  BracketError when flo and fhi do not change sign.

    f returns finite values only.  Each kernel raises instead of returning
    an inf or a NaN, so a shock bracket or sound speed is at most
    sqrt(DBL_MAX) ~ 1.34e154 and a rarefaction integral at most
    2/GAMMA_ONE_BAND times that, ~ 2.7e166 (745 times it at gamma = 1): the
    finite dv plus less than 6e166 cannot round past the largest float.

    With e0 (from _rounding_bound) the walk takes the same midpoints and
    returns the same float, but calls f only at midpoints whose sign is not
    proven.  _proven_span returns a and b: f > 0 at every midpoint up to a,
    f < 0 at every midpoint from b on.  Those midpoints move lo or hi
    without a call; the ones strictly between a and b are evaluated.

    The proof.  f is the residual r(m) = (s1*g1(m) + s3*g3(m)) - dv of
    middle_equation, each g the kernel between m and its data density rho_b.
    Let R be the same expression in exact arithmetic, with the law
    constants, dv, a rarefaction's factor and sound speed speed_b at rho_b
    as floats (each call recomputes them to the same float) and the exact
    p(rho_b) = K*rho_b**gamma of a shock.  On the brackets of
    _solve_middle_density a shock's trial density m is at or above its
    rho_b and a rarefaction's at or below (_rounding_bound checks it), so
    every term s*g is monotone in m and R is nonincreasing.  Let E bound
    |r - R| on [x1, x2].  If f(x2) > 2E, then for every m in [x1, x2]:
    f(m) >= R(m) - E >= R(x2) - E >= f(x2) - 2E > 0.  So f(m) is positive
    and not 0.0, and the plain walk would have moved lo there as well.
    Likewise f(x1) < -2E proves f < 0 on [x1, x2].

    The bound.  The standard model (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 2-3): fl(x op y) = (x op y)(1 + d), |d| <= u
    = 2**-53, for + - * / and sqrt.  ``**`` and math.log are assumed
    accurate to 1 ulp, a relative error of at most 2u.  To first order in
    u, with G the exact term:
    - a shock: p(m) and p(rho_b) are each within 3u, so their difference
      is within 3u*(p(m) + p(rho_b)), and the quotient under the root is
      within 5u*G**2 + 3u*(p(m) + p(rho_b))*(m - rho_b)/(m*rho_b).  After
      the root, |g - G| <= 9u*G + 6u*p(rho_b)/sqrt(m*rho_b*s), where s is
      the secant slope of p from rho_b to m.  p is convex, so s >= p'(rho_b)
      and the cancellation in p(m) - p(rho_b) costs at most 6u*c/gamma,
      c = sqrt(p'(rho_b)).
    - a rarefaction, gamma > 1: the sound speed at m is within 2.5u and at
      most speed_b, so |g - G| <= 3u*factor*speed_b + 2u*|G|.
    - a rarefaction, gamma = 1: |g - G| <= u*sqrt(K) + 3u*|G|.
    - the sum and dv add 2u*(|G1| + |G3|) + u*|dv|.
    So |r - R| <= u*(C + |dv| + 11*(|G1| + |G3|)), C the sum of the parts
    that do not scale with G.  Each |G| is monotone on [x1, x2], and their
    sum is bounded by values at its ends.  When both terms have one sign
    (R1R3, S1S3), the sum is |R + dv|.  Otherwise it is at most
    2L + |R| + |dv|, L the rarefaction term's largest magnitude on the
    bracket.  |R| is largest at an end, since R is monotone, and is within
    E of |f| there.  So E = e0 + 22u*max(|f(x1)|, |f(x2)|) with
    e0 = 2u*(C + 12|dv| + 22L) + 2**-430 (L = 0 with one sign).  The
    factor 2 covers the second-order terms, |f| in place of |R|, and the
    rounding of E itself.

    Ranges.  _rounding_bound gives no e0 unless every density involved is
    within 2**+-100, each of its powers m**gamma within 2**+-450, K and
    K*gamma within 2**+-300, and |dv| <= 2**1000.  Inside those ranges no
    operation overflows, and only a product or quotient after a
    cancellation can underflow; after the root, the underflows add less
    than 2**-430.  No evaluation in [lo, hi] can raise there either.  A
    midpoint that is not evaluated lies between lo and hi, which were
    evaluated without raising, and so could not have raised.  Should an
    estimate or guard raise anyway, the plain walk runs.  Where nothing is
    proven on a side, a or b stays at its end of the bracket, and the walk
    evaluates every midpoint on that side as before.
    """
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise BracketError(lo, hi)
    a, b = lo, hi
    if e0 is not None and flo > 0.0 > fhi:
        try:
            a, b = _proven_span(f, lo, hi, flo, fhi, e0)
        except (EulerFanError, ArithmeticError):
            pass
    target, relative = 1e-13 * (hi - lo), _RELATIVE_WIDTH
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= a:
            if mid <= lo:
                break
            lo = mid
        elif mid >= b:
            if mid >= hi:
                break
            hi = mid
        else:
            if mid <= lo or mid >= hi:
                break
            fm = f(mid)
            if fm == 0.0:
                return mid
            if (fm > 0.0) == (flo > 0.0):
                lo, flo = mid, fm
            else:
                hi, fhi = mid, fm
        width = hi - lo
        if width <= target and width <= relative * lo:
            break
    return 0.5 * (lo + hi)


def _proven_span(f, lo, hi, flo, fhi, e0):
    """(a, b) such that f > 0 is proven on [lo, a] and f < 0 on [b, hi];
    flo > 0 > fhi.  Regula falsi with Anderson-Bjorck weights (a variant
    of the Illinois rule) estimates the root until |f| is within a few E
    of 0.  Its last two points are candidates for a and b, and so are two
    guards just below and just above the estimate, four times E over the
    secant slope away.  The steps keep f0 > 0 > f1 and x0 < x1, so the
    slope is positive or +inf (one that underflowed to 0.0 would raise
    ZeroDivisionError, which _bisect catches)."""
    slope_e = _ERROR_SLOPE
    left_e, right_e = e0 + slope_e * flo, e0 - slope_e * fhi
    x0, f0, x1, f1 = lo, flo, hi, fhi
    w0, w1 = f0, f1  # the weights of the two ends
    side = 0
    root = None
    for _ in range(_ESTIMATE_STEPS):
        x = x0 + (x1 - x0) * (w0 / (w0 - w1))
        if not x0 < x < x1:
            break
        fx = f(x)
        if fx > 0.0:
            if side > 0:
                scale = 1.0 - fx / f0
                w1 *= scale if scale > 0.0 else 0.5
            x0, f0, w0, side = x, fx, fx, 1
            if fx <= 8.0 * left_e:
                break
        elif fx < 0.0:
            if side < 0:
                scale = 1.0 - fx / f1
                w0 *= scale if scale > 0.0 else 0.5
            x1, f1, w1, side = x, fx, fx, -1
            if -fx <= 8.0 * right_e:
                break
        else:  # 0.0
            root = x
            break
    a = x0 if f0 > 2.0 * (e0 + slope_e * max(flo, f0)) else lo
    b = x1 if f1 < -2.0 * (e0 - slope_e * min(fhi, f1)) else hi
    slope = (f0 - f1) / (x1 - x0)
    if root is None:
        root = x0 + f0 / slope
    for x in (root - 4.0 * left_e / slope, root + 4.0 * right_e / slope):
        if a < x < b:
            fx = f(x)
            if fx > 2.0 * (e0 + slope_e * max(flo, fx)):
                a = x
            elif fx < -2.0 * (e0 - slope_e * min(fhi, fx)):
                b = x
    return a, b


# Per wave kind, (sign, g): sign * g(law, m, rho) is the normal-velocity
# change from density rho to m (a factor of +-1.0 rounds nothing).  Bound at
# import, so a tracer that rebinds this module's kernels does not count each
# residual evaluation.
_VELOCITY_CHANGE = {RAREFACTION: (1.0, rarefaction_integral), SHOCK: (-1.0, shock_bracket)}


def middle_equation(p: RiemannProblem, case: CaseId):
    """The case's scalar equation in rho_m, as residual(rho_m) with root at
    the intermediate density; strictly decreasing in rho_m."""
    if case not in WAVE_KINDS:
        raise InvariantError(f"case {case.value} has no middle-state equation")
    law, rl, rr, dv = p.law, p.left.rho, p.right.rho, p.dv
    k1, k3 = WAVE_KINDS[case]
    s1, g1 = _VELOCITY_CHANGE[k1]
    s3, g3 = _VELOCITY_CHANGE[k3]
    return lambda m: (s1 * g1(law, m, rl) + s3 * g3(law, m, rr)) - dv


def _solve_middle_density(p: RiemannProblem, case: CaseId) -> float:
    """The case's middle density: _bisect on the residual of
    middle_equation over a bracket.  Shock+rarefaction cases bracket
    between the data densities; two shocks double the upper end from the
    larger one until the residual is negative; two rarefactions bracket
    [1e-14 * m, m], m the smaller density, and step the bracket down by
    1e-14 while the residual is negative at both ends (NumericError when
    its lower end underflows to 0.0)."""
    rl, rr = p.left.rho, p.right.rho
    f = middle_equation(p, case)
    if case == CaseId.R1R3:
        hi = min(rl, rr)
        lo = 1e-14 * hi
        flo, fhi = f(lo), f(hi)
        while flo < 0.0 and fhi < 0.0:
            # the root lies below the bracket: step it down
            lo, hi, fhi = 1e-14 * lo, lo, flo
            if lo == 0.0:
                raise NumericError("arithmetic underflow: the middle density")
            flo = f(lo)
    elif case in (CaseId.R1S3, CaseId.S1R3):
        lo, hi = min(rl, rr), max(rl, rr)
        flo, fhi = f(lo), f(hi)
    else:
        # two shocks: double the upper end until the sign flips
        lo = max(rl, rr)
        hi = 2.0 * lo
        for _ in range(60):
            fhi = f(hi)
            if fhi < 0.0:
                break
            hi *= 2.0
        else:
            raise BracketError(lo, hi)
        flo = f(lo)
    return _bisect(f, lo, hi, flo, fhi, _rounding_bound(p, case, lo, hi))


def _rounding_bound(p: RiemannProblem, case: CaseId, lo: float, hi: float) -> float | None:
    """e0 of the rounding bound E of the case's residual on [lo, hi] (see
    _bisect for the proof), or None outside the ranges the proof needs or
    where a shock's trial densities are not at or above its data density,
    or a rarefaction's not at or below."""
    law = p.law
    K, gamma = law.K, law.gamma
    rl, rr = p.left.rho, p.right.rho
    dv = abs(p.dv)
    # every density within 2**+-100, and each of its powers within 2**+-450
    limit = 2.0**100 if gamma <= 4.5 else 2.0 ** (450.0 / gamma)
    if not (
        min(lo, rl, rr) * limit >= 1.0
        and max(hi, rl, rr) <= limit
        and 2.0**-300 <= K
        and K * gamma <= 2.0**300
        and dv <= 2.0**1000
    ):
        return None
    k1, k3 = WAVE_KINDS[case]
    scale = 12.0 * dv
    for kind, rb in ((k1, rl), (k3, rr)):
        if kind == SHOCK:
            if not rb <= lo:
                return None
            scale += 6.0 * math.sqrt(K / gamma * rb ** (gamma - 1.0))
            continue
        if not hi <= rb:
            return None
        if law.isothermal:
            largest = math.sqrt(K)
            scale += largest
            largest *= math.log(rb / lo)
        else:
            largest = 2.0 / (gamma - 1.0) * math.sqrt(K * gamma * rb ** (gamma - 1.0))
            scale += 3.0 * largest
        if k1 != k3:
            scale += 22.0 * largest
    return 2.0 * _U * scale + 2.0**-430


def _wave(law: GasLaw, family: int, kind: str, a: State, b: State) -> Wave:
    """The wave of ``family`` and ``kind`` joining state a (left) to b."""
    if kind == SHOCK:
        return Wave(family, SHOCK, (pure_shock_speed(a, b),))
    lam = lambda1 if family == 1 else lambda3
    return Wave(family, RAREFACTION, (lam(law, a), lam(law, b)))


def solve_standard(p: RiemannProblem) -> StandardSolution:
    """Solve for the middle state and wave speeds of the classified pattern.

    Middle densities come from bisection on the strictly monotone case
    equation; rarefaction edges are characteristic speeds of their endpoint
    states and shock speeds come from the mass jump relation.  Every speed
    and the middle velocity are finite: pure_shock_speed raises rather than
    overflow, and every other one is a finite velocity plus or minus one
    kernel value, below ~ 2.7e166 (see _bisect).  The vacuum's middle
    velocity is undefined, and NaN.
    """
    case = classify(p)
    law = p.law
    ul, ur = p.left, p.right
    rl, rr = ul.rho, ur.rho
    v1 = ul.v1
    middle = None

    if case == CaseId.CONSTANT:
        return StandardSolution(case, None, ())

    if case == CaseId.SINGLE_R:
        waves = (_wave(law, 1 if rl > rr else 3, RAREFACTION, ul, ur),)
    elif case == CaseId.SINGLE_S:
        waves = (_wave(law, 1 if rl < rr else 3, SHOCK, ul, ur),)
    elif case == CaseId.R1R3_VACUUM:
        tail1 = ul.v2 + rarefaction_integral(law, 0.0, rl)
        head3 = ur.v2 - rarefaction_integral(law, 0.0, rr)
        middle = State(0.0, v1, math.nan)  # velocity undefined across the vacuum
        w1 = Wave(1, RAREFACTION, (lambda1(law, ul), tail1))
        w3 = Wave(3, RAREFACTION, (head3, lambda3(law, ur)))
        waves = (w1, w3)
    else:
        k1, k3 = WAVE_KINDS[case]
        rho_m = _solve_middle_density(p, case)
        sign, change = _VELOCITY_CHANGE[k1]
        middle = State(rho_m, v1, ul.v2 + sign * change(law, rho_m, rl))
        waves = (_wave(law, 1, k1, ul, middle), _wave(law, 3, k3, middle, ur))
    return StandardSolution(case, middle, waves)


def _energy_density(law: GasLaw, s: State) -> float:
    kinetic = 0.5 * s.rho * (squared(s.v1) + squared(s.v2))
    return s.rho * internal_energy(law, s.rho) + kinetic


def _shock_entries(law, ul, ur, sigma, prefix, tol_eq, tol_strict):
    pl, pr = pressure(law, ul.rho), pressure(law, ur.rho)
    ql, qr = squared(ul.v2), squared(ur.v2)
    entries = [
        cert.equation(
            prefix + ".mass",
            sigma * (ul.rho - ur.rho),
            ul.rho * ul.v2 - ur.rho * ur.v2,
            tol_eq,
        ),
        cert.equation(
            prefix + ".momentum-tangential",
            sigma * (ul.rho * ul.v1 - ur.rho * ur.v1),
            ul.rho * ul.v1 * ul.v2 - ur.rho * ur.v1 * ur.v2,
            tol_eq,
        ),
        cert.equation(
            prefix + ".momentum-normal",
            sigma * (ul.rho * ul.v2 - ur.rho * ur.v2),
            ul.rho * ql + pl - ur.rho * qr - pr,
            tol_eq,
        ),
    ]
    el = _energy_density(law, ul)
    er = _energy_density(law, ur)
    fl = (el + pl) * ul.v2
    fr = (er + pr) * ur.v2
    production = sigma * (el - er) - (fl - fr)
    entries.append(
        cert.nonstrict(
            prefix + ".entropy-production", -production, tol_strict, el, er, fl, fr
        )
    )
    return entries


def _rarefaction_entries(law, ul, ur, wave, prefix, tol_eq, tol_strict):
    if wave.family == 1:
        integral = rarefaction_integral(law, ur.rho, ul.rho)
    else:
        integral = rarefaction_integral(law, ul.rho, ur.rho)
    head, tail = wave.speeds
    return [
        cert.equation(prefix + ".velocity-curve", ur.v2 - ul.v2, integral, tol_eq),
        cert.nonstrict(prefix + ".fan-width", tail - head, tol_strict, head, tail),
    ]


def verify_standard(
    p: RiemannProblem,
    s: StandardSolution,
    *,
    tol_eq: float = EQUATION_TOL,
    tol_strict: float = STRICT_TOL,
) -> Certificate:
    """Certify a standard solution against its defining relations.

    Per shock, the three jump-condition residuals and the entropy production
    (which must be nonpositive); per rarefaction, the integral relation
    between its endpoint states; plus fan ordering and, for data inside the
    classification band of a boundary, informational near-boundary notes.
    Problems are reported in the certificate, except float overflow: a
    squared velocity above about 1e154, or an overflowing pressure or energy,
    raises NumericError, and a tolerance that is not finite and positive
    raises DomainError.
    """
    tol_eq = require_positive("tol_eq", tol_eq)
    tol_strict = require_positive("tol_strict", tol_strict)
    law = p.law
    entries = []
    dv = p.dv
    for name, t in _near_thresholds(p):
        entries.append(
            cert.nonstrict(f"near-boundary({name})", abs(dv - t), tol_strict, dv, t)
        )

    if s.case in WAVE_KINDS:
        residual = middle_equation(p, s.case)(s.middle.rho)
        entries.append(
            cert.make_entry(
                "middle-density-equation",
                cert.EQUATION,
                residual,
                MIDDLE_EQUATION_TOL * cert.scale_of(dv),
            )
        )

    if s.case == CaseId.R1R3_VACUUM:
        w1, w3 = s.waves
        for prefix, gap, rho in (
            ("rarefaction1", w1.speeds[1] - p.left.v2, p.left.rho),
            ("rarefaction3", p.right.v2 - w3.speeds[0], p.right.rho),
        ):
            entries.append(cert.equation(prefix + ".vacuum-curve", gap, rarefaction_integral(law, 0.0, rho), tol_eq))
        for wave, prefix in ((w1, "rarefaction1"), (w3, "rarefaction3")):
            head, tail = wave.speeds
            entries.append(
                cert.nonstrict(prefix + ".fan-width", tail - head, tol_strict, head, tail)
            )
    else:
        seq = [p.left] + ([s.middle] if s.middle is not None else []) + [p.right]
        for i, wave in enumerate(s.waves):
            ul, ur = seq[i], seq[i + 1]
            prefix = f"{wave.kind}{wave.family}"
            if wave.kind == SHOCK:
                entries.extend(
                    _shock_entries(law, ul, ur, wave.speeds[0], prefix, tol_eq, tol_strict)
                )
            else:
                entries.extend(
                    _rarefaction_entries(law, ul, ur, wave, prefix, tol_eq, tol_strict)
                )

    for i, (a, b) in enumerate(zip(s.waves, s.waves[1:])):
        gap = b.leftmost - a.rightmost
        entries.append(cert.nonstrict(f"wave-order.{i}", gap, tol_strict, a.rightmost, b.leftmost))
    return Certificate(tuple(entries))
