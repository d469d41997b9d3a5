"""Classification and exact solution of the planar Riemann problem with equal
tangential velocities, plus jump-condition and entropy verification of the
computed solution."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import certificate as cert
from .certificate import Certificate
from .eos import GasLaw, internal_energy, pressure
from .errors import BracketError, DomainError, InvariantError, NumericError, require_positive, squared, to_float
from .wavecurves import (
    State,
    lambda1,
    lambda3,
    pure_shock_speed,
    rarefaction_integral,
    rarefaction_integral_to,
    shock_bracket,
    shock_bracket_to,
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


@dataclass(frozen=True)
class Wave:
    """One wave of the solution fan.

    ``speeds`` is (sigma,) for a shock and (head, tail) for a rarefaction,
    head being the left edge of the fan.
    """

    family: int
    kind: str
    speeds: tuple[float, ...]

    @property
    def leftmost(self) -> float:
        return self.speeds[0]

    @property
    def rightmost(self) -> float:
        return self.speeds[-1]


@dataclass(frozen=True)
class RiemannProblem:
    law: GasLaw
    left: State
    right: State

    def __post_init__(self):
        if not (
            isinstance(self.law, GasLaw) and isinstance(self.left, State) and isinstance(self.right, State)
        ):
            raise DomainError("a Riemann problem takes a GasLaw and two States")
        if self.left.rho <= 0.0 or self.right.rho <= 0.0:
            raise DomainError("initial states need positive density")
        for s in (self.left, self.right):
            if not (math.isfinite(to_float(s.v1)) and math.isfinite(to_float(s.v2))):
                raise DomainError("initial states need finite velocities")
        if self.left.v1 != self.right.v1:
            raise DomainError("tangential velocities must agree on both sides")

    @property
    def dv(self) -> float:
        """Normal velocity jump v+2 - v-2, the classification coordinate."""
        return self.right.v2 - self.left.v2


@dataclass(frozen=True)
class StandardSolution:
    case: CaseId
    middle: State | None
    waves: tuple[Wave, ...]


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


def _bisect(f, lo: float, hi: float) -> float:
    """Bisection on a bracketing interval, to width 1e-13 * (initial width).

    The middle-state equations are strictly monotone, so bisection is
    unconditionally safe once a sign change is bracketed.
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise BracketError(lo, hi)
    target = 1e-13 * (hi - lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo <= target:
            break
    return 0.5 * (lo + hi)


def _velocity_change(kind: str, law: GasLaw, rho: float):
    """(sign, g): sign * g(m) is the normal-velocity change from density rho
    to m along a wave of ``kind``, the rarefaction integral or the negated
    shock bracket (a factor of +-1.0 rounds nothing).  The terms at rho are
    computed once, so each evaluation pays only for m."""
    if kind == RAREFACTION:
        return 1.0, rarefaction_integral_to(law, rho)
    return -1.0, shock_bracket_to(law, rho)


def middle_equation(p: RiemannProblem, case: CaseId):
    """The case's scalar equation in rho_m, as residual(rho_m) with root at
    the intermediate density; strictly decreasing in rho_m."""
    if case not in WAVE_KINDS:
        raise InvariantError(f"case {case.value} has no middle-state equation")
    law, dv = p.law, p.dv
    k1, k3 = WAVE_KINDS[case]
    s1, g1 = _velocity_change(k1, law, p.left.rho)
    s3, g3 = _velocity_change(k3, law, p.right.rho)
    return lambda m: (s1 * g1(m) + s3 * g3(m)) - dv


def _solve_middle_density(p: RiemannProblem, case: CaseId) -> float:
    rl, rr = p.left.rho, p.right.rho
    f = middle_equation(p, case)
    if case == CaseId.R1R3:
        m = min(rl, rr)
        return _bisect(f, 1e-14 * m, m)
    if case in (CaseId.R1S3, CaseId.S1R3):
        return _bisect(f, min(rl, rr), max(rl, rr))
    # two shocks: double the upper end until the sign flips
    lo = max(rl, rr)
    hi = 2.0 * lo
    for _ in range(60):
        if f(hi) < 0.0:
            return _bisect(f, lo, hi)
        hi *= 2.0
    raise BracketError(lo, hi)


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
    states and shock speeds come from the mass jump relation.  Raises
    NumericError when a wave speed or the middle velocity overflows; the
    vacuum's middle velocity is undefined, and NaN.
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
        sign, change = _velocity_change(k1, law, rl)
        middle = State(rho_m, v1, ul.v2 + sign * change(rho_m))
        waves = (_wave(law, 1, k1, ul, middle), _wave(law, 3, k3, middle, ur))

    # 0 * x is 0 for finite x and NaN for inf or NaN: one test for them all
    check = 0.0 * middle.v2 if middle is not None and middle.rho > 0.0 else 0.0
    for wave in waves:
        for speed in wave.speeds:
            check += 0.0 * speed
    if check != check:
        raise NumericError(f"arithmetic overflow: a speed or the middle velocity of the {case.value} solution")
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
                MIDDLE_EQUATION_TOL * cert.scale_of(p.dv),
            )
        )

    if s.case == CaseId.R1R3_VACUUM:
        w1, w3 = s.waves
        entries.append(
            cert.equation(
                "rarefaction1.vacuum-curve",
                w1.speeds[1] - p.left.v2,
                rarefaction_integral(law, 0.0, p.left.rho),
                tol_eq,
            )
        )
        entries.append(
            cert.equation(
                "rarefaction3.vacuum-curve",
                p.right.v2 - w3.speeds[0],
                rarefaction_integral(law, 0.0, p.right.rho),
                tol_eq,
            )
        )
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

    for i in range(len(s.waves) - 1):
        gap = s.waves[i + 1].leftmost - s.waves[i].rightmost
        entries.append(
            cert.nonstrict(
                f"wave-order.{i}",
                gap,
                tol_strict,
                s.waves[i].rightmost,
                s.waves[i + 1].leftmost,
            )
        )
    return Certificate(tuple(entries))
