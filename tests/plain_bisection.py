"""The reference middle-density solve: plain bisection, which evaluates the
residual at every midpoint, on the brackets of riemann._solve_middle_density.

The solver infers the sign of most midpoints instead of evaluating them; it
must return this float, or raise this exception with this message, on
every input.
"""

import math

from eulerfan import BracketError, CaseId, NumericError, riemann


def bisect(f, lo, hi, flo, fhi):
    """To a width of at most 1e-13 * (hi - lo) and at most 2**-36 * lo."""
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise BracketError(lo, hi)
    target = 1e-13 * (hi - lo)
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
        if hi - lo <= target and hi - lo <= 2.0**-36 * lo:
            break
    if not (abs(flo) < math.inf and abs(fhi) < math.inf):
        raise NumericError("arithmetic overflow: the middle-state residual next to its root")
    return 0.5 * (lo + hi)


def solve_middle_density(p, case):
    rl, rr = p.left.rho, p.right.rho
    f = riemann.middle_equation(p, case)
    if case == CaseId.R1R3:
        hi = min(rl, rr)
        lo = 1e-14 * hi
        flo, fhi = f(lo), f(hi)
        while flo < 0.0 and fhi < 0.0:
            lo, hi, fhi = 1e-14 * lo, lo, flo
            if lo == 0.0:
                raise NumericError("arithmetic underflow: the middle density")
            flo = f(lo)
        return bisect(f, lo, hi, flo, fhi)
    if case in (CaseId.R1S3, CaseId.S1R3):
        lo, hi = min(rl, rr), max(rl, rr)
        return bisect(f, lo, hi, f(lo), f(hi))
    lo = max(rl, rr)
    hi = 2.0 * lo
    for _ in range(60):
        fhi = f(hi)
        if fhi < 0.0:
            return bisect(f, lo, hi, f(lo), fhi)
        hi *= 2.0
    raise BracketError(lo, hi)


def outcome(solve, p, case):
    """The float, or (exception type, message)."""
    try:
        return solve(p, case)
    except Exception as exc:  # every exception type is part of the contract
        return type(exc), str(exc)
