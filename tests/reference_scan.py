"""The reference search scan: subsolution._scan's search mode as it was
written with a loop over the two entropy rows, a bracket function and the
builtin abs.

The search kernel computes each rho1 in straight-line code; over any stream
of rho1 it must yield these (rho1, (lo, hi), rows), bit for bit, or raise
this exception with this message after the same yields.  The reference
rows are those that the kernel's single-point mode gives the rho1, so the
rows the kernel hands to the delta2 walk are checked against them.
"""

import math

from eulerfan import CriterionError, NumericError
from eulerfan.eos import internal_energy, pressure
from eulerfan.subsolution import _WINDOW_ETA, _WINDOW_SIZE_CAP, SEARCH_DELTA_FLOOR, _ReducedRows


def bracket(rho_a, rho_b, p_a, p_b, e_a, e_b):
    return p_a + p_b - 2.0 * rho_a * rho_b * (e_a - e_b) / (rho_a - rho_b)


def scan(t, rho1s, tol):
    """(rho1, (lo, hi), rows) for each rho1 of ``rho1s`` whose delta2
    window is open, on the problem terms ``t`` (a subsolution._ProblemTerms),
    with the rows of the single-point mode at that rho1."""
    d = t.clamped
    if d is None:
        raise CriterionError(f"negative discriminant {t.disc!r}: no fan subsolution can exist")
    law, K, gamma, gm1, isothermal = t.law, t.K, t.gamma, t.gm1, t.isothermal
    rl, vl2, pl, el = t.rl, t.vl2, t.pl, t.el
    rr, vr2, pr, er = t.rr, t.vr2, t.pr, t.er
    gap, left_flux, right_flux, jump = t.gap, t.left_flux, t.right_flux, t.jump
    sqrt, log, isfinite, inf = math.sqrt, math.log, math.isfinite, math.inf
    up, floor, size_cap = 1.0 + tol, SEARCH_DELTA_FLOOR, _WINDOW_SIZE_CAP
    eta = _WINDOW_ETA * up
    for rho1 in rho1s:
        if not rl < rho1 < rr:
            continue
        try:
            p1 = K * rho1**gamma
            e1 = K * log(rho1) if isothermal else K * rho1**gm1 / gm1
        except OverflowError:
            p1 = e1 = inf
        if not (p1 < inf and abs(e1) < inf):
            p1, e1 = pressure(law, rho1), internal_energy(law, rho1)
        root = sqrt(d * (rho1 - rl) * (rr - rho1))
        try:
            v12 = (left_flux * (rr - rho1) - right_flux * (rho1 - rl) + root) / (rho1 * gap)
        except ZeroDivisionError:
            raise NumericError(f"arithmetic underflow: the v12 divisor at rho1={rho1!r}") from None
        term = jump + sqrt(d * (rr - rho1) / (rho1 - rl))
        try:
            d1 = -(p1 - pl) / rho1 + rl * (rho1 - rl) / (rho1**2 * gap**2) * term**2
        except OverflowError:
            raise NumericError(f"arithmetic overflow: delta1 at rho1={rho1!r}") from None
        except ZeroDivisionError:
            raise NumericError(f"arithmetic underflow: the delta1 divisor at rho1={rho1!r}") from None
        lo, hi = 0.0, inf
        for right in (False, True):
            if right:
                coupling = rho1 * rr * (vr2 - v12) / (rho1 - rr)
                lhs = (vr2 - v12) * bracket(rho1, rr, p1, pr, e1, er)
                rhs0 = -d1 * rho1 * (vr2 + v12) + d1 * coupling
                s = coupling
            else:
                coupling = rl * rho1 * (v12 - vl2) / (rl - rho1)
                lhs = (v12 - vl2) * bracket(rl, rho1, pl, p1, el, e1)
                rhs0 = d1 * rho1 * (v12 + vl2) - d1 * coupling
                s = -coupling
            if not isfinite(0.0 * lhs + 0.0 * rhs0 + 0.0 * coupling):
                raise NumericError(f"the reduced conditions overflow at rho1={rho1!r}")
            if d1 < floor:
                break
            m, ms = abs(lhs), abs(s)
            size = abs(rhs0) + m + 1.0
            if not (size + ms) * up < size_cap:
                continue
            c = rhs0 - lhs + eta * size - tol * (m if m > 1.0 else 1.0)
            k = s + eta * ms
            if k > 0.0:
                x = -c / k
                if x > lo:
                    lo = x
            elif k < 0.0:
                x = -c / k
                if x < hi:
                    hi = x
            elif not c > 0.0:
                break
            if lo > hi:
                break
        else:
            yield rho1, (lo, hi), _ReducedRows(t, rho1)


ROW_FIELDS = ("d1", "lhs_l", "rhs_l0", "slope_l", "lhs_r", "rhs_r0", "slope_r")


def in_hex(rho1, window, rows):
    """One yield of a scan as rho1, lo, hi and the fields of its rows
    (delta1 and both entropy rows) in hex."""
    return tuple(float(x).hex() for x in (rho1, *window, *(getattr(rows, name) for name in ROW_FIELDS)))


def outcome(scanner, t, rho1s, tol):
    """Every yield of ``scanner`` in hex (``in_hex``), then the exception
    that ended it as (type, message), or None."""
    yields = []
    try:
        for found in scanner(t, rho1s, tol):
            yields.append(in_hex(*found))
    except Exception as exc:  # every exception type is part of the contract
        return yields, (type(exc), str(exc))
    return yields, None
