"""Auxiliary-state constructions: split a shock-bearing problem at a state on
the right wave curve, carry a fan subsolution on the left piece, solve the
right piece classically, and certify that the two glue (mu1 < mu2)."""

from __future__ import annotations

import math

from . import certificate as cert
from .certificate import Certificate
from .eos import pressure
from .errors import SEARCH_SIZES, ConstructionError, DomainError, NumericError, Record, require_count, require_positive
from .riemann import (
    RAREFACTION,
    STRICT_TOL,
    CaseId,
    RiemannProblem,
    StandardSolution,
    _solve_middle_density,
    classify,
    solve_standard,
    verify_standard,
)
from .subsolution import (
    FanSubsolution,
    lift_to_full,
    reduced_from,
    search_feasible,
    verify_full,
)
from .wavecurves import State, rarefaction_integral, shock_bracket

# Relative tolerance for the wave-curve membership of the auxiliary state.
CURVE_TOL = 1e-11


class WedgeConstruction(Record):
    """A successful auxiliary-state split.

    ``problem_tilde`` (left data to u2) carries the fan subsolution ``sub``;
    ``problem_wedge`` (u2 to right data) is solved classically by
    ``right_wave``.  ``mu2`` is the left edge of the classical wave,
    ``glue_margin`` = mu2 - mu1 > 0, and ``perturbation`` is the final
    fraction of the available density gap used to place u2.
    """

    _fields = ("u2", "problem_tilde", "problem_wedge", "sub", "right_wave", "mu2", "glue_margin", "perturbation")

    def __init__(
        self, u2: State, problem_tilde: RiemannProblem, problem_wedge: RiemannProblem, sub: FanSubsolution,
        right_wave: StandardSolution, mu2: float, glue_margin: float, perturbation: float,
    ):
        object.__setattr__(self, "u2", u2)
        object.__setattr__(self, "problem_tilde", problem_tilde)
        object.__setattr__(self, "problem_wedge", problem_wedge)
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "right_wave", right_wave)
        object.__setattr__(self, "mu2", mu2)
        object.__setattr__(self, "glue_margin", glue_margin)
        object.__setattr__(self, "perturbation", perturbation)


def _attempt(p, u2, s, rho_ref, right_case, tol_strict, search_opts):
    """The construction with auxiliary state u2, or a failure reason string.

    The left piece (left data to u2) needs a fan subsolution with rho1 below
    ``rho_ref``, so the search looks only there; the right piece (u2 to right
    data) must be the single classical 3-wave of ``right_case``, whose left
    edge mu2 lies beyond mu1.
    """
    law = p.law
    tilde = RiemannProblem(law, p.left, u2)
    if classify(tilde) is not CaseId.S1R3:
        return "perturbed-problem-not-shock-rarefaction"
    found = search_feasible(tilde, rho1_below=rho_ref, tol_strict=tol_strict, **search_opts)
    if found is None:
        return "no-feasible-pair"
    rho1, delta2 = found
    sub = lift_to_full(tilde, reduced_from(tilde, rho1, delta2))
    if not verify_full(tilde, sub, tol_strict=tol_strict).overall:
        return "full-verification-failed"
    wedge_problem = RiemannProblem(law, u2, p.right)
    right_wave = solve_standard(wedge_problem)
    if right_wave.case is not right_case:
        return "right-problem-misclassified"
    # right_case is a single-wave case, so this is one wave of its kind
    if right_wave.waves[0].family != 3:
        return "right-problem-not-a-single-3-wave"
    if not verify_standard(wedge_problem, right_wave, tol_strict=tol_strict).overall:
        return "right-wave-verification-failed"
    mu2 = right_wave.waves[0].leftmost
    glue = mu2 - sub.mu1
    if not glue > 0.0:
        return "nonpositive-glue-margin"
    return WedgeConstruction(u2, tilde, wedge_problem, sub, right_wave, mu2, glue, s)


def _construct(p, rho_ref, place, right_case, initial_fraction, max_halvings, tol_strict, search_opts):
    """The perturbation schedule shared by both constructions.

    ``place(s)`` gives (rho2, u2) for the fraction s, or (rho2, reason) when
    u2 cannot sit there; s halves after every failed attempt, and the
    attempt log becomes the ConstructionError once the schedule is spent.
    It also ends before s underflows to 0.0, which would repeat one attempt,
    so at most about 2,100 are made.  Raises DomainError for a negative
    ``max_halvings``, an ``initial_fraction`` or ``tol_strict`` that is not
    a finite positive number, or a search option that is not a search size
    or breaks its bounds (errors.SEARCH_SIZES).
    """
    max_halvings = require_count("max_halvings", max_halvings, 0)
    s = require_positive("initial_fraction", initial_fraction)
    tol_strict = require_positive("tol_strict", tol_strict)
    unknown = search_opts.keys() - SEARCH_SIZES.keys()
    if unknown:
        raise DomainError(f"a construction passes on only {sorted(SEARCH_SIZES)}, not {sorted(unknown)}")
    search_opts = {name: require_count(name, value, *SEARCH_SIZES[name]) for name, value in search_opts.items()}
    attempts = []
    for _ in range(max_halvings + 1):
        rho2, u2 = place(s)
        outcome = u2 if isinstance(u2, str) else _attempt(p, u2, s, rho_ref, right_case, tol_strict, search_opts)
        if isinstance(outcome, WedgeConstruction):
            return outcome
        attempts.append({"s": s, "rho2": rho2, "failure": outcome})
        s *= 0.5
        if s == 0.0:
            break
    raise ConstructionError(attempts)


def build_sr(
    p: RiemannProblem,
    *,
    initial_fraction: float = 0.5,
    max_halvings: int = 40,
    tol_strict: float = STRICT_TOL,
    **search_opts,
) -> WedgeConstruction:
    """Auxiliary-state construction for 1-shock / 3-rarefaction data.

    The auxiliary state u2 sits on the 3-rarefaction curve through the right
    state, at density rho2 = rho_m + s * (rho+ - rho_m).  The fraction s
    starts at ``initial_fraction`` and halves (at most ``max_halvings``
    times) until the left piece admits a fan subsolution with rho1 below the
    middle density; existence for small enough s is guaranteed, but no usable
    radius is, so the schedule shrinks geometrically to machine scale.
    Attempts at successive s values are strictly sequential; each searches
    and certifies at ``tol_strict``, and ``search_opts`` are search sizes.

    Rotated input: for 1-rarefaction / 3-shock data the caller applies
    rotate_180 first.
    """
    if classify(p) is not CaseId.S1R3:
        raise DomainError(
            "the construction needs 1-shock/3-rarefaction data; "
            "rotate 1-rarefaction/3-shock data first"
        )
    law = p.law
    rho_m = _solve_middle_density(p, CaseId.S1R3)  # solve_standard's middle density
    rr, vr2 = p.right.rho, p.right.v2

    def place(s):
        rho2 = rho_m + s * (rr - rho_m)
        return rho2, State(rho2, p.left.v1, vr2 - rarefaction_integral(law, rho2, rr))

    return _construct(p, rho_m, place, CaseId.SINGLE_R, initial_fraction, max_halvings, tol_strict, search_opts)


def build_s(
    p: RiemannProblem,
    *,
    initial_fraction: float = 0.5,
    max_halvings: int = 40,
    tol_strict: float = STRICT_TOL,
    **search_opts,
) -> WedgeConstruction:
    """Auxiliary-state construction for single 1-shock data.

    Here u2 sits on the 3-shock curve through the right state at density
    rho2 = (1 + s) * rho+, subject to the side condition that the auxiliary
    shock is weaker than the rarefaction integral between the data densities;
    s halves whenever that condition or the subsolution search fails.  The
    shrink is observable in the returned ``perturbation``.  The options are
    those of build_sr.

    Rotated input: 3-shock data (rho- > rho+) is the caller's job to rotate.
    """
    if classify(p) is not CaseId.SINGLE_S:
        raise DomainError("the construction needs single-shock data")
    if not p.left.rho < p.right.rho:
        raise DomainError("3-shock data; rotate it to a 1-shock first")
    law = p.law
    rr, vr2 = p.right.rho, p.right.v2
    cap = rarefaction_integral(law, p.left.rho, rr)

    def place(s):
        rho2 = rr * (1.0 + s)
        jump = shock_bracket(law, rho2, rr)
        if not jump < cap:
            return rho2, "aux-shock-not-weaker"
        return rho2, State(rho2, p.left.v1, vr2 + jump)

    return _construct(p, rr, place, CaseId.SINGLE_S, initial_fraction, max_halvings, tol_strict, search_opts)


def verify_construction(
    p: RiemannProblem,
    w: WedgeConstruction,
    *,
    tol_strict: float = STRICT_TOL,
) -> Certificate:
    """Glue-level certificate for a construction built from problem ``p``:
    speed ordering mu0 < mu1 < mu2, the wedge density below its reference,
    wave-curve membership of the auxiliary state, and the chain bounding mu1
    from above through the wedge's positive normal-stress excess (curve
    entries at CURVE_TOL).  Raises DomainError for a ``tol_strict`` that is
    not finite and positive, and for a construction on the rarefaction
    curve (build_sr's) with ``p`` not 1-shock/3-rarefaction data, whose
    middle density is its reference."""
    tol_strict = require_positive("tol_strict", tol_strict)
    law = w.problem_tilde.law
    is_rarefaction = w.right_wave.waves[0].kind == RAREFACTION
    if is_rarefaction and classify(p) is not CaseId.S1R3:
        raise DomainError("a construction on the rarefaction curve needs 1-shock/3-rarefaction data")
    entries = [
        cert.strict("speeds.mu0-before-mu1", w.sub.mu1 - w.sub.mu0, tol_strict, w.sub.mu0, w.sub.mu1),
        cert.strict("speeds.mu1-before-mu2", w.mu2 - w.sub.mu1, tol_strict, w.sub.mu1, w.mu2),
    ]
    # solve_standard's middle density, without its waves
    rho_ref = _solve_middle_density(p, CaseId.S1R3) if is_rarefaction else p.right.rho
    entries.append(
        cert.strict(
            "wedge-density-below-reference", rho_ref - w.sub.rho1, tol_strict, rho_ref, w.sub.rho1
        )
    )
    rho2 = w.u2.rho
    if is_rarefaction:
        entries.append(cert.strict("aux-density-above-middle", rho2 - rho_ref, tol_strict, rho2, rho_ref))
        entries.append(cert.strict("aux-density-below-right", p.right.rho - rho2, tol_strict, p.right.rho, rho2))
        entries.append(
            cert.equation(
                "aux-on-rarefaction-curve",
                p.right.v2 - w.u2.v2,
                rarefaction_integral(law, rho2, p.right.rho),
                CURVE_TOL,
            )
        )
    else:
        jump = shock_bracket(law, rho2, p.right.rho)
        cap = rarefaction_integral(law, p.left.rho, p.right.rho)
        entries.append(cert.strict("aux-density-above-right", rho2 - p.right.rho, tol_strict, rho2, p.right.rho))
        entries.append(cert.equation("aux-on-shock-curve", w.u2.v2 - p.right.v2, jump, CURVE_TOL))
        entries.append(cert.strict("aux-shock-weaker-than-rarefaction", cap - jump, tol_strict, cap, jump))
    # positive delta1 forces (mu1 - v22)^2 below the chord slope ratio
    bound = w.u2.v2 + math.sqrt(
        (w.sub.rho1 / rho2)
        * (pressure(law, w.sub.rho1) - pressure(law, rho2))
        / (w.sub.rho1 - rho2)
    )
    entries.append(cert.strict("mu1-upper-bound", bound - w.sub.mu1, tol_strict, bound, w.sub.mu1))
    entries.append(cert.nonstrict("mu1-bound-below-mu2", w.mu2 - bound, tol_strict, w.mu2, bound))
    return Certificate(tuple(entries))


def fan_geometry(w: WedgeConstruction, t: float) -> list[tuple[str, float, float]]:
    """Labeled x2-intervals of the glued solution at time t > 0.

    Five regions left to right: the left data state, the wedge carrying the
    relaxed data, the auxiliary state, the classical 3-wave (a band for a
    rarefaction, a zero-width line for a shock), and the right data state.
    Nondegenerate breakpoints are strictly increasing and scale linearly
    with t.  Raises DomainError unless t is a finite positive number (a bool
    is not one), and NumericError when a breakpoint overflows.
    """
    t = require_positive("t", t)
    x0 = w.sub.mu0 * t
    x1 = w.sub.mu1 * t
    wave = w.right_wave.waves[0]
    head, tail = wave.leftmost * t, wave.rightmost * t
    # 0 * x is 0 for finite x and NaN for inf or NaN
    if not math.isfinite(0.0 * x0 + 0.0 * x1 + 0.0 * head + 0.0 * tail):
        raise NumericError(f"the fan breakpoints overflow at t={t!r}")
    return [
        ("left", -math.inf, x0),
        ("wedge", x0, x1),
        ("aux", x1, head),
        ("fan-3" if wave.kind == RAREFACTION else "shock-3", head, tail),
        ("right", tail, math.inf),
    ]
