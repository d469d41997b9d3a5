"""Stand-alone evaluators for the three structural inequalities underpinning
the constructions (Lemma 1's admissibility bracket, Lemma 2's shock-over-
rarefaction gap and Lemma 3's bracket growth), plus seeded sampling batches
for property suites.  The module needs only the scalar kernels, so the lemma
suite runs without loading the search.

The batches draw numpy's ``default_rng(seed).random()`` stream, reproduced
bit for bit with the standard library, so the package needs no numpy."""

from __future__ import annotations

import math

from .eos import GasLaw, internal_energy, pressure
from .errors import DEFAULT_SAMPLES, DEFAULT_SEED, DomainError, NumericError, require_count
from .wavecurves import rarefaction_integral, shock_bracket

F_GAMMAS = (1.1, 1.4, 5.0 / 3.0, 2.0, 3.0)

_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit LCG multiplier


def admissibility_bracket(law: GasLaw, rho_a: float, rho_b: float) -> float:
    """p(a) + p(b) - 2ab (eps(a) - eps(b))/(a - b); strictly positive for any
    two distinct densities.  NumericError when it overflows."""
    if rho_a == rho_b:
        raise DomainError("needs two distinct densities")
    p_a, p_b = pressure(law, rho_a), pressure(law, rho_b)
    e_a, e_b = internal_energy(law, rho_a), internal_energy(law, rho_b)
    bracket = p_a + p_b - 2.0 * rho_a * rho_b * (e_a - e_b) / (rho_a - rho_b)
    if not -math.inf < bracket < math.inf:
        raise NumericError(f"arithmetic overflow: the admissibility bracket of {rho_a!r} and {rho_b!r}")
    return bracket


def lemma2_gap(law: GasLaw, rho_minus: float, rho_plus: float) -> float:
    """Shock bracket minus rarefaction integral over an increasing density
    pair; positive, i.e. the shock jump always beats the rarefaction one."""
    if not rho_minus < rho_plus:
        raise DomainError("needs rho_minus < rho_plus")
    return shock_bracket(law, rho_minus, rho_plus) - rarefaction_integral(
        law, rho_minus, rho_plus
    )


def lemma2_f(z: float, gamma: float) -> float:
    """(z-1)(z^g - 1) - (4g/(g-1)^2)(z^g - 2 z^((g+1)/2) + z).

    Auxiliary function of the squared jump comparison: vanishes with its
    derivative at z = 1 and is positive for z > 1.  Defined for gamma > 1
    only; the gamma = 1 comparison is log(z) < sqrt(z) - 1/sqrt(z).
    NumericError when a power or the result overflows.
    """
    if not z > 0.0:
        raise DomainError("needs z > 0")
    if not gamma > 1.0:
        raise DomainError("the auxiliary function needs gamma > 1")
    g = gamma
    try:
        value = (z - 1.0) * (z**g - 1.0) - 4.0 * g / (g - 1.0) ** 2 * (
            z**g - 2.0 * z ** ((g + 1.0) / 2.0) + z
        )
        if -math.inf < value < math.inf:
            return value
    except OverflowError:
        pass
    raise NumericError(f"arithmetic overflow: the auxiliary function at z={z!r}, gamma={gamma!r}")


def lemma3_gaps(law: GasLaw, rho_lo: float, rho_mid: float, rho_hi: float) -> float:
    """Shock bracket growth along the curve: bracket(lo, hi) - bracket(lo, mid)
    for lo < mid < hi; positive."""
    if not rho_lo < rho_mid < rho_hi:
        raise DomainError("needs rho_lo < rho_mid < rho_hi")
    return shock_bracket(law, rho_lo, rho_hi) - shock_bracket(law, rho_lo, rho_mid)


def _pcg64_start(seed: int) -> tuple[int, int]:
    """State and increment of numpy's ``PCG64(seed)`` for an int seed.

    numpy's SeedSequence hashes the seed's 32-bit words (least significant
    first) into a pool of four and draws eight words from it; they give the
    initial state and the stream of PCG's ``srandom`` (O'Neill 2014).
    """
    words = [seed >> k & _M32 for k in range(0, max(seed.bit_length(), 1), 32)]
    # the hash constants are SeedSequence's INIT_A and MULT_A, its mix's
    # MIX_MULT_L and MIX_MULT_R, then INIT_B and MULT_B
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value = (value ^ const) * (const := const * 0x931E8875 & _M32) & _M32
        return value ^ value >> 16

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(w) for w in (words + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    const, out = 0x8B51F9DD, []
    for i in range(8):
        value = (pool[i % 4] ^ const) * (const := const * 0x58F38DED & _M32) & _M32
        out.append(value ^ value >> 16)
    # four 64-bit words, low half first: w0:w1 seed the state, w2:w3 the stream
    w0, w1, w2, w3 = (out[k] | out[k + 1] << 32 for k in range(0, 8, 2))
    inc = (w2 << 64 | w3) << 1 & _M128 | 1
    return ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _M128, inc


def _draws(n_samples: int, seed: int):
    """The suite's uniform doubles, five per sample, in generator order:
    PCG64's XSL-RR output of each LCG step, its top 53 bits scaled to [0, 1)."""
    state, inc = _pcg64_start(seed)
    for _ in range(n_samples):
        row = []
        for _ in range(5):
            state = (state * _PCG_MULT + inc) & _M128
            x = (state >> 64 ^ state) & _M64
            rot = state >> 122
            row.append((((x >> rot | x << (64 - rot)) & _M64) >> 11) * 2.0**-53)
        yield row


def _inputs(name: str, law: GasLaw, lo: float, mid: float, hi: float) -> dict:
    """A lemma's witness inputs for the sample (law, lo, mid, hi)."""
    base = {"K": law.K, "gamma": law.gamma}
    if name == "lemma1":
        return base | {"rho_a": lo, "rho_b": hi}
    if name == "lemma2":
        return base | {"rho_minus": lo, "rho_plus": hi}
    return base | {"rho_lo": lo, "rho_mid": mid, "rho_hi": hi}


def run_suite(n_samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED) -> dict:
    """Evaluate all three inequality gaps on seeded random samples, plus the
    auxiliary-function grid and the gamma = 1 branch.

    Returns a summary dict with the seed (so results are reproducible), the
    per-lemma minimum gap and its witness inputs, and overall pass flags.
    Raises DomainError unless ``n_samples`` is an integer of at least 1 and
    ``seed`` one of at least 0.
    """
    n_samples = require_count("n_samples", n_samples, 1)
    seed = require_count("seed", seed, 0)
    names = ("lemma1", "lemma2", "lemma3")
    worst: list[tuple[float, dict] | None] = [None, None, None]  # (gap, inputs)
    counts = [0, 0, 0]

    for i, (u_gamma, u_k, u_lo, u_ratio, u_mid) in enumerate(_draws(n_samples, seed)):
        # Each double u maps to low + (high - low) * u, as Generator.uniform
        # maps it; every tenth draw pins gamma to exactly 1 to exercise the
        # log branch.
        gamma = 1.0 if i % 10 == 9 else 1.0 + (3.0 - 1.0) * u_gamma
        law = GasLaw(K=10.0 * (1.0 - u_k), gamma=gamma)  # K in (0, 10]
        lo = 10.0 ** (-1.5 + (1.5 - -1.5) * u_lo)
        ratio = 10.0 ** (1e-6 + (3.0 - 1e-6) * u_ratio)  # density ratio up to 1e3
        hi = lo * ratio
        mid = lo * ratio ** (0.01 + (0.99 - 0.01) * u_mid)
        gaps = (admissibility_bracket(law, lo, hi), lemma2_gap(law, lo, hi), lemma3_gaps(law, lo, mid, hi))
        for j, gap in enumerate(gaps):
            if gap > 0.0:
                counts[j] += 1
            current = worst[j]
            if current is None or gap < current[0]:
                # a new minimum is rare, so its inputs are built only here
                worst[j] = (gap, _inputs(names[j], law, lo, mid, hi))

    f_all_positive = True
    f_min = math.inf
    for gamma in F_GAMMAS:
        if lemma2_f(1.0, gamma) != 0.0:
            f_all_positive = False
        for j in range(100):
            z = 10.0 ** (3.0 * (j + 1) / 100.0)
            value = lemma2_f(z, gamma)
            f_min = min(f_min, value)
            if not value > 0.0:
                f_all_positive = False

    log_ok = True
    for j in range(100):
        r = 10.0 ** (3.0 * (j + 1) / 100.0)
        if not math.log(r) < math.sqrt(r) - 1.0 / math.sqrt(r):
            log_ok = False

    summary = {
        "seed": seed,
        "samples": n_samples,
        "lemmas": {},
        "f_grid": {"all_positive": f_all_positive, "min_value": f_min},
        "isothermal_branch": {"all_positive": log_ok},
    }
    for name, count, (gap, inputs) in zip(names, counts, worst):
        summary["lemmas"][name] = {
            "positive_count": count,
            "min_gap": gap,
            "min_gap_inputs": inputs,
            "all_positive": count == n_samples,
        }
    summary["overall"] = (
        all(v["all_positive"] for v in summary["lemmas"].values())
        and f_all_positive
        and log_ok
    )
    return summary
