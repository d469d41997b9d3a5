import hashlib
import math

import mpmath
import numpy as np
import pytest

from eulerfan import (
    DomainError,
    GasLaw,
    NumericError,
    admissibility_bracket,
    lemma2_f,
    lemma2_gap,
    lemma3_gaps,
    run_suite,
)
from eulerfan import oracles
from eulerfan.cli import STATUS_NUMERIC, dumps, run
from eulerfan.oracles import DEFAULT_SEED, _draws

LAW_LOG = GasLaw(1.0, 1.0)


class TestLemma1:
    def test_hand_value(self):
        e2 = math.e**2
        expected = 1.0 + e2 - 2.0 * e2 * 2.0 / (e2 - 1.0)
        assert admissibility_bracket(LAW_LOG, 1.0, e2) == pytest.approx(expected, rel=1e-14)
        assert expected > 0.0

    def test_swap_symmetry(self):
        law = GasLaw(2.0, 1.4)
        assert admissibility_bracket(law, 0.3, 7.7) == pytest.approx(
            admissibility_bracket(law, 7.7, 0.3), rel=1e-13
        )
        assert admissibility_bracket(law, 0.3, 7.7) > 0.0

    def test_equal_densities_rejected(self):
        with pytest.raises(DomainError):
            admissibility_bracket(LAW_LOG, 2.0, 2.0)

    def test_overflow_is_a_numeric_error(self):
        # 2ab overflows: the bracket was -inf, where Lemma 1 gives about +1e200
        with pytest.raises(NumericError, match="arithmetic overflow: the admissibility bracket"):
            admissibility_bracket(GasLaw(1e-100, 1.0), 1e10, 1e300)


class TestLemma2:
    def test_hand_value(self):
        assert lemma2_gap(LAW_LOG, 1.0, 4.0) == pytest.approx(
            1.5 - math.log(4.0), rel=1e-14
        )

    def test_vanishes_at_equal_densities(self):
        # gap is cubic in the density offset, so stay where doubles resolve it
        gap = lemma2_gap(LAW_LOG, 1.0, 1.0 + 1e-4)
        assert gap == pytest.approx(0.0, abs=1e-12)
        assert gap > 0.0

    def test_stiff_law_positive(self):
        assert lemma2_gap(GasLaw(1.0, 3.0), 1.0, 8.0) > 0.0

    def test_ordering_required(self):
        with pytest.raises(DomainError):
            lemma2_gap(LAW_LOG, 4.0, 1.0)


# Lemma 1's bracket and Lemma 2's gap between rho_a = 1 and rho_b = 1 + eps
# (K = 1), at 50 digits.  Both are positive for any two distinct densities;
# near density ratio 1 the float power forms cancel and can get the sign
# wrong, at these (gamma, eps) cells today
def exact_near_one(lemma, gamma, rho_b):
    with mpmath.workdps(50):
        g, b = mpmath.mpf(gamma), mpmath.mpf(rho_b)
        if lemma == "lemma1":
            energy = mpmath.log(b) if g == 1 else (b ** (g - 1) - 1) / (g - 1)
            return 1 + b**g - 2 * b * energy / (b - 1)
        rarefaction = mpmath.log(b) if g == 1 else 2 / (g - 1) * mpmath.sqrt(g) * (b ** ((g - 1) / 2) - 1)
        return mpmath.sqrt((b - 1) * (b**g - 1) / b) - rarefaction


NEAR_ONE = {"lemma1": admissibility_bracket, "lemma2": lemma2_gap}
NEAR_ONE_FLIPS = {
    "lemma1": {(1.4, 1e-5), (1.4, 1e-6), (1.4, 1e-7), (3.0, 1e-6)},
    "lemma2": {(1.4, 1e-6), (1.4, 1e-7), (3.0, 1e-6), (3.0, 1e-7)},
}
near_one_flip = pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="known defect: the float power forms cancel near density ratio 1"
)


@pytest.mark.parametrize(
    "lemma, gamma, eps",
    [
        pytest.param(lemma, gamma, eps, marks=[near_one_flip] if (gamma, eps) in NEAR_ONE_FLIPS[lemma] else [])
        for lemma in NEAR_ONE
        for gamma in (1.0, 1.4, 3.0)
        for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
    ],
)
def test_sign_near_density_ratio_one_is_the_exact_sign(lemma, gamma, eps):
    value = NEAR_ONE[lemma](GasLaw(1.0, gamma), 1.0, 1.0 + eps)
    exact = exact_near_one(lemma, gamma, 1.0 + eps)
    assert (value > 0.0) == (exact > 0), (value, exact)


class TestLemma2AuxiliaryFunction:
    def test_vanishes_at_one(self):
        for gamma in (1.1, 1.4, 5.0 / 3.0, 2.0, 3.0):
            assert lemma2_f(1.0, gamma) == 0.0

    def test_hand_value(self):
        assert lemma2_f(4.0, 2.0) == pytest.approx(13.0, rel=1e-14)

    def test_positive_beyond_one(self):
        assert lemma2_f(2.0, 1.4) > 0.0

    def test_derivative_vanishes_at_one(self):
        h = 1e-7
        for gamma in (1.1, 1.4, 2.0, 3.0):
            fd = (lemma2_f(1.0 + h, gamma) - lemma2_f(1.0 - h, gamma)) / (2.0 * h)
            assert fd == pytest.approx(0.0, abs=1e-5)

    def test_grid_positive(self):
        for gamma in (1.1, 1.4, 5.0 / 3.0, 2.0, 3.0):
            for j in range(100):
                z = 10.0 ** (3.0 * (j + 1) / 100.0)
                assert lemma2_f(z, gamma) > 0.0, (z, gamma)

    def test_isothermal_rejected(self):
        with pytest.raises(DomainError):
            lemma2_f(2.0, 1.0)

    def test_nonpositive_z_rejected(self):
        for z in (0.0, -1.0):
            with pytest.raises(DomainError, match="needs z > 0"):
                lemma2_f(z, 1.4)

    @pytest.mark.parametrize("z, gamma", [(1e10, 50.0), (1e100, 3.0)], ids=["power", "product"])
    def test_overflow_is_a_numeric_error(self, z, gamma):
        # z**g overflowed with a bare OverflowError; (z-1)(z**g-1) gave inf
        with pytest.raises(NumericError, match="arithmetic overflow: the auxiliary function"):
            lemma2_f(z, gamma)


class TestLemma3:
    def test_hand_value(self):
        assert lemma3_gaps(LAW_LOG, 1.0, 2.0, 4.0) == pytest.approx(
            1.5 - math.sqrt(0.5), rel=1e-14
        )

    def test_vanishes_as_mid_reaches_top(self):
        gap = lemma3_gaps(LAW_LOG, 1.0, 4.0 - 1e-9, 4.0)
        assert 0.0 < gap < 1e-8

    def test_quadratic_law_positive(self):
        assert lemma3_gaps(GasLaw(0.5, 2.0), 1.0, 3.0, 9.0) > 0.0

    def test_ordering_required(self):
        with pytest.raises(DomainError):
            lemma3_gaps(LAW_LOG, 1.0, 5.0, 4.0)


class TestSuite:
    def test_small_suite_passes_and_reports_seed(self):
        summary = run_suite(n_samples=500, seed=123)
        assert summary["overall"]
        assert summary["seed"] == 123
        for name in ("lemma1", "lemma2", "lemma3"):
            assert summary["lemmas"][name]["all_positive"]
            assert summary["lemmas"][name]["min_gap"] > 0.0

    def test_suite_deterministic(self):
        assert run_suite(n_samples=200, seed=5) == run_suite(n_samples=200, seed=5)

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_needs_a_sample(self, n_samples):
        with pytest.raises(DomainError):
            run_suite(n_samples=n_samples)

    @pytest.mark.parametrize(
        "args",
        [
            {"seed": -1},
            {"seed": 1.5},
            {"seed": 7.0},
            {"seed": True},
            {"seed": "7"},
            {"n_samples": 2.5},
            {"n_samples": True},
            {"n_samples": None},
        ],
    )
    def test_bad_seed_or_count_rejected(self, args):
        with pytest.raises(DomainError):
            run_suite(**args)

    # sha256 of the lemma_report.json bytes, pinned from the scalar-draw
    # suite that made five numpy generator calls per sample: the standard
    # library copy of that stream must reproduce every float.  The default run
    # is also pinned by the benchmark's golden file.
    @pytest.mark.parametrize(
        "seed, n_samples, digest",
        [
            (1729, 10000, "f68a36ec9cb4e61a63e83c40aebb9436f44906e623166d952d72d65912885b01"),
            (1729, 1, "3f895c8b16f0580e8c3d64c26d70428f537442defbb8278decb812d222241148"),
            (7, 100, "1f4b9f4da56b7b4ee7f87f67ead2825bd2f725fc4772f0a1af09ff74f8ec1a47"),
            (3, 512, "dea181516437ad62049c41ece9a93e4df90782d6726a526c98aff71ab3962f3c"),
            (11, 1000, "ca6615a7186dc423c349ea2f621f76dabe2c5e99b825cac4f534efec50f637c0"),
        ],
    )
    def test_report_bytes_pinned(self, seed, n_samples, digest):
        text = dumps(run_suite(n_samples=n_samples, seed=seed))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    # numpy's SeedSequence splits an int seed into 32-bit words and mixes
    # them into a pool of four: seeds of 1 to 7 words, at the word edges too
    @pytest.mark.parametrize(
        "seed, words",
        [(0, 1), (1, 1), (2**32 - 1, 1), (2**32, 2), (2**70 + 3, 3), (2**100 + 1, 4),
         (10**40, 5), (2**128, 5), (10**50, 6), (2**200 + 12345, 7)],
    )
    def test_stream_matches_numpy(self, seed, words):
        assert max(1, -(-seed.bit_length() // 32)) == words
        drawn = [u for row in _draws(200, seed) for u in row]
        assert drawn == np.random.default_rng(seed).random(1000).tolist()

    def test_default_stream_matches_numpy(self):
        # five doubles per sample, in generator order
        rows = list(_draws(2400, DEFAULT_SEED))
        assert all(len(row) == 5 for row in rows)
        drawn = [u for row in rows for u in row]
        assert drawn == np.random.default_rng(DEFAULT_SEED).random(12000).tolist()

    def test_uniform_mapping_matches_the_generator(self):
        # run_suite maps each drawn double u to low + (high - low) * u, which
        # must be the double Generator.uniform(low, high) returns for it
        scalar, batched = np.random.default_rng(3), np.random.default_rng(3)
        for low, high in ((1.0, 3.0), (-1.5, 1.5), (1e-6, 3.0), (0.01, 0.99)):
            for u in batched.random(2000).tolist():
                assert scalar.uniform(low, high) == low + (high - low) * u

    def test_a_negative_auxiliary_function_fails_the_suite(self, monkeypatch):
        # the float gaps can go negative near density ratio 1: a failing
        # lemma must fail the suite and the CLI, not pass unnoticed
        monkeypatch.setattr(oracles, "lemma2_f", lambda z, gamma: -1.0)
        summary = run_suite(n_samples=20)
        assert not summary["overall"] and not summary["f_grid"]["all_positive"]
        assert run("lemmas", {}, samples=20).status == STATUS_NUMERIC

    def test_a_negative_gap_fails_its_lemma(self, monkeypatch):
        monkeypatch.setattr(oracles, "lemma2_gap", lambda law, lo, hi: -1.0)
        summary = run_suite(n_samples=20)
        assert summary["lemmas"]["lemma2"]["positive_count"] == 0
        assert not summary["lemmas"]["lemma2"]["all_positive"] and not summary["overall"]

    def test_isothermal_branch_checked(self):
        summary = run_suite(n_samples=100, seed=1)
        assert summary["isothermal_branch"]["all_positive"]
