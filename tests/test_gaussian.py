"""Gaussian primitives: covariance validation, KL divergences, and the
pairwise mutual-information weights.

The Monte-Carlo log-likelihood-ratio estimator below is the independent
oracle for the closed-form KL values; it shares no code with the package.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecov import (
    CovMatrix,
    DegenerateCorrelationError,
    NotPositiveDefiniteError,
    NumericalError,
    chow_liu,
    kl_gaussian,
)
from treecov.gaussian import _clamp_kl, _upper_pair_weights

from _helpers import corr3, random_spd, scalar_pair_weights

# Frozen closed-form expectations, cross-checked by the Monte-Carlo oracle.
KL_1D_1_VS_4 = 0.5 * (0.25 - 1.0 + math.log(4.0))          # 0.3181471805599453
KL_2D_I_VS_2I = 0.5 * (1.0 - 2.0 + math.log(4.0))          # 0.1931471805599453
MI_RHO_05 = -0.5 * math.log(1.0 - 0.25)                    # 0.14384103622589045
MI_RHO_09 = -0.5 * math.log(1.0 - 0.81)                    # 0.8303656034108254


def mc_kl_estimate(cov0: np.ndarray, cov1: np.ndarray, n: int, seed: int) -> float:
    """Monte-Carlo estimate of D(N(0, cov0) || N(0, cov1)).

    Average log-likelihood ratio over n samples from the first model,
    computed with plain numpy (slogdet and dense solves), independently of
    the package implementation.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, cov0.shape[0])) @ np.linalg.cholesky(cov0).T

    def log_density(cov: np.ndarray) -> np.ndarray:
        _, logdet = np.linalg.slogdet(cov)
        quad = np.sum(x * np.linalg.solve(cov, x.T).T, axis=1)
        return -0.5 * (cov.shape[0] * math.log(2.0 * math.pi) + logdet + quad)

    return float(np.mean(log_density(cov0) - log_density(cov1)))


def gm(entries) -> CovMatrix:
    return CovMatrix(np.asarray(entries, dtype=float))


class TestCovMatrix:
    def test_rejects_asymmetry_beyond_tolerance(self):
        with pytest.raises(ValueError, match="asymmetry"):
            CovMatrix(np.array([[1.0, 0.5], [0.5 + 1e-8, 1.0]]))

    def test_accepts_asymmetry_within_tolerance(self):
        CovMatrix(np.array([[1.0, 0.5], [0.5 + 1e-12, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            CovMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            CovMatrix(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            CovMatrix(np.array([[1.0, bad], [bad, 1.0]]))
        with pytest.raises(ValueError, match="non-finite"):
            CovMatrix(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_entries_are_immutable(self):
        cov = CovMatrix(np.eye(2))
        with pytest.raises(ValueError):
            cov.entries[0, 0] = 5.0

    def test_cholesky_factor_reconstructs(self):
        cov = random_spd(np.random.default_rng(3), 5)
        np.testing.assert_allclose(cov.chol @ cov.chol.T, cov.entries, atol=1e-12)

    def test_log_det_matches_slogdet(self):
        cov = random_spd(np.random.default_rng(4), 6)
        _, expected = np.linalg.slogdet(cov.entries)
        assert cov.log_det == pytest.approx(expected, abs=1e-10)


class TestKlGaussian:
    def test_scalar_example(self):
        assert kl_gaussian(gm([[1.0]]), gm([[4.0]])) == pytest.approx(
            KL_1D_1_VS_4, abs=1e-12
        )

    def test_scalar_example_against_monte_carlo(self):
        estimate = mc_kl_estimate(np.eye(1), np.array([[4.0]]), 10**6, seed=11)
        assert estimate == pytest.approx(KL_1D_1_VS_4, abs=1e-2)

    def test_isotropic_example(self):
        assert kl_gaussian(gm(np.eye(2)), gm(2.0 * np.eye(2))) == pytest.approx(
            KL_2D_I_VS_2I, abs=1e-12
        )

    def test_isotropic_example_against_monte_carlo(self):
        estimate = mc_kl_estimate(np.eye(2), 2.0 * np.eye(2), 10**6, seed=12)
        assert estimate == pytest.approx(KL_2D_I_VS_2I, abs=1e-2)

    def test_bitwise_equal_inputs_give_exact_zero(self):
        cov = random_spd(np.random.default_rng(0), 4)
        assert kl_gaussian(cov, CovMatrix(cov.entries)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="^p1 has dimension 3, expected 2$"):
            kl_gaussian(gm(np.eye(2)), gm(np.eye(3)))

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10**6), st.integers(1, 6))
    def test_nonnegative(self, seed, p):
        rng = np.random.default_rng(seed)
        p0 = random_spd(rng, p)
        p1 = random_spd(rng, p)
        assert kl_gaussian(p0, p1) >= 0.0

    @pytest.mark.parametrize("p", [2, 10, 80, 160])
    def test_matches_dense_reference(self, p):
        # Independent evaluation: slogdet for both log-determinants and a
        # dense solve of S1 against S0 for the trace.
        rng = np.random.default_rng(300 + p)
        for _ in range(5):
            p0, p1 = random_spd(rng, p), random_spd(rng, p)
            _, logdet0 = np.linalg.slogdet(p0.entries)
            _, logdet1 = np.linalg.slogdet(p1.entries)
            trace = float(np.trace(np.linalg.solve(p1.entries, p0.entries)))
            expected = 0.5 * (trace - p + logdet1 - logdet0)
            assert kl_gaussian(p0, p1) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_asymmetric_in_general(self):
        p0 = gm(np.diag([1.0, 4.0]))
        p1 = gm(np.eye(2))
        assert kl_gaussian(p0, p1) != kl_gaussian(p1, p0)

    def test_positive_when_covariances_differ(self):
        rng = np.random.default_rng(7)
        p0 = random_spd(rng, 3)
        p1 = random_spd(rng, 3)
        assert kl_gaussian(p0, p1) > 0.0

    def test_clamp_accepts_roundoff_and_rejects_worse(self):
        assert _clamp_kl(-1e-13) == 0.0
        assert _clamp_kl(2.5) == 2.5
        with pytest.raises(NumericalError):
            _clamp_kl(-1e-9)


class TestKlTreeSimplified:
    """The O(p) divergence of a Chow-Liu fit, read through its tree form,
    against the dense Gaussian KL of the same matrix."""

    def test_zero_when_tree_equals_input(self):
        # Unit-variance chain whose 0-2 correlation already is the path product.
        sigma = corr3(0.9, 0.8, 0.72)
        fit = chow_liu(sigma)
        assert kl_gaussian(sigma, fit) == pytest.approx(0.0, abs=1e-12)
        assert kl_gaussian(sigma, CovMatrix(fit.entries)) == pytest.approx(0.0, abs=1e-12)

    def test_equals_full_kl_on_marginal_matching_covariance(self):
        # The stated 3-node example with rho_02 = 0.1 is not positive
        # definite; 0.6 keeps the matrix valid and the structure intact.
        sigma = corr3(0.9, 0.8, 0.6)
        fit = chow_liu(sigma)
        full = kl_gaussian(sigma, CovMatrix(fit.entries))
        assert kl_gaussian(sigma, fit) > 0.0
        assert kl_gaussian(sigma, fit) == pytest.approx(full, abs=1e-9)


def mi(entries) -> np.ndarray:
    return _upper_pair_weights(gm(entries))


class TestCorrelation:
    # rho = s_uv / sqrt(s_uu * s_vv), observed through I = -0.5 ln(1 - rho^2).
    def test_independent_components(self):
        assert mi(np.eye(2))[0] == 0.0

    def test_plain_value(self):
        expected = -0.5 * math.log(1.0 - 0.09)
        assert mi([[1.0, 0.3], [0.3, 1.0]])[0] == pytest.approx(expected, abs=1e-12)

    def test_normalizes_by_variances(self):
        assert mi([[4.0, 1.0], [1.0, 1.0]])[0] == pytest.approx(MI_RHO_05, abs=1e-12)


class TestPairwiseMutualInformation:
    def test_zero_at_independence(self):
        assert np.array_equal(mi(np.eye(3)), np.zeros(3))

    def test_frozen_values(self):
        assert mi([[1.0, 0.5], [0.5, 1.0]])[0] == pytest.approx(MI_RHO_05, abs=1e-12)
        assert mi([[1.0, 0.9], [0.9, 1.0]])[0] == pytest.approx(MI_RHO_09, abs=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10**6), st.integers(2, 7))
    def test_matches_scalar_reference(self, seed, p):
        # Same formula one pair at a time; numpy's log1p and the C library's
        # may round differently, by an ulp.
        sigma = random_spd(np.random.default_rng(seed), p)
        np.testing.assert_allclose(
            _upper_pair_weights(sigma), scalar_pair_weights(sigma),
            rtol=4 * np.finfo(float).eps, atol=0,
        )

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10**6), st.integers(2, 7))
    def test_invariant_to_diagonal_scaling(self, seed, p):
        rng = np.random.default_rng(seed)
        sigma = random_spd(rng, p)
        scale = rng.uniform(0.2, 5.0, size=p)
        scaled = CovMatrix(sigma.entries * np.outer(scale, scale))
        gap = _upper_pair_weights(sigma) - _upper_pair_weights(scaled)
        assert np.max(np.abs(gap)) < 1e-10

    def test_rejects_degenerate_correlation(self):
        near_one = 1.0 - 1e-13
        cov = CovMatrix(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, near_one], [0.0, near_one, 1.0]]))
        with pytest.raises(DegenerateCorrelationError, match="between 1 and 2"):
            _upper_pair_weights(cov)
