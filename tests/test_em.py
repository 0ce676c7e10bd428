"""Posterior statistics, the E-step, and the iteration loop.

Every E-step case goes through the one seam ``compute_omega(model, obs, fit)``,
which scores an iterate and pools the posterior moment under it; no test
builds the conditioning's intermediates itself. The pooled
moment has two oracles that the seam must reproduce: the Joseph-form
posterior of ``_helpers`` (itself checked here against closed forms and
dense inverses), and the per-sample average of the posterior moment over
individual observations.
"""

from __future__ import annotations

import math
import re
import types
import warnings

import numpy as np
import pytest

import treecov.em
import treecov.tree
from treecov import (
    CovMatrix,
    EmConfig,
    EmMonotonicityWarning,
    LinearModel,
    NotPositiveDefiniteError,
    NumericalError,
    ObservationSet,
    SpanningTree,
    chow_liu,
    kl_gaussian,
    run_em,
    sample_observations,
)
from treecov.em import StopReason, compute_omega
from treecov.experiment import derive_seed, generate_ground_truth, generate_mixing, generate_prior
from treecov.linear import observation_cov

from _helpers import adjacency, check_order, joseph_posterior, no_mixing_model, random_spd


def make_scenario(p: int = 4, m: int = 2, r: int = 150, seed: int = 0):
    """Random well-conditioned instance: truth, prior, model, observations."""
    rng = np.random.default_rng(seed)
    sigma = random_spd(rng, p)
    sigma0 = CovMatrix(0.5 * sigma.entries + 0.5 * random_spd(rng, p).entries)
    model = LinearModel(rng.standard_normal((m, p)), CovMatrix(0.2 * np.eye(m)))
    obs = sample_observations(model, sigma, r, seed=seed + 1)
    return sigma, sigma0, model, obs


class TestPosterior:
    """The Joseph-form oracle against closed forms and dense inverses."""

    def test_identity_everything_halves_the_covariance(self):
        model = LinearModel(np.eye(2), CovMatrix(np.eye(2)))
        gain, cov = joseph_posterior(CovMatrix(np.eye(2)), model, CovMatrix(2.0 * np.eye(2)))
        np.testing.assert_allclose(cov, 0.5 * np.eye(2), atol=1e-14)
        np.testing.assert_allclose(gain, 0.5 * np.eye(2), atol=1e-14)

    def test_scalar_closed_form(self):
        # K = 4 + 1, gain = 4/5 = 0.8 and C = 0.2 * 4 * 0.2 + 0.8 * 0.8 = 0.8.
        model = LinearModel(np.eye(1), CovMatrix(np.eye(1)))
        gain, cov = joseph_posterior(
            CovMatrix(np.array([[4.0]])), model, CovMatrix(np.array([[5.0]]))
        )
        assert cov[0, 0] == pytest.approx(0.8, abs=1e-14)
        assert gain[0, 0] == pytest.approx(0.8, abs=1e-14)

    def test_no_mixing_returns_the_prior(self):
        model = no_mixing_model(CovMatrix(np.eye(2)), 3)
        prior = random_spd(np.random.default_rng(2), 3)
        gain, cov = joseph_posterior(prior, model, observation_cov(model, prior))
        np.testing.assert_allclose(cov, prior.entries, atol=1e-10)
        np.testing.assert_allclose(gain, np.zeros((3, 2)), atol=1e-14)

    def test_conditioning_never_inflates_uncertainty(self):
        sigma, _, model, _ = make_scenario(seed=3)
        _, cov = joseph_posterior(sigma, model, observation_cov(model, sigma))
        gap = sigma.entries - cov
        assert np.linalg.eigvalsh(gap).min() > -1e-10

    def test_vanishing_noise_pins_the_observed_directions(self):
        # With H = I and D -> 0 the observation determines x: the gain tends
        # to I and C to 0, a singular posterior that must still be returned.
        model = LinearModel(np.eye(3), CovMatrix(1e-30 * np.eye(3)))
        prior = random_spd(np.random.default_rng(26), 3)
        gain, cov = joseph_posterior(prior, model, observation_cov(model, prior))
        np.testing.assert_allclose(gain, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(cov, np.zeros((3, 3)), atol=1e-12)

    @pytest.mark.parametrize("m", [20, 80])
    def test_matches_dense_forms_at_p80(self, m):
        # At 20 dB: the gain against sigma H^T inv(K) and C against the
        # information form (sigma^-1 + H^T D^-1 H)^-1, both by dense inverses.
        rng = np.random.default_rng(40 + m)
        sigma = random_spd(rng, 80)
        h = rng.standard_normal((m, 80))
        noise_var = float(np.trace(h @ sigma.entries @ h.T)) / (m * 100.0)
        model = LinearModel(h, CovMatrix(noise_var * np.eye(m)))
        k = observation_cov(model, sigma)
        post_gain, post_cov = joseph_posterior(sigma, model, k)
        gain = sigma.entries @ h.T @ np.linalg.inv(k.entries)
        cov = np.linalg.inv(np.linalg.inv(sigma.entries) + h.T @ h / noise_var)
        np.testing.assert_allclose(post_gain, gain, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(post_cov, cov, rtol=0.0, atol=1e-10)

    def test_order_guard_needs_no_eigensolve_when_it_holds(self, monkeypatch):
        # sigma - C has rank m < p here, so its smallest eigenvalues are
        # rounding-level; the Cholesky test must still accept it alone.
        sigma, _, model, _ = make_scenario(p=80, m=40, seed=7)

        def no_eigensolve(*args, **kwargs):
            raise AssertionError("eigvalsh called on the accepting path")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
        _, cov = joseph_posterior(sigma, model, observation_cov(model, sigma))
        assert cov.shape == (80, 80)

    def test_order_guard_tolerance(self):
        u = np.linalg.qr(np.random.default_rng(8).standard_normal((5, 5)))[0]
        for lowest in (0.0, -5e-10):
            check_order(u @ np.diag([2.0, 1.0, 0.5, 0.0, lowest]) @ u.T)
        with pytest.raises(NumericalError, match=r"exceeds the prior \(eigenvalue -1\.0"):
            check_order(u @ np.diag([2.0, 1.0, 0.5, 0.0, -1e-8]) @ u.T)


class TestComputeOmega:
    def test_scalar_closed_form(self):
        # C = 0.8, gain = 0.8, M = 1, so omega = 0.8 + 0.64 = 1.44.
        model = LinearModel(np.eye(1), CovMatrix(np.eye(1)))
        obs = ObservationSet(np.array([[1.0], [-1.0]]))
        _, omega = compute_omega(model, obs, CovMatrix(np.array([[4.0]])))
        assert omega.entries[0, 0] == pytest.approx(1.44, abs=1e-14)

    def test_matches_per_sample_average(self):
        # Oracle: average C + mu_i mu_i^T over samples, mu_i = gain y_i.
        sigma, sigma0, model, obs = make_scenario(seed=4)
        gain, cov = joseph_posterior(sigma0, model, observation_cov(model, sigma0))
        pooled = np.zeros((model.p, model.p))
        for y in obs.samples:
            mu = gain @ y
            pooled += cov + np.outer(mu, mu)
        pooled /= obs.r
        _, omega = compute_omega(model, obs, sigma0)
        np.testing.assert_allclose(omega.entries, pooled, atol=1e-12)

    def test_uses_uncentered_moment(self):
        # Shifting every sample by a constant must change the result.
        sigma, sigma0, model, obs = make_scenario(seed=5)
        shifted = ObservationSet(obs.samples + 3.0)
        _, base = compute_omega(model, obs, sigma0)
        _, moved = compute_omega(model, shifted, sigma0)
        assert not np.allclose(base.entries, moved.entries, atol=1e-6)

    def test_no_mixing_returns_the_prior(self):
        model = no_mixing_model(CovMatrix(np.eye(2)), 3)
        prior = random_spd(np.random.default_rng(6), 3)
        obs = ObservationSet(np.random.default_rng(7).standard_normal((20, 2)))
        _, omega = compute_omega(model, obs, prior)
        np.testing.assert_allclose(omega.entries, prior.entries, atol=1e-10)

    @pytest.mark.parametrize("p", [4, 10, 40])
    def test_agrees_with_joseph_form(self, p):
        # The seam's pooled moment against C + G M G^T from the Joseph
        # oracle, from -10 to 400 dB with r > m, the samples run_em accepts,
        # and its objective bitwise the same whether it pools or not. Where
        # r <= m at 140 dB and beyond, Omega is numerically singular and the
        # two forms may fail on different cases, so that corner is left out.
        for snr_db in (-10.0, 20.0, 100.0, 140.0, 400.0):
            for seed in (0, 1):
                rng = np.random.default_rng([p, seed, int(snr_db) + 10])
                sigma = random_spd(rng, p)
                truth = random_spd(rng, p)
                for m in sorted({1, p // 2, p}):
                    h = rng.standard_normal((m, p))
                    power = float(np.trace(h @ sigma.entries @ h.T))
                    noise = power / (m * 10.0 ** (snr_db / 10.0))
                    model = LinearModel(h, CovMatrix(noise * np.eye(m)))
                    k = observation_cov(model, sigma)
                    gain, cov = joseph_posterior(sigma, model, k)
                    for r in sorted({m + 1, 2 * m}):
                        obs = sample_observations(model, truth, r, seed=seed)
                        expected = cov + gain @ obs.second_moment @ gain.T
                        expected = CovMatrix((expected + expected.T) / 2.0).entries
                        obs_kl, omega = compute_omega(model, obs, sigma)
                        gap = np.abs(omega.entries - expected).max() / np.abs(expected).max()
                        assert gap <= 1e-11, (snr_db, seed, m, r, gap)
                        unpooled = compute_omega(model, obs, sigma, pool=False)
                        assert unpooled == (obs_kl, None), (snr_db, seed, m, r)

    def test_indefinite_moment_fails_by_name(self):
        # At 400 dB with p = m = 4, C is rounding-level, and r = 2 samples
        # give M rank 2, so Omega is singular up to rounding and its Cholesky
        # fails for most draws (16 of these 20 seeds). Two samples give no
        # S_Y to score with, so the seam gets a stand-in set that carries
        # their moment and the S_Y of 50 samples of the same model.
        failed = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            sigma = random_spd(rng, 4)
            h = rng.standard_normal((4, 4))
            noise = float(np.trace(h @ sigma.entries @ h.T)) / (4 * 1e40)
            model = LinearModel(h, CovMatrix(noise * np.eye(4)))
            two = sample_observations(model, sigma, 2, seed=seed)
            obs = types.SimpleNamespace(
                r=two.r, m=two.m, second_moment=two.second_moment,
                empirical=sample_observations(model, sigma, 50, seed=seed).empirical,
            )
            try:
                compute_omega(model, obs, sigma)
            except NumericalError as exc:
                assert re.fullmatch(
                    r"pooled posterior moment is not positive definite \(r=2, m=4\)", str(exc)
                )
                assert isinstance(exc.__cause__, NotPositiveDefiniteError)
                failed += 1
        assert failed > 0

    def test_rejects_observations_of_another_dimension_by_name(self):
        _, sigma0, model, _ = make_scenario(seed=24)
        bad = ObservationSet(np.random.default_rng(25).standard_normal((10, model.m + 1)))
        named = rf"^observation dimension {model.m + 1} != model m={model.m}$"
        with pytest.raises(ValueError, match=named):
            compute_omega(model, bad, chow_liu(sigma0))


class TestEmStep:
    def test_no_mixing_tree_prior_is_a_fixed_point(self):
        # With H = 0 the pooled moment is the prior itself, and refitting a
        # tree covariance reproduces it.
        model = no_mixing_model(CovMatrix(np.eye(2)), 3)
        prior = chow_liu(random_spd(np.random.default_rng(11), 3))
        obs = ObservationSet(np.random.default_rng(12).standard_normal((20, 2)))
        cov = chow_liu(compute_omega(model, obs, prior)[1])
        np.testing.assert_allclose(cov.entries, prior.entries, atol=1e-10)

    def test_iteration_reaches_a_fixed_point(self):
        sigma, sigma0, model, obs = make_scenario(p=3, m=3, r=200, seed=13)
        cov = chow_liu(sigma0)
        for _ in range(500):
            new_cov = chow_liu(compute_omega(model, obs, cov)[1])
            delta = kl_gaussian(cov, new_cov)
            cov = new_cov
            if delta < 1e-13:
                break
        else:
            pytest.fail("no fixed point within 500 refinements")
        settled = chow_liu(compute_omega(model, obs, cov)[1])
        assert kl_gaussian(cov, settled) < 1e-10


class TestEmConfig:
    def test_rejects_nonpositive_epsilon(self):
        sigma0 = CovMatrix(np.eye(2))
        with pytest.raises(ValueError, match="epsilon"):
            EmConfig(sigma0, epsilon=0.0)
        with pytest.raises(ValueError, match="epsilon"):
            EmConfig(sigma0, epsilon=-1.0)
        with pytest.raises(ValueError, match="epsilon"):
            EmConfig(sigma0, epsilon=math.inf)

    @pytest.mark.parametrize("bad", [10**400, -(10**400)], ids=["10**400", "-10**400"])
    def test_rejects_ints_beyond_the_float_range_by_name(self, bad):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            EmConfig(CovMatrix(np.eye(2)), epsilon=bad)

    @pytest.mark.parametrize("bad", ["0.1", None, [0.1], True])
    def test_rejects_non_numeric_epsilon_by_name(self, bad):
        with pytest.raises(ValueError, match="epsilon must be a real number"):
            EmConfig(CovMatrix(np.eye(2)), epsilon=bad)
        assert EmConfig(CovMatrix(np.eye(2)), epsilon=np.float64(0.5)).epsilon == 0.5
        # A float32 threshold is compared as the double of equal value.
        assert type(EmConfig(CovMatrix(np.eye(2)), epsilon=np.float32(0.1)).epsilon) is float

    def test_rejects_zero_cap(self):
        with pytest.raises(ValueError, match="l_max"):
            EmConfig(CovMatrix(np.eye(2)), l_max=0)

    def test_rejects_non_integer_cap(self):
        with pytest.raises(ValueError, match="l_max must be an integer"):
            EmConfig(CovMatrix(np.eye(2)), l_max=2.5)
        with pytest.raises(ValueError, match="l_max must be an integer"):
            EmConfig(CovMatrix(np.eye(2)), l_max=True)
        assert EmConfig(CovMatrix(np.eye(2)), l_max=np.int64(3)).l_max == 3

    def test_defaults(self):
        config = EmConfig(CovMatrix(np.eye(2)))
        assert config.epsilon == 0.01
        assert config.l_max == 20

    def test_prior_fit_is_derived_once(self):
        sigma0 = random_spd(np.random.default_rng(22), 4)
        config = EmConfig(sigma0)
        expected = chow_liu(sigma0)
        assert config.prior_fit.tree.edges == expected.tree.edges
        assert np.array_equal(config.prior_fit.entries, expected.entries)
        with pytest.raises(TypeError):
            EmConfig(sigma0, prior_fit=expected)


class TestRunEm:
    def test_cap_of_one_records_only_the_prior_fit(self):
        _, sigma0, model, obs = make_scenario(seed=14)
        trace = run_em(EmConfig(sigma0, l_max=1), model, obs)
        assert len(trace.iterations) == 1
        assert trace.stop_reason is StopReason.LMAX_REACHED
        assert trace.final.step_kl == math.inf
        expected = chow_liu(sigma0)
        assert np.array_equal(trace.final.sigma_tree.entries, expected.entries)

    def test_huge_epsilon_stops_after_two(self):
        _, sigma0, model, obs = make_scenario(seed=15)
        trace = run_em(EmConfig(sigma0, epsilon=1000.0), model, obs)
        assert len(trace.iterations) == 2
        assert trace.stop_reason is StopReason.EPSILON_REACHED

    def test_epsilon_stop_implies_small_final_step(self):
        _, sigma0, model, obs = make_scenario(seed=16)
        config = EmConfig(sigma0, epsilon=0.01, l_max=50)
        trace = run_em(config, model, obs)
        assert trace.stop_reason is StopReason.EPSILON_REACHED
        assert trace.final.step_kl < config.epsilon
        assert all(rec.step_kl >= config.epsilon for rec in trace.iterations[1:-1])

    def test_respects_the_cap(self):
        _, sigma0, model, obs = make_scenario(seed=17)
        trace = run_em(EmConfig(sigma0, epsilon=1e-12, l_max=5), model, obs)
        assert len(trace.iterations) == 5
        assert trace.stop_reason is StopReason.LMAX_REACHED
        assert [rec.index for rec in trace.iterations] == [1, 2, 3, 4, 5]

    def test_first_step_is_infinite_rest_finite(self):
        _, sigma0, model, obs = make_scenario(seed=18)
        trace = run_em(EmConfig(sigma0, l_max=6, epsilon=1e-12), model, obs)
        assert trace.iterations[0].step_kl == math.inf
        assert all(math.isfinite(rec.step_kl) for rec in trace.iterations[1:])

    def test_objective_never_rises_in_a_clean_run(self):
        _, sigma0, model, obs = make_scenario(seed=19)
        with warnings.catch_warnings():
            warnings.simplefilter("error", EmMonotonicityWarning)
            trace = run_em(EmConfig(sigma0, epsilon=1e-10, l_max=30), model, obs)
        values = [rec.obs_kl for rec in trace.iterations]
        for before, after in zip(values, values[1:]):
            assert after <= before + 1e-6

    def test_objective_matches_independent_recomputation(self):
        _, sigma0, model, obs = make_scenario(seed=20)
        trace = run_em(EmConfig(sigma0, l_max=4, epsilon=1e-12), model, obs)
        for rec in trace.iterations:
            assert rec.obs_kl == pytest.approx(
                kl_gaussian(
                    CovMatrix(obs.centered_cov), observation_cov(model, rec.sigma_tree)
                ),
                rel=1e-12,
            )

    def test_builds_one_observation_cov_per_iterate(self, monkeypatch):
        # K scores an iterate and then conditions on it in the next step.
        _, sigma0, model, obs = make_scenario(seed=27)
        built = []

        def counting(model, sigma):
            built.append(sigma)
            return observation_cov(model, sigma)

        monkeypatch.setattr(treecov.em, "observation_cov", counting)
        trace = run_em(EmConfig(sigma0, l_max=6, epsilon=1e-12), model, obs)
        assert len(trace.iterations) == 6
        assert built == [rec.sigma_tree for rec in trace.iterations]

    def test_one_inverse_per_iterate(self, monkeypatch):
        # One inverse of K gives both the iterate's objective and the gain
        # that the next refit pools with; nothing is solved against K.
        _, sigma0, model, obs = make_scenario(seed=29)
        shapes = {"inv": [], "solve": []}
        for name in shapes:
            original = getattr(np.linalg, name)

            def recording(a, *args, _name=name, _original=original, **kwargs):
                shapes[_name].append(np.shape(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        trace = run_em(EmConfig(sigma0, l_max=6, epsilon=1e-12), model, obs)
        assert len(trace.iterations) == 6
        assert shapes == {"inv": [(model.m, model.m)] * len(trace.iterations), "solve": []}

    def test_no_dense_latent_solve_per_iterate(self, monkeypatch):
        # The p x p work left per refit is one Cholesky factor, the pooled
        # moment's; the tree divergences take O(p), and K's inverse is m x m.
        # With m < p every p x p solve or inverse would be dense latent work.
        p, m = 80, 40
        sigma, sigma0, model, obs = make_scenario(p=p, m=m, r=200, seed=28)
        config = EmConfig(sigma0, l_max=4, epsilon=1e-12)
        shapes = {"solve": [], "inv": [], "cholesky": []}
        for name in shapes:
            original = getattr(np.linalg, name)

            def recording(a, *args, _name=name, _original=original, **kwargs):
                shapes[_name].append(np.shape(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        trace = run_em(config, model, obs, ground_truth=sigma)
        refits = len(trace.iterations) - 1
        assert refits == 3
        assert (p, p) not in shapes["solve"]
        assert (p, p) not in shapes["inv"]
        assert shapes["cholesky"].count((p, p)) == refits

    def test_repeated_trees_are_validated_once(self, monkeypatch):
        # Most refits return the tree of the iterate before; chow_liu then
        # reuses that tree, validated and traversed once.
        p, m = 40, 20
        _, sigma0, model, obs = make_scenario(p=p, m=m, r=200, seed=30)
        config = EmConfig(sigma0, l_max=8, epsilon=1e-12)
        config.prior_fit  # fitted on first use; only the refits are counted
        treecov.tree._interned_tree.cache_clear()
        validations = []
        original = SpanningTree.__post_init__

        def counting(tree):
            validations.append(tree.edges)
            original(tree)

        monkeypatch.setattr(SpanningTree, "__post_init__", counting)
        trace = run_em(config, model, obs)
        refits = [rec.sigma_tree.tree for rec in trace.iterations[1:]]
        distinct = {tree.edges for tree in refits}
        assert len(refits) == 7 and len(distinct) < len(refits)
        assert len(validations) == len(distinct)
        for before, after in zip(refits, refits[1:]):
            assert (after is before) == (after.edges == before.edges)

    def test_bitwise_deterministic(self):
        _, sigma0, model, obs = make_scenario(seed=21)
        config = EmConfig(sigma0, l_max=8, epsilon=1e-9)
        a = run_em(config, model, obs)
        b = run_em(config, model, obs)
        assert len(a.iterations) == len(b.iterations)
        for ra, rb in zip(a.iterations, b.iterations):
            assert np.array_equal(ra.sigma_tree.entries, rb.sigma_tree.entries)
            assert ra.obs_kl == rb.obs_kl
            assert ra.step_kl == rb.step_kl

    def test_latent_divergence_only_with_ground_truth(self):
        sigma, sigma0, model, obs = make_scenario(seed=22)
        bare = run_em(EmConfig(sigma0, l_max=3), model, obs)
        assert all(rec.latent_kl is None for rec in bare.iterations)
        tracked = run_em(EmConfig(sigma0, l_max=3), model, obs, ground_truth=sigma)
        assert all(rec.latent_kl is not None and rec.latent_kl >= 0.0 for rec in tracked.iterations)

    def test_iterates_are_valid_tree_covariances(self):
        # Every iterate must match its source moment on the diagonal and
        # carry a precision matrix supported on its own tree.
        _, sigma0, model, obs = make_scenario(seed=23)
        trace = run_em(EmConfig(sigma0, l_max=5, epsilon=1e-12), model, obs)
        source = sigma0
        for rec in trace.iterations:
            assert np.array_equal(np.diag(rec.sigma_tree.entries), np.diag(source.entries))
            precision = np.linalg.inv(rec.sigma_tree.entries)
            scale = np.abs(precision).max()
            adj = adjacency(rec.sigma_tree.tree)
            for u in range(rec.sigma_tree.dim):
                for v in range(u + 1, rec.sigma_tree.dim):
                    if v not in adj[u]:
                        assert abs(precision[u, v]) < 1e-8 * scale
            _, source = compute_omega(model, obs, rec.sigma_tree)

    def test_rejects_dimension_mismatches(self):
        _, sigma0, model, obs = make_scenario(seed=24)
        with pytest.raises(ValueError, match="dimension"):
            run_em(EmConfig(CovMatrix(np.eye(model.p + 1))), model, obs)
        bad = ObservationSet(np.random.default_rng(25).standard_normal((10, model.m + 1)))
        with pytest.raises(ValueError, match="observation dimension"):
            run_em(EmConfig(sigma0), model, bad)


class TestIdentifiability:
    """A tree covariance has 2p - 1 parameters and the observed moment M has
    m(m+1)/2. With no more moments than parameters, EM run to convergence
    reproduces M up to roundoff, so the likelihood barely ranks trees; with
    more, a gap stays. The gap KL(N(0, M) || N(0, K)) of the final iterate
    is the zero-mean NLL, without its 2 pi term, less (m + ln det M) / 2.
    Seed 0 gives the default sweep's truth and prior, and each trial's H and
    samples are drawn from the sweep's own seed labels."""

    @pytest.mark.parametrize("m, saturable", [(3, True), (9, False)])
    def test_gap_at_convergence(self, m, saturable):
        p = 10
        assert (m * (m + 1) // 2 <= 2 * p - 1) == saturable
        sigma = generate_ground_truth(p, derive_seed(0, "sigma"))
        sigma0 = generate_prior(sigma, 0.5, derive_seed(0, "prior"))
        config = EmConfig(sigma0, epsilon=1e-9, l_max=400)
        gaps = []
        with warnings.catch_warnings():
            # EM lowers the uncentered objective, so the centered one it
            # reports may rise by a little near convergence.
            warnings.simplefilter("ignore", EmMonotonicityWarning)
            for trial in range(10):
                model = generate_mixing(p, m, 20.0, sigma, derive_seed(0, "mixing", m, trial))
                obs = sample_observations(
                    model, sigma, 100, derive_seed(0, "observations", m, trial)
                )
                fit = run_em(config, model, obs).final.sigma_tree
                gaps.append(kl_gaussian(CovMatrix(obs.second_moment), observation_cov(model, fit)))
        if saturable:
            assert max(gaps) < 1e-6  # measured maximum 3.2e-8
        else:
            assert min(gaps) > 0.05  # measured minimum 0.072, median 0.176
