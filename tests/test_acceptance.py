"""Acceptance gate: one test per criterion, one printed verdict line each.

The heavy synthetic sweep (p=10, m in 5..9, 100 trials of 100 samples at
20 dB from a half-corrupted prior) runs once per session and backs the
comparison, monotonicity, stopping, and determinism criteria, and the
paper's anchor: its refit count and mean latent KL.
"""

from __future__ import annotations

import math
import time
import warnings as warnings_module
from dataclasses import dataclass, replace

import numpy as np
import pytest
from scipy.stats import binomtest

from treecov import (
    CovMatrix,
    EmMonotonicityWarning,
    EmTrace,
    ExperimentConfig,
    LinearModel,
    SpanningTree,
    SweepResult,
    chow_liu,
    emit_results,
    kl_gaussian,
    run_sweep,
    sample_observations,
    tree_covariance,
)
from treecov.em import compute_omega
from treecov.linear import observation_cov
from treecov.tree import prufer_decode

from _helpers import brute_force_optimal_tree, joseph_posterior, random_spd

SWEEP_CONFIG = ExperimentConfig(
    p=10,
    m_values=(5, 6, 7, 8, 9),
    r=100,
    snr_db=20.0,
    trials=100,
    seed=0,
    epsilon=0.01,
    l_max=20,
    alpha=0.5,
)


def report(name: str, ok: bool, detail: str, capsys) -> None:
    with capsys.disabled():
        print(f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


@dataclass
class SweepRun:
    result: SweepResult
    objective_series: list[list[float]]
    warnings: list[warnings_module.WarningMessage]
    elapsed: float


@pytest.fixture(scope="module")
def main_run() -> SweepRun:
    series: list[list[float]] = []

    def collect(m: int, trial: int, trace: EmTrace) -> None:
        series.append([rec.obs_kl for rec in trace.iterations])

    start = time.perf_counter()
    with warnings_module.catch_warnings(record=True) as caught:
        warnings_module.simplefilter("always")
        result = run_sweep(SWEEP_CONFIG, on_trace=collect)
    elapsed = time.perf_counter() - start
    return SweepRun(result=result, objective_series=series, warnings=list(caught), elapsed=elapsed)


@pytest.fixture(scope="module")
def coarse_run() -> SweepResult:
    return run_sweep(replace(SWEEP_CONFIG, epsilon=0.1))


def test_a1_tree_fit_is_globally_optimal(capsys):
    # 100 seeded instances, p in 3..6; the greedy fit must match exhaustive
    # enumeration over all labelled trees to 1e-9, in under 30 s.
    start = time.perf_counter()
    gap = 0.0
    count = 0
    for p in (3, 4, 5, 6):
        for seed in range(25):
            sigma = random_spd(np.random.default_rng(1000 * p + seed), p)
            _, oracle_kl = brute_force_optimal_tree(sigma)
            gap = max(gap, abs(kl_gaussian(sigma, chow_liu(sigma)) - oracle_kl))
            count += 1
    elapsed = time.perf_counter() - start
    ok = gap < 1e-9 and elapsed < 30.0
    report("A1", ok, f"max |kl gap| = {gap:.3e} over {count} instances in {elapsed:.1f}s", capsys)


def test_a2_simplified_divergence_matches_full_form(capsys):
    # 200 seeded pairs, p in 3..8: the O(p) divergence of the fitted tree
    # covariance must agree with the dense form of the same matrix to 1e-9.
    gap = 0.0
    for seed in range(200):
        p = 3 + seed % 6
        sigma = random_spd(np.random.default_rng(seed), p)
        fit = chow_liu(sigma)
        gap = max(gap, abs(kl_gaussian(sigma, fit) - kl_gaussian(sigma, CovMatrix(fit.entries))))
    ok = gap < 1e-9
    report("A2", ok, f"max |closed form - full| = {gap:.3e} over 200 pairs", capsys)


def test_a3_pooled_moment_matches_per_sample_average(capsys):
    # 50 seeded instances (p <= 6, m <= p, r <= 100): the pooled posterior
    # moment of the E-step seam must match averaging the Joseph-form
    # posterior moment over samples to 1e-8.
    gap = 0.0
    for seed in range(50):
        rng = np.random.default_rng(10_000 + seed)
        p = 3 + seed % 4
        m = 1 + seed % p
        r = 10 + (seed * 7) % 91
        sigma = random_spd(rng, p)
        prior = chow_liu(random_spd(rng, p))
        model = LinearModel(rng.standard_normal((m, p)), CovMatrix(0.2 * np.eye(m)))
        obs = sample_observations(model, sigma, r, seed=seed)
        k = observation_cov(model, prior)
        gain, cov = joseph_posterior(prior, model, k)
        pooled = np.zeros((p, p))
        for y in obs.samples:
            mu = gain @ y
            pooled += cov + np.outer(mu, mu)
        pooled /= obs.r
        _, omega = compute_omega(model, obs, prior)
        gap = max(gap, float(np.abs(omega.entries - pooled).max()))
    ok = gap < 1e-8
    report("A3", ok, f"max entrywise gap = {gap:.3e} over 50 instances", capsys)


def test_a4_learned_tree_beats_prior_tree_and_improves_with_channels(main_run, capsys):
    result = main_run.result
    problems = []
    if result.failures:
        problems.append(f"{len(result.failures)} trials failed")
    if [agg.m for agg in result.aggregates] != list(SWEEP_CONFIG.m_values):
        problems.append("aggregate rows missing")
    means = []
    for agg in result.aggregates:
        em_mean = agg.latent_kl_em.mean
        prior_mean = agg.latent_kl_prior_tree.mean
        means.append(em_mean)
        if not em_mean < prior_mean:
            problems.append(f"m={agg.m}: mean {em_mean:.4f} !< prior {prior_mean:.4f}")
        trials = [rec for rec in result.records if rec.m == agg.m]
        wins = sum(rec.latent_kl_em < rec.latent_kl_prior_tree for rec in trials)
        pvalue = binomtest(wins, len(trials), 0.5, alternative="greater").pvalue
        if not pvalue < 0.05:
            problems.append(f"m={agg.m}: sign test p={pvalue:.3g} (wins {wins}/{len(trials)})")
    for left, right in zip(means, means[1:]):
        if right > left + 1e-12:
            problems.append(f"means rise with m: {left:.4f} -> {right:.4f}")
    if main_run.elapsed >= 300.0:
        problems.append(f"sweep took {main_run.elapsed:.0f}s")
    ok = not problems
    detail = (
        f"mean kl_em per m = {', '.join(f'{v:.4f}' for v in means)} vs prior "
        f"{result.aggregates[0].latent_kl_prior_tree.mean:.4f} in {main_run.elapsed:.0f}s"
        if ok
        else "; ".join(problems)
    )
    report("A4", ok, detail, capsys)


def test_a5_objective_never_rises_across_all_trials(main_run, capsys):
    worst = -np.inf
    violations = 0
    steps = 0
    for series in main_run.objective_series:
        for before, after in zip(series, series[1:]):
            steps += 1
            worst = max(worst, after - before)
            if after - before > 1e-6:
                violations += 1
    monotonicity_warnings = [
        w for w in main_run.warnings if issubclass(w.category, EmMonotonicityWarning)
    ]
    ok = violations == 0 and not monotonicity_warnings
    report(
        "A5",
        ok,
        f"{violations} rises > 1e-6 in {steps} steps "
        f"(worst rise {worst:.3e}, {len(monotonicity_warnings)} warnings)",
        capsys,
    )


def test_a6_tree_covariances_match_marginals_with_sparse_precision(capsys):
    worst_marginal = 0.0
    worst_precision = 0.0
    for seed in range(100):
        rng = np.random.default_rng(20_000 + seed)
        p = 3 + seed % 6
        sigma = random_spd(rng, p)
        edges = prufer_decode([int(s) for s in rng.integers(0, p, size=p - 2)], p)
        tree = SpanningTree(p, edges)
        cov = tree_covariance(sigma, tree)
        edge_set = set(tree.edges)
        for u in range(p):
            worst_marginal = max(
                worst_marginal, abs(cov.entries[u, u] - sigma.entries[u, u])
            )
        for u, v in edges:
            worst_marginal = max(
                worst_marginal, abs(cov.entries[u, v] - sigma.entries[u, v])
            )
        precision = np.linalg.inv(cov.entries)
        for u in range(p):
            for v in range(u + 1, p):
                if (u, v) not in edge_set:
                    worst_precision = max(worst_precision, abs(precision[u, v]))
    ok = worst_marginal <= 1e-12 and worst_precision < 1e-9
    report(
        "A6",
        ok,
        f"max marginal gap = {worst_marginal:.3e}, "
        f"max non-edge precision = {worst_precision:.3e} over 100 pairs",
        capsys,
    )


def test_a7_coarser_stopping_uses_fewer_iterations(main_run, coarse_run, capsys):
    problems = []
    details = []
    for fine, coarse in zip(main_run.result.aggregates, coarse_run.aggregates):
        assert fine.m == coarse.m
        if coarse.iterations_used.mean > fine.iterations_used.mean + 1e-12:
            problems.append(
                f"m={fine.m}: {coarse.iterations_used.mean:.2f} iterations at 0.1 "
                f"> {fine.iterations_used.mean:.2f} at 0.01"
            )
        if coarse.latent_kl_em.mean < fine.latent_kl_em.mean - 1e-9:
            problems.append(
                f"m={fine.m}: coarse kl {coarse.latent_kl_em.mean:.4f} "
                f"< fine kl {fine.latent_kl_em.mean:.4f}"
            )
        details.append(
            f"m={fine.m}: {coarse.iterations_used.mean:.2f} vs "
            f"{fine.iterations_used.mean:.2f} iterations"
        )
    ok = not problems
    report("A7", ok, "; ".join(details if ok else problems), capsys)


def test_a8_rerun_byte_reproduces_the_result_table(main_run, tmp_path, capsys):
    fresh = run_sweep(SWEEP_CONFIG)
    (tmp_path / "first").mkdir()
    (tmp_path / "second").mkdir()
    _, csv_a = emit_results(main_run.result, tmp_path / "first" / "results.txt")
    doc_a = (tmp_path / "first" / "results.txt").read_text().splitlines()
    _, csv_b = emit_results(fresh, tmp_path / "second" / "results.txt")
    doc_b = (tmp_path / "second" / "results.txt").read_text().splitlines()
    csv_equal = csv_a.read_bytes() == csv_b.read_bytes()
    stable_a = [line for line in doc_a if not line.startswith("generated_at")]
    stable_b = [line for line in doc_b if not line.startswith("generated_at")]
    ok = csv_equal and stable_a == stable_b
    rows = len(csv_a.read_bytes().splitlines()) - 1
    report(
        "A8",
        ok,
        f"{rows}-row result table identical across independent runs"
        if ok
        else f"csv identical: {csv_equal}, document identical: {stable_a == stable_b}",
        capsys,
    )


def test_default_sweep_reproduces_the_paper_anchor(main_run, capsys):
    # The default sweep's totals, as recorded when the benchmark was built:
    # every refit count exactly, the mean latent KL to 10 places.
    records = main_run.result.records
    refits = sum(rec.iterations_used for rec in records)
    mean_kl = math.fsum(rec.latent_kl_em for rec in records) / len(records)
    ok = len(records) == 500 and refits == 2896 and round(mean_kl, 10) == 1.0468114826
    report(
        "anchor", ok, f"{len(records)} cells, {refits} refits, mean latent KL {mean_kl:.10f}", capsys
    )
