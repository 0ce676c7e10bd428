"""Shared test fixtures and oracles.

Seeded random SPD covariance matrices, a tree's adjacency lists, the
per-pair scalar mutual information that is the oracle for the Chow-Liu
weights, the exhaustive spanning-tree search that serves as the
correctness oracle for the Chow-Liu fit, the Joseph form of the latent
posterior with its order check, the oracle for the pooled posterior
moment, and the one-shot observation sampler and second moment, the
oracles for their row-blocked forms.
"""

from __future__ import annotations

import itertools
import math
from types import SimpleNamespace

import numpy as np

from treecov import CovMatrix, NumericalError, SpanningTree, tree_covariance
from treecov.tree import prufer_decode

BRUTE_FORCE_MAX_VERTICES = 8
POSTERIOR_ORDER_TOL = 1e-9


def random_spd(rng: np.random.Generator, p: int, vary_scale: bool = True) -> CovMatrix:
    """Well-conditioned random SPD matrix (Wishart, 2p degrees of freedom)."""
    a = rng.standard_normal((p, 2 * p))
    s = a @ a.T / (2 * p)
    if vary_scale:
        d = rng.uniform(0.5, 2.0, size=p)
        s = s * np.outer(d, d)
    return CovMatrix((s + s.T) / 2.0)


def corr3(r01: float, r12: float, r02: float) -> CovMatrix:
    """Unit-variance 3x3 covariance with the given pairwise correlations."""
    return CovMatrix(
        np.array([[1.0, r01, r02], [r01, 1.0, r12], [r02, r12, 1.0]])
    )


def adjacency(tree: SpanningTree) -> list[list[int]]:
    """Neighbours of every vertex, in the order of ``tree.edges``."""
    adj: list[list[int]] = [[] for _ in range(tree.num_vertices)]
    for u, v in tree.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def scalar_pair_weights(sigma: CovMatrix) -> list[float]:
    """Mutual information -0.5 * ln(1 - rho^2) of every pair u < v, in
    ``np.triu_indices`` order, one pair at a time with Python floats and the
    C library's log1p."""
    s = sigma.entries
    weights = []
    for u, v in zip(*np.triu_indices(sigma.dim, k=1)):
        rho = float(s[u, v]) / math.sqrt(float(s[u, u]) * float(s[v, v]))
        weights.append(-0.5 * math.log1p(-rho * rho))
    return weights


def no_mixing_model(noise: CovMatrix, p: int) -> SimpleNamespace:
    """Stand-in for a LinearModel with H = 0, the no-information limit.

    A real LinearModel rejects H = 0 as rank deficient; the posterior and
    pooling code reads only ``h``, ``d``, ``m`` and ``p``.
    """
    return SimpleNamespace(h=np.zeros((noise.dim, p)), d=noise, m=noise.dim, p=p)


def one_shot_samples(model, sigma_true: CovMatrix, r: int, seed: int) -> np.ndarray:
    """The r x m samples of ``sample_observations`` drawn in one piece.

    All r x p latent normals, then all r x m noise normals, from one PCG64
    stream, each mapped through one whole-array product.
    """
    rng = np.random.default_rng(seed)
    c = np.ascontiguousarray
    x = rng.standard_normal((r, model.p)) @ c(sigma_true.chol.T)
    w = rng.standard_normal((r, model.m)) @ c(model.d.chol.T)
    return x @ c(model.h.T) + w


def one_shot_second_moment(y: np.ndarray) -> np.ndarray:
    """Symmetrized (1/r) y^T y from one whole-array product."""
    second = np.ascontiguousarray(y.T) @ y / y.shape[0]
    return (second + second.T) / 2.0


def joseph_posterior(
    sigma: CovMatrix, model, k: CovMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """Latent posterior (gain, cov) under prior N(0, sigma), in Joseph form.

    Covariance (Joseph) form, which solves only with the m x m observation
    covariance K = H sigma H^T + D (Bucy & Joseph 1968): gain = sigma H^T
    K^-1, from one ``numpy.linalg.solve(K, H sigma)``, and C = (I - gain H)
    sigma (I - gain H)^T + gain D gain^T, a sum of positive semidefinite
    terms at any noise level. The posterior mean for observation y is
    gain @ y. C is returned as a plain symmetric array, since it becomes
    singular along the rows of H as the noise vanishes, after
    ``check_order(sigma - C)``.
    """
    s = sigma.entries
    gain = np.linalg.solve(k.entries, model.h @ s).T
    a = np.eye(model.p) - gain @ model.h
    c = a @ s @ a.T + gain @ model.d.entries @ gain.T
    c = (c + c.T) / 2.0
    check_order(s - c)
    return gain, c


def check_order(gap: np.ndarray) -> None:
    """Raise unless the smallest eigenvalue of gap = sigma - C is at least -1e-9.

    Conditioning never inflates the covariance. A Cholesky factor of
    gap + 1e-9 I exists exactly when the bound holds, so it accepts the
    common case; the eigenvalues are computed only when it fails, to decide
    near the boundary and to report.
    """
    try:
        np.linalg.cholesky(gap + POSTERIOR_ORDER_TOL * np.eye(gap.shape[0]))
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(gap).min())
        if min_eig < -POSTERIOR_ORDER_TOL:
            raise NumericalError(
                f"posterior covariance exceeds the prior (eigenvalue {min_eig:.3e})"
            ) from None


def brute_force_optimal_tree(sigma: CovMatrix) -> tuple[SpanningTree, float]:
    """Exhaustive minimum-KL spanning tree, the small-dimension oracle.

    Decodes every length-(p-2) vertex sequence into a labelled tree (each
    tree appears exactly once), completes each marginal-matching covariance,
    and returns the argmin tree with its approximation divergence, scored as
    0.5 * (ln det tilde - ln det sigma) with both log-determinants from
    ``np.linalg.slogdet``, unclamped. Exact ties are broken by lexicographic
    edge-list order. Rejects p > 8, where the p^(p-2) enumeration stops
    being practical.
    """
    p = sigma.dim
    if p < 2:
        raise ValueError(f"need at least two vertices, got {p}")
    if p > BRUTE_FORCE_MAX_VERTICES:
        raise ValueError(
            f"exhaustive search supports p <= {BRUTE_FORCE_MAX_VERTICES}, got {p}"
        )
    s = sigma.entries
    logdet_sigma = np.linalg.slogdet(s)[1]
    best_kl = np.inf
    best_tree: SpanningTree | None = None
    for seq in itertools.product(range(p), repeat=p - 2):
        tree = SpanningTree(p, prufer_decode(seq, p))
        tilde = tree_covariance(sigma, tree).entries
        sign, logdet_tilde = np.linalg.slogdet(tilde)
        if sign <= 0:
            raise NumericalError("candidate tree covariance not positive definite")
        kl = 0.5 * (logdet_tilde - logdet_sigma)
        if kl < best_kl or (kl == best_kl and tree.edges < best_tree.edges):
            best_kl = kl
            best_tree = tree
    return best_tree, float(best_kl)
