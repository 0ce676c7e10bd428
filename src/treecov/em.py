"""Alternating posterior / tree-refit iteration.

Starting from a prior guess of the latent covariance, each iteration forms
the latent posterior given the observations, pools the posterior second
moments, and refits the best spanning-tree covariance to the pooled moment.
The loop stops when consecutive iterates are closer than epsilon in latent
KL divergence or when the iteration cap is reached.
"""

from __future__ import annotations

import enum
import math
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from .gaussian import CovMatrix, NumericalError, kl_gaussian
from .linear import LinearModel, ObservationSet, empirical_gaussian, observation_cov
from .tree import TreeCovMatrix, chow_liu

MONOTONICITY_SLACK = 1e-6
POSTERIOR_ORDER_TOL = 1e-9


class EmMonotonicityWarning(RuntimeWarning):
    """The observation-space objective rose between iterations beyond slack.

    The refit step is an exact maximizer, so a genuine rise indicates a
    numerical fault rather than expected behaviour.
    """


class StopReason(enum.Enum):
    EPSILON_REACHED = "EpsilonReached"
    LMAX_REACHED = "LmaxReached"


@dataclass(frozen=True, eq=False)
class PosteriorGaussian:
    """Latent posterior p(x | y): shared covariance C and the map y -> mean.

    gain is sigma H^T K^-1 (p x m) with K = H sigma H^T + D the observation
    covariance; the posterior mean for observation y is gain @ y.
    Conditioning never inflates uncertainty, so 0 <= C <= prior in the
    positive semidefinite order. C is a plain symmetric array, not a
    CovMatrix: as the noise vanishes it becomes singular along the rows of H.
    """

    gain: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True, eq=False)
class EmConfig:
    """Iteration parameters: prior covariance, stopping threshold, cap.

    ``prior_fit`` is derived, not settable: the best tree fit of ``sigma0``,
    computed once here and shared by every run of the config.
    """

    sigma0: CovMatrix
    epsilon: float = 0.01
    l_max: int = 20
    prior_fit: TreeCovMatrix = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        try:
            object.__setattr__(self, "l_max", operator.index(self.l_max))
        except TypeError:
            raise ValueError(f"l_max must be an integer, got {self.l_max!r}") from None
        if self.l_max < 1:
            raise ValueError(f"l_max must be at least 1, got {self.l_max}")
        object.__setattr__(self, "prior_fit", chow_liu(self.sigma0))


@dataclass(frozen=True, eq=False)
class EmIteration:
    """One recorded iterate.

    sigma_tree is the fitted tree covariance, its ``tree`` the spanning tree.
    step_kl is the divergence from the previous iterate to this one (infinite
    for the first, where no previous iterate exists); latent_kl is the
    divergence from the ground truth when one was supplied.
    """

    index: int
    sigma_tree: TreeCovMatrix
    obs_kl: float
    step_kl: float
    latent_kl: float | None = None


@dataclass(frozen=True, eq=False)
class EmTrace:
    """Full iteration history and why the loop stopped."""

    iterations: tuple[EmIteration, ...]
    stop_reason: StopReason

    @property
    def final(self) -> EmIteration:
        return self.iterations[-1]

    def best_latent_index(self) -> int | None:
        """Iteration index with the smallest divergence from the ground truth.

        None when the run had no ground truth. On scenarios where the truth
        is known this calibrates the iteration cap: a cap near the returned
        index avoids both under- and over-iterating.
        """
        if any(rec.latent_kl is None for rec in self.iterations):
            return None
        return min(self.iterations, key=lambda rec: rec.latent_kl).index


def posterior(sigma_tree: CovMatrix, model: LinearModel, k: CovMatrix) -> PosteriorGaussian:
    """Latent posterior under prior N(0, sigma_tree) and the observation model.

    ``k`` is the iterate's observation covariance K = H sigma H^T + D, as
    built by ``observation_cov(model, sigma_tree)``; the caller passes it so
    that one K per iterate serves both the objective and the posterior.

    Covariance (Joseph) form, which solves only with the m x m K (Bucy &
    Joseph 1968): gain = sigma H^T K^-1, from one ``numpy.linalg.solve(K,
    H sigma)``, and C = (I - gain H) sigma (I - gain H)^T + gain D gain^T, a
    sum of positive semidefinite terms at any noise level.
    """
    if sigma_tree.dim != model.p or k.dim != model.m:
        raise ValueError(
            f"dimension mismatch: prior {sigma_tree.dim} and K {k.dim} "
            f"against model p={model.p}, m={model.m}"
        )
    sigma = sigma_tree.entries
    gain = np.linalg.solve(k.entries, model.h @ sigma).T
    a = np.eye(model.p) - gain @ model.h
    c = a @ sigma @ a.T + gain @ model.d.entries @ gain.T
    c = (c + c.T) / 2.0
    _check_order(sigma - c)
    return PosteriorGaussian(gain=gain, cov=c)


def _check_order(gap: np.ndarray) -> None:
    """Raise unless the smallest eigenvalue of gap = sigma - C is at least -1e-9.

    A Cholesky factor of gap + 1e-9 I exists exactly when that holds, so it
    accepts the common case; the eigenvalues are computed only when it fails,
    to decide near the boundary and to report. At p = 80 the factor takes
    0.03 ms against 0.3 ms for ``eigvalsh``, which numpy's OpenBLAS also
    splits over its worker thread: one call in ten then took 4-8 ms, and the
    woken worker spins for ~0.1 s beside the caller.
    """
    try:
        np.linalg.cholesky(gap + POSTERIOR_ORDER_TOL * np.eye(gap.shape[0]))
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(gap).min())
        if min_eig < -POSTERIOR_ORDER_TOL:
            raise NumericalError(
                f"posterior covariance exceeds the prior (eigenvalue {min_eig:.3e})"
            ) from None


def compute_omega(
    sigma_tree: CovMatrix, model: LinearModel, obs: ObservationSet, k: CovMatrix
) -> CovMatrix:
    """Posterior second moment pooled over the observation set.

    Omega = C + gain M gain^T with M the uncentered second moment of the
    observations; equivalently the average over samples of
    C + mean_y mean_y^T. Omega is positive definite even where C is singular.
    ``k`` is the iterate's observation covariance, as for ``posterior``.
    """
    if obs.m != model.m:
        raise ValueError(f"observation dimension {obs.m} != model m={model.m}")
    post = posterior(sigma_tree, model, k)
    omega = post.cov + post.gain @ obs.second_moment @ post.gain.T
    return CovMatrix((omega + omega.T) / 2.0)


def run_em(
    config: EmConfig,
    model: LinearModel,
    obs: ObservationSet,
    ground_truth: CovMatrix | None = None,
) -> EmTrace:
    """Iterate tree refits from chow_liu(sigma0) until convergence or the cap.

    The first iterate is the best tree fit of the prior itself
    (``config.prior_fit``); iterate l+1 is the best tree fit of the
    posterior moment pooled under iterate l,
    ``chow_liu(compute_omega(iterate_l, model, obs, k_l))``, where k_l is
    the observation covariance of iterate l, built once and also used for
    its objective. The loop stops once the latent-space divergence from
    iterate l to iterate l+1 drops below epsilon (EpsilonReached) or after
    l_max iterates (LmaxReached).

    Each record carries the observation-space objective, which requires a
    positive definite sample covariance (more samples than observed
    channels). When ``ground_truth`` is given, the divergence from it is
    recorded too. A rise of the objective beyond 1e-6 between consecutive
    iterates raises EmMonotonicityWarning, since the refit is an exact
    maximizer and genuine rises signal numerical trouble.

    Identical inputs produce bitwise-identical traces.
    """
    if config.sigma0.dim != model.p:
        raise ValueError(
            f"prior dimension {config.sigma0.dim} != model latent dimension {model.p}"
        )
    if obs.m != model.m:
        raise ValueError(f"observation dimension {obs.m} != model m={model.m}")
    empirical = empirical_gaussian(obs)

    def record(index: int, cov: TreeCovMatrix, step_kl: float, k: CovMatrix) -> EmIteration:
        obs_kl = kl_gaussian(empirical, k)
        latent = kl_gaussian(ground_truth, cov) if ground_truth is not None else None
        return EmIteration(
            index=index,
            sigma_tree=cov,
            obs_kl=obs_kl,
            step_kl=step_kl,
            latent_kl=latent,
        )

    # One observation covariance K per iterate: it scores the iterate here
    # and conditions on it in the next compute_omega.
    k = observation_cov(model, config.prior_fit)
    records = [record(1, config.prior_fit, math.inf, k)]
    stop = StopReason.LMAX_REACHED
    for index in range(2, config.l_max + 1):
        prev = records[-1]
        fit = chow_liu(compute_omega(prev.sigma_tree, model, obs, k))
        step_kl = kl_gaussian(prev.sigma_tree, fit)
        k = observation_cov(model, fit)
        rec = record(index, fit, step_kl, k)
        if rec.obs_kl > prev.obs_kl + MONOTONICITY_SLACK:
            warnings.warn(
                f"observation objective rose from {prev.obs_kl:.9g} to "
                f"{rec.obs_kl:.9g} at iteration {index}",
                EmMonotonicityWarning,
                stacklevel=2,
            )
        records.append(rec)
        if step_kl < config.epsilon:
            stop = StopReason.EPSILON_REACHED
            break
    return EmTrace(iterations=tuple(records), stop_reason=stop)
