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
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve

from .gaussian import CovMatrix, NumericalError, kl_gaussian
from .linear import LinearModel, ObservationSet, empirical_gaussian, observation_cov
from .tree import SpanningTree, TreeApproxResult, chow_liu

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

    gain is C H^T D^-1 (p x m); the posterior mean for observation y is
    gain @ y. Conditioning never inflates uncertainty, so C <= prior in the
    positive semidefinite order.
    """

    gain: np.ndarray
    cov: CovMatrix


@dataclass(frozen=True, eq=False)
class EmConfig:
    """Iteration parameters: prior covariance, stopping threshold, cap.

    ``prior_fit`` is derived, not settable: the best tree fit of ``sigma0``,
    computed once here and shared by every run of the config.
    """

    sigma0: CovMatrix
    epsilon: float = 0.01
    l_max: int = 20
    prior_fit: TreeApproxResult = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.l_max < 1:
            raise ValueError(f"l_max must be at least 1, got {self.l_max}")
        object.__setattr__(self, "prior_fit", chow_liu(self.sigma0))


@dataclass(frozen=True, eq=False)
class EmIteration:
    """One recorded iterate.

    step_kl is the divergence from the previous iterate to this one
    (infinite for the first, where no previous iterate exists); latent_kl
    is the divergence from the ground truth when one was supplied.
    """

    index: int
    sigma_tree: CovMatrix
    tree: SpanningTree
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


def posterior(sigma_tree: CovMatrix, model: LinearModel) -> PosteriorGaussian:
    """Latent posterior under prior N(0, sigma_tree) and the observation model.

    C = (sigma_tree^-1 + H^T D^-1 H)^-1 and gain = C H^T D^-1, both computed
    through Cholesky solves.
    """
    if sigma_tree.dim != model.p:
        raise ValueError(
            f"prior dimension {sigma_tree.dim} != model latent dimension {model.p}"
        )
    p = sigma_tree.dim
    prior_precision = cho_solve((sigma_tree.chol, True), np.eye(p))
    d_inv_h = cho_solve((model.d.chol, True), model.h)
    info = prior_precision + model.h.T @ d_inv_h
    info = (info + info.T) / 2.0
    try:
        info_chol = np.linalg.cholesky(info)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("posterior information matrix is not positive definite") from exc
    c = cho_solve((info_chol, True), np.eye(p))
    c = (c + c.T) / 2.0
    min_eig = float(np.linalg.eigvalsh(sigma_tree.entries - c).min())
    if min_eig < -POSTERIOR_ORDER_TOL:
        raise NumericalError(
            f"posterior covariance exceeds the prior (eigenvalue {min_eig:.3e})"
        )
    gain = c @ d_inv_h.T
    return PosteriorGaussian(gain=gain, cov=CovMatrix(c))


def compute_omega(
    sigma_tree: CovMatrix, model: LinearModel, obs: ObservationSet
) -> CovMatrix:
    """Posterior second moment pooled over the observation set.

    Omega = C + C H^T D^-1 M D^-1 H C with M the uncentered second moment of
    the observations; equivalently the average over samples of
    C + mean_y mean_y^T.
    """
    if obs.m != model.m:
        raise ValueError(f"observation dimension {obs.m} != model m={model.m}")
    post = posterior(sigma_tree, model)
    omega = post.cov.entries + post.gain @ obs.second_moment @ post.gain.T
    return CovMatrix((omega + omega.T) / 2.0)


def em_step(
    sigma_tree: CovMatrix, model: LinearModel, obs: ObservationSet
) -> tuple[CovMatrix, SpanningTree]:
    """One refinement: best tree fit of the pooled posterior moment."""
    result = chow_liu(compute_omega(sigma_tree, model, obs))
    return result.cov, result.tree


def run_em(
    config: EmConfig,
    model: LinearModel,
    obs: ObservationSet,
    ground_truth: CovMatrix | None = None,
) -> EmTrace:
    """Iterate tree refits from chow_liu(sigma0) until convergence or the cap.

    The first iterate is the best tree fit of the prior itself
    (``config.prior_fit``); iterate l+1 refits the moment pooled under
    iterate l. The loop stops once the latent-space divergence from iterate
    l to iterate l+1 drops below epsilon (EpsilonReached) or after l_max
    iterates (LmaxReached).

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

    def record(index: int, cov: CovMatrix, tree: SpanningTree, step_kl: float) -> EmIteration:
        obs_kl = kl_gaussian(empirical, observation_cov(model, cov))
        latent = kl_gaussian(ground_truth, cov) if ground_truth is not None else None
        return EmIteration(
            index=index,
            sigma_tree=cov,
            tree=tree,
            obs_kl=obs_kl,
            step_kl=step_kl,
            latent_kl=latent,
        )

    first = config.prior_fit
    records = [record(1, first.cov, first.tree, math.inf)]
    stop = StopReason.LMAX_REACHED
    for index in range(2, config.l_max + 1):
        prev = records[-1]
        cov, tree = em_step(prev.sigma_tree, model, obs)
        step_kl = kl_gaussian(prev.sigma_tree, cov)
        rec = record(index, cov, tree, step_kl)
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
