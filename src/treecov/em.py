"""Alternating posterior / tree-refit iteration.

Starting from a prior guess of the latent covariance, each iteration
conditions the latent vector on the observations, pools the posterior
second moments, and refits the best spanning-tree covariance to the pooled
moment. The loop stops when consecutive iterates are closer than epsilon in
latent KL divergence or when the iteration cap is reached.

The refit needs only the pooled moment, never the posterior covariance C
itself (Dempster, Laird & Rubin 1977). Since C = sigma - G K G^T with gain
G = sigma H^T K^-1, ``compute_omega`` forms the pooled moment C + G M G^T as
one Gram update, sigma + G (M - K) G^T, and that conditioning never
inflates the covariance holds by construction rather than by a check.
Each iterate's K = H sigma H^T + D is built and factored once: one solve
K^-1 [H sigma | L_S] yields G^T and, with S_Y = L_S L_S^T, the trace
tr(K^-1 S_Y) = sum(L_S * K^-1 L_S) of the objective KL(N(0, S_Y) || N(0, K)).
"""

from __future__ import annotations

import enum
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .gaussian import (
    CovMatrix, NotPositiveDefiniteError, NumericalError, _as_int, _clamp_kl, _is_finite,
    kl_gaussian,
)
from .linear import LinearModel, ObservationSet, empirical_gaussian, observation_cov
from .tree import TreeCovMatrix, chow_liu

MONOTONICITY_SLACK = 1e-6


class EmMonotonicityWarning(RuntimeWarning):
    """The observation-space objective rose between iterations beyond slack.

    The refit step is an exact maximizer, so a genuine rise indicates a
    numerical fault rather than expected behaviour.
    """


class StopReason(enum.Enum):
    EPSILON_REACHED = "EpsilonReached"
    LMAX_REACHED = "LmaxReached"


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
        if not isinstance(self.epsilon, numbers.Real) or isinstance(self.epsilon, bool):
            raise ValueError(f"epsilon must be a real number, got {self.epsilon!r}")
        if not (_is_finite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        object.__setattr__(self, "l_max", _as_int(self.l_max, "l_max"))
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


def _condition(
    model: LinearModel, empirical: CovMatrix, sigma_tree: CovMatrix
) -> tuple[CovMatrix, np.ndarray, float]:
    """K = H sigma H^T + D of an iterate, the transposed gain G^T = K^-1 H sigma
    and the objective KL(N(0, S_Y) || N(0, K)), from one solve with K whose
    right-hand side is [H sigma | L_S], L_S the factor of ``empirical``."""
    k = observation_cov(model, sigma_tree)
    rhs = np.hstack((model.h @ sigma_tree.entries, empirical.chol))
    solved = np.linalg.solve(k.entries, rhs)
    trace = float(np.sum(empirical.chol * solved[:, model.p :]))
    obs_kl = 0.5 * (trace - model.m + k.log_det - empirical.log_det)
    return k, solved[:, : model.p], _clamp_kl(obs_kl)


def compute_omega(
    sigma_tree: CovMatrix, obs: ObservationSet, k: CovMatrix, gain_t: np.ndarray
) -> CovMatrix:
    """Posterior second moment pooled over the observation set.

    Under prior N(0, sigma) the latent posterior given y has covariance
    C = sigma - G K G^T and mean G y, with gain G = sigma H^T K^-1 and K the
    iterate's observation covariance H sigma H^T + D. Pooled over the
    samples, Omega = C + G M G^T with M the uncentered second moment of the
    observations, that is

        Omega = sigma + G (M - K) G^T,

    two products from ``gain_t`` = G^T = K^-1 H sigma; C itself is never
    formed. ``run_em`` takes G^T from the one solve with K that also scores
    the iterate, so each iterate factors K once. Conditioning never inflates
    the covariance, and that holds by construction: sigma - C = (G L_K)(G
    L_K)^T for the Cholesky factor L_K of K. Omega is positive definite even
    where C is singular; should it not be, its Cholesky fails and
    NumericalError names the sample count r and m.
    """
    omega = sigma_tree.entries + gain_t.T @ ((obs.second_moment - k.entries) @ gain_t)
    try:
        return CovMatrix((omega + omega.T) / 2.0)
    except NotPositiveDefiniteError as exc:
        raise NumericalError(
            f"pooled posterior moment is not positive definite (r={obs.r}, m={obs.m})"
        ) from exc


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
    ``chow_liu(compute_omega(iterate_l, obs, k_l, gain_l))``, where k_l is
    the observation covariance of iterate l and gain_l its transposed gain,
    both from the one solve with k_l that also scores iterate l. The loop
    stops once the latent-space divergence from iterate l to iterate l+1
    drops below epsilon (EpsilonReached) or after l_max iterates
    (LmaxReached).

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
    records: list[EmIteration] = []
    fit, step_kl, stop = config.prior_fit, math.inf, StopReason.LMAX_REACHED
    for index in range(1, config.l_max + 1):
        if records:
            fit = chow_liu(compute_omega(fit, obs, k, gain_t))
            step_kl = kl_gaussian(records[-1].sigma_tree, fit)
        k, gain_t, obs_kl = _condition(model, empirical, fit)
        if records and obs_kl > records[-1].obs_kl + MONOTONICITY_SLACK:
            warnings.warn(
                f"observation objective rose from {records[-1].obs_kl:.9g} to "
                f"{obs_kl:.9g} at iteration {index}",
                EmMonotonicityWarning,
                stacklevel=2,
            )
        latent = kl_gaussian(ground_truth, fit) if ground_truth is not None else None
        records.append(EmIteration(index, fit, obs_kl, step_kl, latent))
        if step_kl < config.epsilon:
            stop = StopReason.EPSILON_REACHED
            break
    return EmTrace(iterations=tuple(records), stop_reason=stop)
