"""Alternating posterior / tree-refit iteration.

Starting from a prior guess of the latent covariance, each iteration
conditions the latent vector on the observations, pools the posterior
second moments, and refits the best spanning-tree covariance to the pooled
moment. The loop stops when consecutive iterates are closer than epsilon in
latent KL divergence or when the iteration cap is reached.

The E-step is one call, ``compute_omega(model, obs, fit)``: it scores an
iterate by the observation-space objective and pools the posterior moment
under it, and nothing else of the conditioning leaves it. K's Cholesky
factor, held by its CovMatrix, checks K and gives ln det K; one LU inverse
gives K^-1 for both the objective's trace and the gain.
The refit needs only that pooled moment, never the posterior covariance
itself (Dempster, Laird & Rubin 1977), so the moment is formed as one Gram
update that cannot inflate the covariance by construction.
"""

from __future__ import annotations

import enum
import math
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gaussian import (
    CovMatrix, NotPositiveDefiniteError, NumericalError, _as_cov, _as_float, _as_int,
    _check_type, _clamp_kl, kl_gaussian,
)
from .linear import LinearModel, ObservationSet, observation_cov
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
    """Iteration parameters: prior CovMatrix ``sigma0``, stopping threshold, cap."""

    sigma0: CovMatrix
    epsilon: float = 0.01
    l_max: int = 20

    def __post_init__(self) -> None:
        _as_cov(self.sigma0, "sigma0")
        object.__setattr__(self, "epsilon", _as_float(self.epsilon, "epsilon"))
        if not 0.0 < self.epsilon <= sys.float_info.max:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        object.__setattr__(self, "l_max", _as_int(self.l_max, "l_max"))
        if self.l_max < 1:
            raise ValueError(f"l_max must be at least 1, got {self.l_max}")

    @cached_property
    def prior_fit(self) -> TreeCovMatrix:
        """The best tree fit of ``sigma0``: derived, not settable, fitted on
        first use and shared by every run of the config."""
        return chow_liu(self.sigma0)


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


def compute_omega(
    model: LinearModel,
    obs: ObservationSet,
    fit: CovMatrix,
    *,
    pool: bool = True,
) -> tuple[float, CovMatrix | None]:
    """The E-step of iterate ``fit``: its objective and, when ``pool`` is
    true, the posterior second moment pooled over ``obs`` (else None).

    The objective is KL(N(0, S_Y) || N(0, K)), with S_Y = ``obs.empirical``
    the sample covariance of ``obs`` and K = H sigma H^T + D the iterate's
    observation covariance. Under prior N(0, sigma) the latent posterior
    given y has covariance C = sigma - G K G^T and mean G y, with gain
    G = sigma H^T K^-1. Pooled over the samples, Omega = C + G M G^T with M
    the uncentered second moment of the observations, that is

        Omega = sigma + G (M - K) G^T,

    and C itself is never formed. K is built once, as a CovMatrix whose
    Cholesky factor checks it and gives ln det K. One LU inverse then gives
    K^-1: the objective's trace is tr(K^-1 S_Y) = sum(K^-1 * S_Y), and the
    gain is G^T = K^-1 (H sigma), one matrix product (BLAS runs it faster
    than a solve against p + m right-hand sides, for the same flops), so
    pooling never changes the score. Conditioning never inflates the
    covariance, and that holds by construction: sigma - C = (G L_K)(G L_K)^T
    for the Cholesky factor L_K of K. Omega is positive definite even where
    C is singular; should it not be, its Cholesky fails and NumericalError
    names the sample count r and m. Observations not m-dim and a ``fit`` not
    a p-dim CovMatrix are refused first. ``model`` and ``obs`` are not
    type-checked, so a stand-in with their fields (an H = 0 model, say)
    will do; ``run_em`` checks both.
    """
    if obs.m != model.m:
        raise ValueError(f"observation dimension {obs.m} != model m={model.m}")
    k, empirical = observation_cov(model, _as_cov(fit, "fit", model.p)), obs.empirical
    k_inv = np.linalg.inv(k.entries)
    trace = float(np.sum(k_inv * empirical.entries))
    obs_kl = _clamp_kl(0.5 * (trace - model.m + k.log_det - empirical.log_det))
    if not pool:
        return obs_kl, None
    gain_t = k_inv @ (model.h @ fit.entries)
    omega = fit.entries + gain_t.T @ ((obs.second_moment - k.entries) @ gain_t)
    try:
        return obs_kl, CovMatrix((omega + omega.T) / 2.0)
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
    posterior moment that ``compute_omega`` pools under iterate l, in the
    same call that scores iterate l. The loop stops once the latent-space
    divergence from iterate l to iterate l+1 drops below epsilon
    (EpsilonReached) or after l_max iterates (LmaxReached). Whether an
    iterate is the last is known before its E-step, so the last one is
    scored but no moment is pooled under it.

    Each record carries the observation-space objective, which requires a
    positive definite sample covariance (more samples than observed
    channels). When ``ground_truth`` is given, the divergence from it is
    recorded too. A rise of the objective beyond 1e-6 between consecutive
    iterates raises EmMonotonicityWarning, since the refit is an exact
    maximizer and genuine rises signal numerical trouble. A ``config``,
    ``model`` or ``obs`` of another type, and a ``sigma0`` or
    ``ground_truth`` that is not a CovMatrix of dimension p, are refused by
    name first; observations of a dimension other than m fail the first E-step.

    Identical inputs produce bitwise-identical traces.
    """
    _check_type(config, EmConfig, "config")
    _check_type(model, LinearModel, "model")
    _check_type(obs, ObservationSet, "obs")
    _as_cov(config.sigma0, "sigma0", model.p)
    if ground_truth is not None:
        _as_cov(ground_truth, "ground_truth", model.p)
    records: list[EmIteration] = []
    fit, step_kl = config.prior_fit, math.inf
    for index in range(1, config.l_max + 1):
        last = step_kl < config.epsilon or index == config.l_max
        obs_kl, omega = compute_omega(model, obs, fit, pool=not last)
        if records and obs_kl > records[-1].obs_kl + MONOTONICITY_SLACK:
            warnings.warn(
                f"observation objective rose from {records[-1].obs_kl:.9g} to "
                f"{obs_kl:.9g} at iteration {index}",
                EmMonotonicityWarning,
                stacklevel=2,
            )
        latent = kl_gaussian(ground_truth, fit) if ground_truth is not None else None
        records.append(EmIteration(index, fit, obs_kl, step_kl, latent))
        if last:
            break
        fit = chow_liu(omega)
        step_kl = kl_gaussian(records[-1].sigma_tree, fit)
    stop = StopReason.EPSILON_REACHED if step_kl < config.epsilon else StopReason.LMAX_REACHED
    return EmTrace(iterations=tuple(records), stop_reason=stop)
