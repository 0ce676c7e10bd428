"""Noisy linear observation model y = H x + w and its sufficient statistics.

H mixes a p-dimensional latent Gaussian into m <= p observed channels and w
is independent Gaussian noise. This module holds the model representation,
seeded sampling, empirical statistics of an observation set, and the flat
CSV matrix format used by the command-line tools.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .gaussian import CovMatrix, NotPositiveDefiniteError, _as_int

RANK_RTOL = 1e-10
# Rows per block when observations are drawn and summarised: beyond the
# r x m samples, only one block's temporaries are held.
ROW_BLOCK = 4096


class RankDeficientError(ValueError):
    """A mixing matrix fails the numerical full-row-rank test."""


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Observation map y = H x + w with w ~ N(0, D).

    H must be a finite m x p matrix with m <= p and full numerical row rank
    (smallest singular value above 1e-10 times the largest, else
    RankDeficientError).

    Parameters
    ----------
    h : np.ndarray
        Mixing matrix, shape (m, p).
    d : CovMatrix
        Noise covariance, dimension m.
    """

    h: np.ndarray
    d: CovMatrix

    def __post_init__(self) -> None:
        h = np.array(self.h, dtype=float)
        if h.ndim != 2:
            raise ValueError(f"H must be a matrix, got shape {h.shape}")
        if not np.all(np.isfinite(h)):
            raise ValueError("mixing matrix H has a non-finite entry")
        m, p = h.shape
        if m < 1:
            raise ValueError("H needs at least one row")
        if m > p:
            raise ValueError(f"observation dimension m={m} exceeds latent dimension p={p}")
        if self.d.dim != m:
            raise ValueError(f"noise covariance dimension {self.d.dim} != m={m}")
        sv = np.linalg.svd(h, compute_uv=False)
        if sv[-1] <= RANK_RTOL * sv[0]:
            raise RankDeficientError("H is numerically rank deficient")
        h.setflags(write=False)
        object.__setattr__(self, "h", h)

    @property
    def m(self) -> int:
        return self.h.shape[0]

    @property
    def p(self) -> int:
        return self.h.shape[1]


@dataclass(frozen=True, eq=False)
class ObservationSet:
    """R stacked observation rows with cached sufficient statistics.

    ``second_moment`` is the uncentered (1/R) sum of y y^T used by the
    iterative update; ``centered_cov`` is second_moment - mean mean^T, the
    sample covariance S_Y. Both are kept because the model is zero-mean yet
    finite samples have a nonzero empirical mean. Samples whose second
    moment overflows the float range are rejected.

    The constructor keeps a private copy of the samples. It sums y^T y over
    near-equal row blocks of at most ``ROW_BLOCK`` rows, so it holds the
    copy plus one block's temporaries. With r <= ROW_BLOCK there is one
    block and the moment is bit for bit the one-shot product y^T y / r;
    above that the block sums reassociate it, which moves it by roundoff
    only.
    """

    samples: np.ndarray
    r: int = field(init=False)
    mean: np.ndarray = field(init=False)
    second_moment: np.ndarray = field(init=False)
    centered_cov: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        y = np.array(self.samples, dtype=float)
        if y.ndim != 2 or y.shape[0] < 1 or y.shape[1] < 1:
            raise ValueError(f"samples must be a nonempty R x m array, got shape {y.shape}")
        if not np.all(np.isfinite(y)):
            raise ValueError("observations have a non-finite entry")
        r = y.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            # Each block's y^T is a C-ordered copy: see sample_observations.
            # The first block's product starts the sum, so a lone block is
            # the one-shot product exactly (adding it to zeros would turn a
            # -0.0 into +0.0).
            blocks = [y[i:j] for i, j in _row_blocks(r)]
            second = _gram(blocks[0])
            for block in blocks[1:]:
                second += _gram(block)
            second /= r
        if not np.all(np.isfinite(second)):
            raise ValueError("observations' second moment overflows the float range")
        second = (second + second.T) / 2.0
        mean = y.mean(axis=0)
        centered = second - np.outer(mean, mean)
        for arr in (y, mean, second, centered):
            arr.setflags(write=False)
        object.__setattr__(self, "samples", y)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "second_moment", second)
        object.__setattr__(self, "centered_cov", centered)

    @property
    def m(self) -> int:
        return self.samples.shape[1]


def _row_blocks(r: int) -> list[tuple[int, int]]:
    """Bounds (i, j) of consecutive row blocks covering r rows.

    Their sizes differ by at most one and none exceeds ROW_BLOCK. Near-equal
    sizes keep every block of a split above one row: numpy computes a
    one-row product as a matrix-vector product, whose bits differ from
    those of the same row inside a matrix-matrix product.
    """
    n = -(-r // ROW_BLOCK)
    return [(r * k // n, r * (k + 1) // n) for k in range(n)]


def _gram(block: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(block.T) @ block


def sample_observations(
    model: LinearModel, sigma_true: CovMatrix, r: int, seed: int
) -> ObservationSet:
    """Draw r independent samples of y = H x + w.

    x ~ N(0, sigma_true) and w ~ N(0, D) are realized by applying the
    Cholesky factors to standard normal draws from numpy's PCG64 generator
    (``numpy.random.default_rng``); all r latent rows are drawn before the
    r noise rows, so a seed fixes the output bit for bit.

    The r x m output is filled in near-equal row blocks of at most
    ``ROW_BLOCK`` rows: every latent block, then every noise block added in
    place. Besides the samples, only one block's draws and products are
    held. The blocks consume the generator's stream in the order one r-row
    draw would, and each row is the same row-wise product, so the samples
    are bit for bit those of the one-shot draw at any r.
    """
    if sigma_true.dim != model.p:
        raise ValueError(
            f"latent covariance dimension {sigma_true.dim} != model p={model.p}"
        )
    r = _as_int(r, "r")
    if r < 1:
        raise ValueError(f"need at least one sample, got r={r}")
    # Every product takes C-ordered operands. numpy's OpenBLAS (0.3.31) hands
    # a product with a transposed operand to its worker thread from about
    # 2^19 multiply-adds, a plain one only from about 2^20, and a woken
    # worker spins for ~0.1 s beside the caller. At r=100, p=m=80 the
    # transposed forms woke it in every sweep cell; on a loaded 2-vCPU host
    # that spinning halved the sweep's throughput.
    rng = np.random.default_rng(_as_int(seed, "seed"))
    c = np.ascontiguousarray
    chol_t, h_t, noise_t = c(sigma_true.chol.T), c(model.h.T), c(model.d.chol.T)
    y = np.empty((r, model.m))
    blocks = _row_blocks(r)
    for i, j in blocks:
        np.matmul(rng.standard_normal((j - i, model.p)) @ chol_t, h_t, out=y[i:j])
    for i, j in blocks:
        y[i:j] += rng.standard_normal((j - i, model.m)) @ noise_t
    return ObservationSet(y)


def observation_cov(model: LinearModel, sigma: CovMatrix) -> CovMatrix:
    """Covariance of y under latent covariance ``sigma``: H sigma H^T + D."""
    if sigma.dim != model.p:
        raise ValueError(f"latent covariance dimension {sigma.dim} != model p={model.p}")
    hs = model.h @ sigma.entries @ model.h.T
    return CovMatrix((hs + hs.T) / 2.0 + model.d.entries)


def empirical_gaussian(obs: ObservationSet) -> CovMatrix:
    """Covariance of the zero-mean empirical Gaussian: the centered sample covariance S_Y.

    S_Y must be positive definite, which requires more samples than the
    observation dimension; otherwise the error reports the rank deficit.
    """
    try:
        return CovMatrix(obs.centered_cov)
    except NotPositiveDefiniteError as exc:
        rank = int(np.linalg.matrix_rank(obs.centered_cov))
        raise NotPositiveDefiniteError(
            f"centered sample covariance is singular: rank {rank} of {obs.m} "
            f"(deficit {obs.m - rank}) from r={obs.r} samples"
        ) from exc


def write_matrix_csv(matrix: np.ndarray, path: str | Path) -> None:
    """Write a rectangular matrix as comma-separated rows, no header.

    Each value is formatted with 17 significant digits, enough for an exact
    float64 round trip (the format contract asks for at least 12).
    Observation sets are written with one sample per row.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"need a 2-d array, got shape {a.shape}")
    # An open handle, because given a path ending in .gz savetxt compresses.
    with open(path, "w", encoding="ascii") as fh:
        np.savetxt(fh, a, fmt="%.17g", delimiter=",")


def read_matrix_csv(path: str | Path) -> np.ndarray:
    """Read a matrix in write_matrix_csv's format, skipping blank lines."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            lines = filter(str.strip, fh)
            first = next(lines, None)
            if first is not None:
                return np.loadtxt(
                    itertools.chain([first], lines), delimiter=",", comments=None, ndmin=2
                )
        except UnicodeDecodeError as exc:
            byte = exc.object[exc.start]
            raise ValueError(f"{path}: non-ASCII byte {byte:#04x}") from exc
        except ValueError as exc:
            kind = "ragged rows" if "columns changed" in str(exc) else "non-numeric cell"
            raise ValueError(f"{path}: {kind}: {exc}") from exc
    raise ValueError(f"{path}: empty matrix file")
