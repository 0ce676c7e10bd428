"""Zero-mean multivariate Gaussian primitives.

Validated covariance matrices, KL divergences between zero-mean Gaussians
(each identified by its covariance), and the pairwise mutual information
read off a covariance, computed once per pair u < v for the Chow-Liu fit.
Every information quantity is measured in nats.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

SYMMETRY_TOL = 1e-10
KL_CLAMP = 1e-12
# A closed-form divergence is trusted above eps times the summed magnitude of
# its terms; its roundoff was measured below half of that.
CLOSED_FORM_ROUNDOFF = float(np.finfo(float).eps)
DEGENERATE_CORRELATION = 1.0 - 1e-12


class NotPositiveDefiniteError(ValueError):
    """A matrix required to be positive definite failed its factorization."""


class DegenerateCorrelationError(ValueError):
    """A pairwise correlation is numerically indistinguishable from +-1."""


class NumericalError(RuntimeError):
    """A computed value violates a mathematical guarantee beyond roundoff."""


@dataclass(frozen=True, eq=False)
class CovMatrix:
    """Symmetric positive definite covariance matrix.

    Construction refuses any dtype but bool, integer and float by name, and
    validates squareness, finiteness of every entry, symmetry (max absolute
    asymmetry at most 1e-10) and positive definiteness (success of the
    Cholesky factorization). Instances are immutable; ``chol`` holds the
    lower triangular factor and is reused for log-determinants and solves.
    A subclass with structure (``treecov.tree.TreeCovMatrix``) overrides
    ``log_det`` and ``inverse_trace`` with closed forms.

    Parameters
    ----------
    entries : np.ndarray
        Square (p, p) array of covariances, p >= 1.
    """

    entries: np.ndarray
    chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a = _real_array(self.entries, "covariance")
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"covariance must be a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("covariance has a non-finite entry")
        asym = float(np.max(np.abs(a - a.T)))
        if asym > SYMMETRY_TOL:
            raise ValueError(
                f"covariance asymmetry {asym:.3e} exceeds tolerance {SYMMETRY_TOL:.0e}"
            )
        factor = _cholesky(a)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "chol", factor)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def log_det(self) -> float:
        """ln det of the covariance, from the triangular factor; computed once."""
        return _factor_log_det(self)

    def inverse_trace(self, other: CovMatrix) -> tuple[float, float]:
        """tr(S^-1 S_other) and the roundoff scale of its evaluation.

        Here the trace is the squared Frobenius norm of L^-1 L_other, from one
        ``numpy.linalg.solve`` with the triangular factors, and the scale is
        0.0: this evaluation is the reference that closed forms fall back to.
        """
        a = np.linalg.solve(self.chol, other.chol)
        return float(np.sum(a * a)), 0.0


def _as_int(value: object, name: str, error: type[ValueError] = ValueError) -> int:
    """``value`` as an int if it is a Python or numpy integer, else ``error``
    naming ``name``; bools, floats and strings are rejected, not converted."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise error(f"{name} must be an integer, got {value!r}")


def _as_float(value: object, name: str, error: type[ValueError] = ValueError) -> float:
    """``value`` as a float if it is a Python or numpy real number, else ``error``
    naming ``name``; bools and strings are rejected, and an int beyond the
    float range is returned as it is, for the caller's exact range check to refuse."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return value


def _real_array(value: object, name: str, *, copy: bool = True) -> np.ndarray:
    """``value`` as a float array, a private copy unless ``copy`` is False;
    ValueError naming ``name`` and the dtype unless that is bool, integer or
    float: a float cast of any other (complex, object, string) would drop an
    imaginary part with only a warning, turn None into NaN or parse text."""
    a = np.asarray(value)
    if a.dtype.kind not in "biuf":
        raise ValueError(f"{name} must be real, got dtype {a.dtype}")
    return np.array(a, dtype=float) if copy else a.astype(float, copy=False)


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Read-only lower Cholesky factor of ``a``, or NotPositiveDefiniteError."""
    try:
        factor = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("covariance is not positive definite") from exc
    factor.setflags(write=False)
    return factor


def _factor_log_det(cov: CovMatrix) -> float:
    return 2.0 * float(np.sum(np.log(np.diag(cov.chol))))


def _clamp_kl(kl: float) -> float:
    # Roundoff may push a true zero slightly negative; anything worse is a fault.
    if kl >= 0.0:
        return kl
    if kl >= -KL_CLAMP:
        return 0.0
    raise NumericalError(f"KL divergence {kl:.6e} is negative beyond roundoff")


def kl_gaussian(p0: CovMatrix, p1: CovMatrix) -> float:
    """KL divergence D(p0 || p1) between zero-mean Gaussians, in nats.

    Evaluates the closed form

        0.5 * (tr(S1^-1 S0) - p + ln det S1 - ln det S0)

    with ``p1.inverse_trace(p0)`` supplying the trace. A dense covariance
    pairs through the Cholesky factors, from one ``numpy.linalg.solve(L1,
    L0)``, and reads its log-determinant off its factor's diagonal. A tree
    covariance (``treecov.tree.TreeCovMatrix``) pairs in O(p) through its
    sparse precision, reading S0 only on the diagonal and at the tree's
    edges, and has a closed-form log-determinant.

    A closed-form value no larger than its roundoff bound (eps times the
    summed magnitude of its terms) cannot be trusted to its sign; there the
    divergence is decided by the dense evaluation through both factors,
    which a tree covariance computes on demand. Bitwise-equal inputs return
    exactly 0.0; results in [-1e-12, 0) are clamped to 0.

    Parameters
    ----------
    p0, p1 : CovMatrix
        Covariances of equal dimension; p0 is the reference measure.

    Returns
    -------
    float
        Nonnegative divergence in nats.
    """
    if p0.dim != p1.dim:
        raise ValueError(f"dimension mismatch: {p0.dim} vs {p1.dim}")
    if np.array_equal(p0.entries, p1.entries):
        return 0.0
    trace, scale = p1.inverse_trace(p0)
    kl = 0.5 * (trace - p0.dim + p1.log_det - p0.log_det)
    if scale and kl <= CLOSED_FORM_ROUNDOFF * (scale + abs(p1.log_det) + abs(p0.log_det)):
        # Within roundoff of zero: decide through the factors, as for dense p1.
        trace, _ = CovMatrix.inverse_trace(p1, p0)
        kl = 0.5 * (trace - p0.dim + _factor_log_det(p1) - _factor_log_det(p0))
    return _clamp_kl(kl)


@lru_cache(maxsize=8)
def _upper_pairs(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair u < v in (u, v) order, as read-only ``np.triu_indices(p, k=1)``
    and the flat indices u * p + v of those entries in a C-ordered p x p array."""
    u, v = np.triu_indices(p, k=1)
    flat = u * p + v
    for arr in (u, v, flat):
        arr.setflags(write=False)
    return u, v, flat


def _upper_pair_weights(sigma: CovMatrix) -> np.ndarray:
    """Mutual information -0.5 * ln(1 - rho^2), rho = s_uv / sqrt(s_uu * s_vv), of
    every pair u < v in ``_upper_pairs`` order; a |rho| >= 1 - 1e-12 raises
    DegenerateCorrelationError naming the first such pair."""
    s = sigma.entries
    u, v, flat = _upper_pairs(sigma.dim)
    var = np.diag(s)
    rho = np.take(s, flat) / np.sqrt(var[u] * var[v])
    degenerate = np.abs(rho) >= DEGENERATE_CORRELATION
    if degenerate.any():
        i = int(np.argmax(degenerate))
        raise DegenerateCorrelationError(
            f"correlation {float(rho[i])!r} between {u[i]} and {v[i]} is numerically degenerate"
        )
    return -0.5 * np.log1p(-rho * rho)
