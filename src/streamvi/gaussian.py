"""Natural-parameter algebra for multivariate Gaussians.

A Gaussian N(mean, cov) is carried in natural coordinates
``eta1 = cov^-1 mean`` and ``eta2 = -1/2 cov^-1``, so that

    log p(x) = <eta1, x> + x' eta2 x - A(eta1, eta2),

with A the log-partition function.  Addition of natural parameters
multiplies unnormalized densities, which is what makes backward kernels
of the variational family closed under the Gaussian family.

All arrays are float64; eta2 is stored dense and re-symmetrized after
every arithmetic op.  The Cholesky factor of the precision ``-2 eta2``
is cached lazily; values are treated as immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotNegativeDefinite

LOG_2PI = math.log(2.0 * math.pi)

_SYM_TOL = 1e-12


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


@dataclass
class GaussianNatural:
    """Gaussian in natural coordinates (eta1 = cov^-1 mean, eta2 = -1/2 cov^-1)."""

    eta1: np.ndarray
    eta2: np.ndarray
    _chol_prec: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.eta1 = np.asarray(self.eta1, dtype=np.float64).reshape(-1)
        e2 = np.asarray(self.eta2, dtype=np.float64)
        d = self.eta1.shape[0]
        if e2.shape != (d, d):
            raise DimensionMismatch(
                f"eta2 shape {e2.shape} incompatible with eta1 length {d}"
            )
        asym = np.max(np.abs(e2 - e2.T), initial=0.0)
        scale = max(1.0, np.max(np.abs(e2), initial=0.0))
        if asym > 1e-8 * scale:
            raise DimensionMismatch(f"eta2 grossly asymmetric (max dev {asym:g})")
        self.eta2 = _symmetrize(e2)

    @property
    def dim(self) -> int:
        return self.eta1.shape[0]

    def chol_precision(self) -> np.ndarray:
        """Lower Cholesky factor of the precision -2*eta2 (cached).

        Raises NotNegativeDefinite if eta2 is not negative definite.
        """
        if self._chol_prec is None:
            prec = -2.0 * self.eta2
            try:
                self._chol_prec = np.linalg.cholesky(prec)
            except np.linalg.LinAlgError as exc:
                raise NotNegativeDefinite(
                    "eta2 is not negative definite (Cholesky of -2*eta2 failed)"
                ) from exc
        return self._chol_prec


@dataclass
class GaussianMoments:
    """Moment-form dual of GaussianNatural."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        self.cov = _symmetrize(np.asarray(self.cov, dtype=np.float64))


@dataclass
class SufficientStat:
    """Sufficient statistic T(x) = (x, x x') of the Gaussian family."""

    t1: np.ndarray
    t2: np.ndarray


def suff_stat(x) -> SufficientStat:
    """T(x) with t2 = outer(x, x) exactly."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    return SufficientStat(t1=x, t2=np.outer(x, x))


def from_moments(m: GaussianMoments) -> GaussianNatural:
    """Convert moment form to natural form (inverts cov via Cholesky)."""
    try:
        low = np.linalg.cholesky(m.cov)
    except np.linalg.LinAlgError as exc:
        raise NotNegativeDefinite("covariance is not positive definite") from exc
    eye = np.eye(m.cov.shape[0])
    low_inv = np.linalg.solve(low, eye)
    prec = low_inv.T @ low_inv
    return GaussianNatural(eta1=prec @ m.mean, eta2=-0.5 * _symmetrize(prec))


def to_moments(eta: GaussianNatural) -> GaussianMoments:
    """Recover (mean, cov) from natural parameters."""
    low = eta.chol_precision()
    eye = np.eye(eta.dim)
    low_inv = np.linalg.solve(low, eye)
    cov = low_inv.T @ low_inv
    return GaussianMoments(mean=cov @ eta.eta1, cov=cov)


def add(a: GaussianNatural, b: GaussianNatural) -> GaussianNatural:
    """Componentwise sum of natural parameters.

    The result may be indefinite; validity is only checked when the sum
    is used as a density (lazy Cholesky).
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    return GaussianNatural(eta1=a.eta1 + b.eta1, eta2=_symmetrize(a.eta2 + b.eta2))


def log_partition(eta: GaussianNatural) -> float:
    """Log-partition A(eta) so that exp(<eta,T(x)> - A) integrates to 1."""
    low = eta.chol_precision()
    half_solve = np.linalg.solve(low, eta.eta1)
    # A = 1/2 mu' P mu + 1/2 log det(2 pi P^-1) with P = -2 eta2
    logdet_prec = 2.0 * np.sum(np.log(np.diag(low)))
    return float(
        0.5 * (half_solve @ half_solve) + 0.5 * (eta.dim * LOG_2PI - logdet_prec)
    )


def log_density(eta: GaussianNatural, x) -> float:
    """Normalized Gaussian log-density at x."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.shape[0] != eta.dim:
        raise DimensionMismatch(f"x has length {x.shape[0]}, expected {eta.dim}")
    return float(x @ eta.eta1 + x @ eta.eta2 @ x - log_partition(eta))


def mean_params(eta: GaussianNatural) -> tuple[np.ndarray, np.ndarray]:
    """Expected sufficient statistics (E[X], E[XX']) under eta.

    These are the gradients of the log-partition, hence also the
    centering terms of the score d/d_eta log p(x) = T(x) - E[T(X)].
    """
    m = to_moments(eta)
    return m.mean, m.cov + np.outer(m.mean, m.mean)


def sample(eta: GaussianNatural, rng: np.random.Generator, n: int) -> np.ndarray:
    """n i.i.d. draws, shape (n, d), via mean + chol(cov) z."""
    if n < 1:
        raise ValueError("n must be >= 1")
    m = to_moments(eta)
    low = np.linalg.cholesky(m.cov)
    z = rng.standard_normal((n, eta.dim))
    return m.mean[None, :] + z @ low.T

def inner(eta: GaussianNatural, t: SufficientStat) -> float:
    """<eta, T(x)> = eta1.t1 + sum(eta2 * t2)."""
    if eta.dim != t.t1.shape[0]:
        raise DimensionMismatch(f"dimensions differ: {eta.dim} vs {t.t1.shape[0]}")
    return float(eta.eta1 @ t.t1 + np.sum(eta.eta2 * t.t2))


# ---------------------------------------------------------------------------
# Batched helpers used by the particle engine.  Natural parameters are given
# as stacked arrays eta1 (n, d) and eta2 (n, d, d); all outputs are vectorized
# over the leading axis.  Pairwise quantities are one matrix product of the
# flattened parameters [eta1, vec eta2, offset] with the flattened sufficient
# statistics [x, vec(x x'), 1], so no (n, m, d) temporary is built.
# ---------------------------------------------------------------------------


def chol_precision_batch(eta2: np.ndarray) -> np.ndarray:
    """Cholesky factors of -2*eta2 for a stack of natural parameters."""
    try:
        return np.linalg.cholesky(-2.0 * eta2)
    except np.linalg.LinAlgError as exc:
        raise NotNegativeDefinite(
            "a batched eta2 is not negative definite"
        ) from exc


def log_partition_batch(eta1: np.ndarray, eta2: np.ndarray) -> np.ndarray:
    """A(eta) for stacked parameters; shape (n,)."""
    low = chol_precision_batch(eta2)
    d = eta1.shape[-1]
    half = np.linalg.solve(low, eta1[..., None])[..., 0]
    logdet_prec = 2.0 * np.sum(np.log(np.diagonal(low, axis1=-2, axis2=-1)), axis=-1)
    return 0.5 * np.sum(half * half, axis=-1) + 0.5 * (d * LOG_2PI - logdet_prec)


def suff_stat_rows(xs: np.ndarray) -> np.ndarray:
    """Flattened sufficient statistics, rows [x, vec(x x'), 1]; shape (m, d + d*d + 1).

    A weighted sum ``c @ suff_stat_rows(xs)`` gives sum_j c_ij x_j,
    sum_j c_ij x_j x_j' (row-major) and the row sums of ``c`` in one product.
    """
    m, d = xs.shape
    rows = np.empty((m, d + d * d + 1))
    rows[:, :d] = xs
    rows[:, d:-1] = (xs[:, :, None] * xs[:, None, :]).reshape(m, d * d)
    rows[:, -1] = 1.0
    return rows


def inner_cross(eta1: np.ndarray, eta2: np.ndarray, xs: np.ndarray,
                offset: np.ndarray | float = 0.0,
                stats: np.ndarray | None = None) -> np.ndarray:
    """<eta[i], T(xs[j])> + offset[i] for every (i, j) pair; shape (n, m).

    eta1: (n, d), eta2: (n, d, d), xs: (m, d); one (n, d+d*d+1) @ (d+d*d+1, m)
    product.  ``stats`` is ``suff_stat_rows(xs)`` when the caller has it.
    """
    n, d = eta1.shape
    coef = np.empty((n, d + d * d + 1))
    coef[:, :d] = eta1
    coef[:, d:-1] = eta2.reshape(n, d * d)
    coef[:, -1] = offset
    return coef @ (suff_stat_rows(xs) if stats is None else stats).T


def log_density_cross(eta1: np.ndarray, eta2: np.ndarray, xs: np.ndarray,
                      stats: np.ndarray | None = None) -> np.ndarray:
    """log N(xs[j]; eta[i]) for every (i, j) pair; shape (n, m).

    eta1: (n, d), eta2: (n, d, d), xs: (m, d).  The log-partition enters as
    the offset of ``inner_cross``, which ``stats`` is passed on to.
    """
    return inner_cross(eta1, eta2, xs, -log_partition_batch(eta1, eta2), stats)


def mean_params_batch(eta1: np.ndarray, eta2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched (E[X], E[XX']) for stacked natural parameters."""
    prec = -2.0 * eta2
    cov = np.linalg.inv(prec)
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    mean = np.einsum("nde,ne->nd", cov, eta1)
    second = cov + np.einsum("nd,ne->nde", mean, mean)
    return mean, second
