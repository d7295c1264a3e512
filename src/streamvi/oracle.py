"""Closed-form references for the linear-Gaussian model.

The Kalman filter (Joseph-stabilized), and the closed-form evaluation of
the expected cumulative pair-term, hence the exact ELBO, under an
affine-Gaussian variational family: ground truth for the Monte Carlo
engine that the benchmark checks every run against.  Only
``kalman_filter`` allows missing (NaN) entries.  The RTS smoother, the
exact backward kernels and the dense joint-Gaussian brute force are in
``tests/reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelMismatch, NotSPD
from .gaussian import LOG_2PI, to_moments
from .models import LinearGaussianSSM
from .variational import AffinePotential, ConjugateSequence


@dataclass
class FilterOutput:
    pred_mean: np.ndarray    # (T+1, d)
    pred_cov: np.ndarray     # (T+1, d, d)
    filt_mean: np.ndarray
    filt_cov: np.ndarray
    loglik_increments: np.ndarray  # (T+1,)

    @property
    def loglik(self) -> float:
        return float(np.sum(self.loglik_increments))


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _gauss_logpdf(resid: np.ndarray, cov: np.ndarray) -> float:
    try:
        low = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NotSPD("innovation covariance lost positive definiteness") from exc
    half = np.linalg.solve(low, resid)
    return float(-0.5 * resid.size * LOG_2PI - np.sum(np.log(np.diag(low)))
                 - 0.5 * half @ half)


def kalman_filter(model: LinearGaussianSSM, ys: np.ndarray) -> FilterOutput:
    """Standard predict/update recursions with Joseph-form covariance.

    NaN entries of ``ys`` are missing: an update uses the observed rows of
    G only, and a step with none adds 0 and keeps the prediction.
    """
    if not isinstance(model, LinearGaussianSSM):
        raise ModelMismatch("kalman_filter requires a LinearGaussianSSM")
    ys = np.asarray(ys, dtype=np.float64)
    t_len, d = ys.shape[0], model.d_x
    eye = np.eye(d)
    pred_mean = np.empty((t_len, d))
    pred_cov = np.empty((t_len, d, d))
    filt_mean = np.empty((t_len, d))
    filt_cov = np.empty((t_len, d, d))
    incr = np.empty(t_len)
    m, p = model.mu0.copy(), model.q0_var * np.eye(d)
    for t in range(t_len):
        pred_mean[t], pred_cov[t] = m, p
        valid = ~np.isnan(ys[t])
        g_obs = model.G[valid]
        incr[t] = 0.0
        if valid.any():
            innov_cov = _sym(g_obs @ p @ g_obs.T + model.r_var * np.eye(valid.sum()))
            resid = ys[t, valid] - g_obs @ m
            incr[t] = _gauss_logpdf(resid, innov_cov)
            gain = p @ g_obs.T @ np.linalg.inv(innov_cov)
            m = m + gain @ resid
            imkg = eye - gain @ g_obs
            p = _sym(imkg @ p @ imkg.T + model.r_var * gain @ gain.T)
        filt_mean[t], filt_cov[t] = m, p
        if t + 1 < t_len:
            m = model.F @ m
            p = _sym(model.F @ p @ model.F.T + model.q_var * eye)
    return FilterOutput(pred_mean=pred_mean, pred_cov=pred_cov,
                        filt_mean=filt_mean, filt_cov=filt_cov,
                        loglik_increments=incr)


# ---------------------------------------------------------------------------
# Closed-form expected cumulative pair-term and exact ELBO
# ---------------------------------------------------------------------------


@dataclass
class _Quadratic:
    """q(x) = x' C x + c . x + r with C symmetric."""

    C: np.ndarray
    c: np.ndarray
    r: float

    def expect(self, mean: np.ndarray, cov: np.ndarray) -> float:
        return float(np.trace(self.C @ cov) + mean @ self.C @ mean
                     + self.c @ mean + self.r)


def _emission_quadratic(model: LinearGaussianSSM, y: np.ndarray) -> _Quadratic:
    gq = -0.5 * (model.G.T @ model.G) / model.r_var
    gc = model.G.T @ y / model.r_var
    gr = -0.5 * model.d_y * (LOG_2PI + math.log(model.r_var)) - 0.5 * (y @ y) / model.r_var
    return _Quadratic(C=_sym(gq), c=gc, r=gr)


def _kernel_from(eta_prev, pot: AffinePotential):
    """Affine-Gaussian kernel x_prev | x ~ N(A x + b, S) from eta_prev + potential."""
    prec = -2.0 * (eta_prev.eta2 + pot.eta2)
    try:
        np.linalg.cholesky(prec)
    except np.linalg.LinAlgError as exc:
        raise NotSPD("backward-kernel precision not positive definite") from exc
    cov = _sym(np.linalg.inv(prec))
    a = cov @ pot.lin
    b = cov @ (eta_prev.eta1 + pot.const)
    return a, b, cov


def expected_H(model: LinearGaussianSSM, family: ConjugateSequence,
               ys: np.ndarray) -> float:
    """E under the family's time-T marginal of the cumulative pair-term.

    The cumulative term is propagated as an exact quadratic in the
    conditioning state through the affine-Gaussian backward kernels;
    requires a Gaussian model and an affine-potential family.
    """
    if not isinstance(model, LinearGaussianSSM):
        raise ModelMismatch("expected_H requires a LinearGaussianSSM")
    ys = np.asarray(ys, dtype=np.float64)
    t_len, d = ys.shape[0], model.d_x
    # base: log chi + log g_0
    chi_c = -0.5 * np.eye(d) / model.q0_var
    chi_lin = model.mu0 / model.q0_var
    chi_r = (-0.5 * d * (LOG_2PI + math.log(model.q0_var))
             - 0.5 * (model.mu0 @ model.mu0) / model.q0_var)
    quad = _Quadratic(C=chi_c, c=chi_lin, r=chi_r)
    em = _emission_quadratic(model, ys[0])
    quad = _Quadratic(C=quad.C + em.C, c=quad.c + em.c, r=quad.r + em.r)

    for t in range(1, t_len):
        a, b, s = _kernel_from(family.etas[t - 1], family.potentials[t - 1])
        # E[H_{t-1}(X) | x] for X ~ N(A x + b, S)
        new_c = _sym(a.T @ quad.C @ a)
        new_lin = 2.0 * a.T @ quad.C @ b + a.T @ quad.c
        new_r = float(np.trace(quad.C @ s) + b @ quad.C @ b + quad.c @ b + quad.r)
        # E[log m_t(X, x) | x]
        m_mat = np.eye(d) - model.F @ a
        fb = model.F @ b
        new_c += -0.5 * _sym(m_mat.T @ m_mat) / model.q_var
        new_lin += m_mat.T @ fb / model.q_var
        new_r += (-0.5 * (fb @ fb + np.trace(model.F @ s @ model.F.T)) / model.q_var
                  - 0.5 * d * (LOG_2PI + math.log(model.q_var)))
        # log g_t(x, y_t)
        em = _emission_quadratic(model, ys[t])
        new_c += em.C
        new_lin += em.c
        new_r += em.r
        # - E[log q_{t-1|t}(x, X)] = + entropy of the kernel
        sign, logdet = np.linalg.slogdet(s)
        if sign <= 0:
            raise NotSPD("kernel covariance has nonpositive determinant")
        new_r += 0.5 * (logdet + d * LOG_2PI) + 0.5 * d
        quad = _Quadratic(C=new_c, c=new_lin, r=new_r)

    mom = to_moments(family.etas[t_len - 1])
    return quad.expect(mom.mean, mom.cov)


def exact_elbo(model: LinearGaussianSSM, family: ConjugateSequence,
               ys: np.ndarray) -> float:
    """Closed-form ELBO: expected pair-term plus the final marginal entropy."""
    ys = np.asarray(ys, dtype=np.float64)
    mom = to_moments(family.etas[ys.shape[0] - 1])
    sign, logdet = np.linalg.slogdet(mom.cov)
    if sign <= 0:
        raise NotSPD("final marginal covariance has nonpositive determinant")
    entropy = 0.5 * (logdet + mom.mean.size * (LOG_2PI + 1.0))
    return expected_H(model, family, ys) + entropy
