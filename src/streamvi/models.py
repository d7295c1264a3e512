"""Generative state-space models used as testbeds.

Three model classes share one protocol: trajectory simulation, the
transition log-density ``log_m`` (which at t=0 is the log initial
density), the emission log-density ``log_g`` (NaN observation entries
are treated as missing and contribute zero), and the gradient of
``log_m + log_g`` in the learnable model parameters.

Learnable parameters per class:

- linear Gaussian: the transition and emission matrices (F, G), noise
  variances fixed;
- chaotic RNN: the time constant and gain (rho, gamma), weight matrix
  fixed;
- residual nonlinear: both networks plus log-diagonal noise variances.

Batched variants serve the particle engine.  Every sum over particle
pairs is a matrix product of per-particle feature rows, with no (n, m, d)
temporary.  ``transition_rows`` gives the rows whose inner products are
the transition log-densities, the squared residual expanded as
|a|^2 - 2 a.b + |b|^2; ``log_m_cross`` multiplies them, and the engine
extends them by the kernel's rows so that its whole pair bracket is one
product.  So these agree with the scalar ops to rounding that grows with
|x|^2 + |mean|^2 over the noise variance, not exactly.
``grad_theta_pair_contract`` reads the weights once, in one product that
also carries the previous theta-statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import gaussian, mlp
from .gaussian import LOG_2PI
from .layout import ParamLayout


# ---------------------------------------------------------------------------
# Model classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearGaussianSSM:
    """X_t = F X_{t-1} + noise(q_var I); Y_t = G X_t + noise(r_var I)."""

    F: np.ndarray
    G: np.ndarray
    q_var: float = 0.1
    r_var: float = 0.25
    mu0: np.ndarray | None = None
    q0_var: float = 1.0

    def __post_init__(self):
        if self.q_var <= 0 or self.r_var <= 0 or self.q0_var <= 0:
            raise ValueError("noise variances must be positive")
        if self.mu0 is None:
            object.__setattr__(self, "mu0", np.zeros(self.F.shape[0]))

    @property
    def d_x(self) -> int:
        return self.F.shape[0]

    @property
    def d_y(self) -> int:
        return self.G.shape[0]


@dataclass(frozen=True)
class ChaoticRNNModel:
    """Euler-discretized chaotic rate network with Student-t emissions.

    X_t = X_{t-1} + (delta/rho) * (gamma W tanh(X_{t-1}) - X_{t-1}) + noise,
    Y_t = X_t + Student-t(t_dof, t_scale) per coordinate.
    """

    W: np.ndarray
    delta: float = 0.001
    rho: float = 0.025
    gamma: float = 2.5
    q_var: float = 0.01
    t_dof: float = 2.0
    t_scale: float = 0.1

    def __post_init__(self):
        for name in ("delta", "rho", "gamma", "q_var", "t_dof", "t_scale"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.W.shape[0] != self.W.shape[1]:
            raise ValueError("W must be square")

    @property
    def d_x(self) -> int:
        return self.W.shape[0]

    @property
    def d_y(self) -> int:
        return self.W.shape[0]

    def drift(self, x_prev: np.ndarray) -> np.ndarray:
        """Conditional mean of X_t given X_{t-1}; works on (d,) or (n, d)."""
        push = self.gamma * (np.tanh(x_prev) @ self.W.T)
        return x_prev + (self.delta / self.rho) * (push - x_prev)


@dataclass(frozen=True)
class ResidualNonlinearSSM:
    """X_t = X_{t-1} + f(X_{t-1}) + noise(diag q); Y_t = g(X_t) + noise(diag r).

    The initial state is standard normal.  Noise variances are learned
    through their logarithms.
    """

    f_net: mlp.MLPParams
    g_net: mlp.MLPParams
    q_diag: np.ndarray
    r_diag: np.ndarray

    def __post_init__(self):
        if np.any(self.q_diag <= 0) or np.any(self.r_diag <= 0):
            raise ValueError("diagonal noise entries must be positive")

    @property
    def d_x(self) -> int:
        return self.f_net.in_dim

    @property
    def d_y(self) -> int:
        return self.g_net.out_dim


# ---------------------------------------------------------------------------
# Learnable-parameter views
# ---------------------------------------------------------------------------


def theta_layout(model) -> ParamLayout:
    if isinstance(model, LinearGaussianSSM):
        return ParamLayout.build([("F", model.F.shape), ("G", model.G.shape)])
    if isinstance(model, ChaoticRNNModel):
        return ParamLayout.build([("rho", ()), ("gamma", ())])
    if isinstance(model, ResidualNonlinearSSM):
        return ParamLayout.build([
            ("f_net", (model.f_net.n_params,)),
            ("g_net", (model.g_net.n_params,)),
            ("log_q_diag", (model.d_x,)),
            ("log_r_diag", (model.d_y,)),
        ])
    raise TypeError(f"unknown model type {type(model)}")


def get_theta(model) -> np.ndarray:
    """Flat vector of the learnable parameters."""
    lay = theta_layout(model)
    if isinstance(model, LinearGaussianSSM):
        return lay.pack({"F": model.F, "G": model.G})
    if isinstance(model, ChaoticRNNModel):
        return lay.pack({"rho": np.array(model.rho), "gamma": np.array(model.gamma)})
    return lay.pack({
        "f_net": model.f_net.pack(),
        "g_net": model.g_net.pack(),
        "log_q_diag": np.log(model.q_diag),
        "log_r_diag": np.log(model.r_diag),
    })


def with_theta(model, flat: np.ndarray):
    """New model object with the learnable parameters replaced."""
    lay = theta_layout(model)
    if isinstance(model, LinearGaussianSSM):
        return replace(model, F=lay.view(flat, "F").copy(), G=lay.view(flat, "G").copy())
    if isinstance(model, ChaoticRNNModel):
        return replace(model, rho=float(lay.view(flat, "rho")),
                       gamma=float(lay.view(flat, "gamma")))
    return replace(
        model,
        f_net=model.f_net.unpack(lay.view(flat, "f_net")),
        g_net=model.g_net.unpack(lay.view(flat, "g_net")),
        q_diag=np.exp(lay.view(flat, "log_q_diag")).copy(),
        r_diag=np.exp(lay.view(flat, "log_r_diag")).copy(),
    )


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def _student_t(rng: np.random.Generator, dof: float, shape) -> np.ndarray:
    # Gaussian / chi-square ratio for exactness and seed determinism
    z = rng.standard_normal(shape)
    v = rng.chisquare(dof, shape)
    return z / np.sqrt(v / dof)


def simulate(model, T: int, rng: np.random.Generator):
    """Sample (states, observations) of shapes (T+1, d_x) and (T+1, d_y)."""
    if T < 0:
        raise ValueError("T must be >= 0")
    if isinstance(model, LinearGaussianSSM):
        d_x, d_y = model.d_x, model.d_y
        xs = np.empty((T + 1, d_x))
        ys = np.empty((T + 1, d_y))
        xs[0] = model.mu0 + math.sqrt(model.q0_var) * rng.standard_normal(d_x)
        ys[0] = model.G @ xs[0] + math.sqrt(model.r_var) * rng.standard_normal(d_y)
        for t in range(1, T + 1):
            xs[t] = model.F @ xs[t - 1] + math.sqrt(model.q_var) * rng.standard_normal(d_x)
            ys[t] = model.G @ xs[t] + math.sqrt(model.r_var) * rng.standard_normal(d_y)
        return xs, ys
    if isinstance(model, ChaoticRNNModel):
        d = model.d_x
        xs = np.empty((T + 1, d))
        ys = np.empty((T + 1, d))
        sd = math.sqrt(model.q_var)
        xs[0] = sd * rng.standard_normal(d)
        ys[0] = xs[0] + model.t_scale * _student_t(rng, model.t_dof, d)
        for t in range(1, T + 1):
            xs[t] = model.drift(xs[t - 1]) + sd * rng.standard_normal(d)
            ys[t] = xs[t] + model.t_scale * _student_t(rng, model.t_dof, d)
        return xs, ys
    if isinstance(model, ResidualNonlinearSSM):
        d_x, d_y = model.d_x, model.d_y
        xs = np.empty((T + 1, d_x))
        ys = np.empty((T + 1, d_y))
        sq, sr = np.sqrt(model.q_diag), np.sqrt(model.r_diag)
        xs[0] = rng.standard_normal(d_x)
        ys[0] = mlp.forward(model.g_net, xs[0]) + sr * rng.standard_normal(d_y)
        for t in range(1, T + 1):
            xs[t] = xs[t - 1] + mlp.forward(model.f_net, xs[t - 1]) + sq * rng.standard_normal(d_x)
            ys[t] = mlp.forward(model.g_net, xs[t]) + sr * rng.standard_normal(d_y)
        return xs, ys
    raise TypeError(f"unknown model type {type(model)}")


# ---------------------------------------------------------------------------
# Log-densities
# ---------------------------------------------------------------------------


def _iso_gauss_logpdf(resid: np.ndarray, var: float) -> float:
    d = resid.shape[-1]
    return float(-0.5 * d * (LOG_2PI + math.log(var)) - 0.5 * np.sum(resid * resid, axis=-1) / var)


def _student_t_logpdf(z: np.ndarray, dof: float, scale: float) -> np.ndarray:
    const = (math.lgamma((dof + 1.0) / 2.0) - math.lgamma(dof / 2.0)
             - 0.5 * math.log(dof * math.pi) - math.log(scale))
    return const - 0.5 * (dof + 1.0) * np.log1p((z / scale) ** 2 / dof)


def transition_mean(model, x_prev: np.ndarray) -> np.ndarray:
    """Conditional mean of X_t given X_{t-1} = x_prev; batched over rows."""
    if isinstance(model, LinearGaussianSSM):
        return x_prev @ model.F.T
    if isinstance(model, ChaoticRNNModel):
        return model.drift(x_prev)
    if isinstance(model, ResidualNonlinearSSM):
        return x_prev + mlp.forward(model.f_net, x_prev)
    raise TypeError(f"unknown model type {type(model)}")


def log_m(model, x_prev, x, t: int) -> float:
    """Transition log-density; at t=0 the initial log-density of x."""
    x = np.asarray(x, dtype=np.float64)
    if t == 0:
        if isinstance(model, LinearGaussianSSM):
            return _iso_gauss_logpdf(x - model.mu0, model.q0_var)
        if isinstance(model, ChaoticRNNModel):
            return _iso_gauss_logpdf(x, model.q_var)
        if isinstance(model, ResidualNonlinearSSM):
            return _iso_gauss_logpdf(x, 1.0)
        raise TypeError(f"unknown model type {type(model)}")
    x_prev = np.asarray(x_prev, dtype=np.float64)
    resid = x - transition_mean(model, x_prev)
    if isinstance(model, LinearGaussianSSM):
        return _iso_gauss_logpdf(resid, model.q_var)
    if isinstance(model, ChaoticRNNModel):
        return _iso_gauss_logpdf(resid, model.q_var)
    if isinstance(model, ResidualNonlinearSSM):
        return float(np.sum(-0.5 * (LOG_2PI + np.log(model.q_diag))
                            - 0.5 * resid * resid / model.q_diag))
    raise TypeError(f"unknown model type {type(model)}")


def log_g(model, x, y, t: int = 0) -> float:
    """Emission log-density; NaN entries of y are missing and contribute 0."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    valid = ~np.isnan(y)
    if not np.any(valid):
        return 0.0
    if isinstance(model, LinearGaussianSSM):
        resid = (y - model.G @ x)[valid]
        k = int(valid.sum())
        return float(-0.5 * k * (LOG_2PI + math.log(model.r_var))
                     - 0.5 * np.sum(resid * resid) / model.r_var)
    if isinstance(model, ChaoticRNNModel):
        z = (y - x)[valid]
        return float(np.sum(_student_t_logpdf(z, model.t_dof, model.t_scale)))
    if isinstance(model, ResidualNonlinearSSM):
        resid = (y - mlp.forward(model.g_net, x))[valid]
        r = model.r_diag[valid]
        return float(np.sum(-0.5 * (LOG_2PI + np.log(r)) - 0.5 * resid * resid / r))
    raise TypeError(f"unknown model type {type(model)}")


# ---------------------------------------------------------------------------
# Parameter gradients of log_m + log_g
# ---------------------------------------------------------------------------


def grad_theta_log_joint_pair(model, x_prev, x, y, t: int) -> np.ndarray:
    """Gradient of log_m(x_prev, x, t) + log_g(x, y, t) in the flat theta."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    valid = ~np.isnan(y)
    lay = theta_layout(model)
    grad = np.zeros(lay.total)

    if isinstance(model, LinearGaussianSSM):
        if t > 0:
            x_prev = np.asarray(x_prev, dtype=np.float64)
            resid = x - model.F @ x_prev
            lay.view(grad, "F")[:] = np.outer(resid / model.q_var, x_prev)
        gv = lay.view(grad, "G")
        resid_y = y - model.G @ x
        for k in np.nonzero(valid)[0]:
            gv[k] = (resid_y[k] / model.r_var) * x
        return grad

    if isinstance(model, ChaoticRNNModel):
        if t > 0:
            x_prev = np.asarray(x_prev, dtype=np.float64)
            push = model.gamma * (model.W @ np.tanh(x_prev))
            mean = x_prev + (model.delta / model.rho) * (push - x_prev)
            resid = (x - mean) / model.q_var
            d_gamma = (model.delta / model.rho) * (model.W @ np.tanh(x_prev))
            d_rho = -(model.delta / model.rho**2) * (push - x_prev)
            lay.view(grad, "rho")[...] = resid @ d_rho
            lay.view(grad, "gamma")[...] = resid @ d_gamma
        return grad

    if isinstance(model, ResidualNonlinearSSM):
        if t > 0:
            x_prev = np.asarray(x_prev, dtype=np.float64)
            resid = x - x_prev - mlp.forward(model.f_net, x_prev)
            lay.view(grad, "f_net")[:] = mlp.vjp_params(
                model.f_net, x_prev, resid / model.q_diag)
            lay.view(grad, "log_q_diag")[:] = -0.5 + 0.5 * resid * resid / model.q_diag
        resid_y = y - mlp.forward(model.g_net, x)
        cot = np.where(valid, resid_y / model.r_diag, 0.0)
        lay.view(grad, "g_net")[:] = mlp.vjp_params(model.g_net, x, cot)
        lay.view(grad, "log_r_diag")[:] = np.where(
            valid, -0.5 + 0.5 * resid_y * resid_y / model.r_diag, 0.0)
        return grad

    raise TypeError(f"unknown model type {type(model)}")


# ---------------------------------------------------------------------------
# Batched variants for the particle engine
# ---------------------------------------------------------------------------


def log_init_batch(model, xs: np.ndarray) -> np.ndarray:
    """log chi(xs[i]) for a batch of initial states."""
    if isinstance(model, LinearGaussianSSM):
        diff = xs - model.mu0
        var = model.q0_var
    elif isinstance(model, ChaoticRNNModel):
        diff = xs
        var = model.q_var
    elif isinstance(model, ResidualNonlinearSSM):
        diff = xs
        var = 1.0
    else:
        raise TypeError(f"unknown model type {type(model)}")
    d = xs.shape[1]
    return -0.5 * d * (LOG_2PI + math.log(var)) - 0.5 * np.sum(diff * diff, axis=-1) / var


def _transition_noise(model):
    """Transition noise variance (scalar or per coordinate) and log normalizer."""
    if isinstance(model, ResidualNonlinearSSM):
        q = model.q_diag
        return q, float(np.sum(-0.5 * (LOG_2PI + np.log(q))))
    return model.q_var, -0.5 * model.d_x * (LOG_2PI + math.log(model.q_var))


def _gauss_resid_logpdf(model, diff: np.ndarray) -> np.ndarray:
    """Transition log-density from residuals, summing the last axis."""
    q, const = _transition_noise(model)
    return const - 0.5 * np.sum(diff * diff / q, axis=-1)


def transition_rows(model, xs_prev: np.ndarray, xs_new: np.ndarray,
                    new_offset: np.ndarray | float = 0.0,
                    prev_offset: np.ndarray | float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows whose inner products are the transition log-densities.

    With a = x_new / sqrt(q) and b = mean / sqrt(q), c the normalizing
    constant, the rows are [a_i, 1, -|a_i|^2/2 + new_offset_i] and
    [b_j, c - |b_j|^2/2 + prev_offset_j, 1], so that
    rows_new[i] . rows_prev[j] = log m(xs_prev[j] -> xs_new[i])
    + new_offset_i + prev_offset_j.  Shapes (n_new, d+2) and (n_prev, d+2).
    """
    mean = transition_mean(model, xs_prev)                 # (n_prev, d)
    d = mean.shape[1]
    q, const = _transition_noise(model)
    inv_sd = 1.0 / np.sqrt(q)
    rows_new = np.empty((xs_new.shape[0], d + 2))
    rows_new[:, :d] = xs_new * inv_sd
    rows_new[:, d] = 1.0
    rows_new[:, d + 1] = new_offset - 0.5 * np.einsum("id,id->i", rows_new[:, :d],
                                                      rows_new[:, :d])
    rows_prev = np.empty((mean.shape[0], d + 2))
    rows_prev[:, :d] = mean * inv_sd
    rows_prev[:, d] = (const - 0.5 * np.einsum("jd,jd->j", rows_prev[:, :d], rows_prev[:, :d])
                       + prev_offset)
    rows_prev[:, d + 1] = 1.0
    return rows_new, rows_prev


def log_m_cross(model, xs_prev: np.ndarray, xs_new: np.ndarray, t: int) -> np.ndarray:
    """log m(xs_prev[j] -> xs_new[i]) for all pairs; shape (n_new, n_prev).

    One (n_new, d+2) @ (d+2, n_prev) product of ``transition_rows``.
    """
    rows_new, rows_prev = transition_rows(model, xs_prev, xs_new)
    return rows_new @ rows_prev.T


def log_m_gathered(model, means_prev: np.ndarray, idx: np.ndarray,
                   xs_new: np.ndarray) -> np.ndarray:
    """log m(xs_prev[idx[i,k]] -> xs_new[i]) for sampled index draws.

    means_prev holds transition_mean over the previous particles; idx is
    (n, m) integer draws; returns shape (n, m).
    """
    diff = xs_new[:, None, :] - means_prev[idx]
    return _gauss_resid_logpdf(model, diff)


def log_g_batch(model, xs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """log g(xs[i], y) for a batch of states; NaN entries of y masked."""
    y = np.asarray(y, dtype=np.float64)
    valid = ~np.isnan(y)
    if not np.any(valid):
        return np.zeros(xs.shape[0])
    if isinstance(model, LinearGaussianSSM):
        resid = y[valid][None, :] - (xs @ model.G.T)[:, valid]
        k = int(valid.sum())
        return (-0.5 * k * (LOG_2PI + math.log(model.r_var))
                - 0.5 * np.sum(resid * resid, axis=-1) / model.r_var)
    if isinstance(model, ChaoticRNNModel):
        z = y[valid][None, :] - xs[:, valid]
        return np.sum(_student_t_logpdf(z, model.t_dof, model.t_scale), axis=-1)
    if isinstance(model, ResidualNonlinearSSM):
        resid = y[valid][None, :] - mlp.forward(model.g_net, xs)[:, valid]
        r = model.r_diag[valid]
        return np.sum(-0.5 * (LOG_2PI + np.log(r)) - 0.5 * resid * resid / r, axis=-1)
    raise TypeError(f"unknown model type {type(model)}")


def _carried_product(coeff: np.ndarray, carried: np.ndarray | None, feats: np.ndarray,
                     dim_theta: int) -> tuple[np.ndarray, np.ndarray]:
    """coeff @ carried (zeros without it) and coeff @ feats, from one product."""
    if carried is None:
        return np.zeros((coeff.shape[0], dim_theta)), coeff @ feats
    prod = coeff @ np.concatenate([carried, feats], axis=1)
    return prod[:, :dim_theta].copy(), prod[:, dim_theta:]


def grad_theta_pair_contract(model, xs_prev: np.ndarray, xs_new: np.ndarray,
                             y: np.ndarray, t: int, coeff: np.ndarray,
                             carried: np.ndarray | None = None) -> np.ndarray:
    """Row-wise contraction of pairwise theta-gradients.

    Returns rows G[i] = sum_j coeff[i, j] * (carried[j] + grad_theta(log
    m(xs_prev[j], xs_new[i]) + log g(xs_new[i], y))), shape (n_new,
    dim_theta); without ``carried`` its term is zero.  The emission term
    is constant in j, so it enters scaled by the row sums.  ``coeff`` is
    read by one product with rows [carried_j, features_j], the features
    being what the model's transition gradient sums over j: T(x_j) for
    the linear Gaussian, the mean's derivatives for the chaotic RNN and
    [mean, mean^2, 1] for the residual model, whose network part takes
    one more pass in ``mlp.vjp_params_cross``.
    """
    lay = theta_layout(model)
    y = np.asarray(y, dtype=np.float64)
    valid = ~np.isnan(y)

    if isinstance(model, LinearGaussianSSM):
        # transition: sum_j c_ij (x_i - F x_j) x_j' / q, from one product
        n_new, d = xs_new.shape
        out, moments = _carried_product(coeff, carried, gaussian.suff_stat_rows(xs_prev),
                                        lay.total)
        sx = moments[:, :d]
        sxx = moments[:, d:-1].reshape(n_new, d, d)
        row_sum = moments[:, -1]
        gF = (np.einsum("id,ie->ide", xs_new, sx) - np.einsum("de,ief->idf", model.F, sxx))
        f_spec = lay.by_name["F"]
        out[:, f_spec.offset:f_spec.offset + f_spec.size] += (
            gF.reshape(n_new, -1) / model.q_var)
        # emission: row_sum_i * (y - G x_i) x_i' / r on valid coords
        if np.any(valid):
            resid_y = np.where(valid, y[None, :] - xs_new @ model.G.T, 0.0)
            gG = np.einsum("i,ik,id->ikd", row_sum, resid_y / model.r_var, xs_new)
            g_spec = lay.by_name["G"]
            out[:, g_spec.offset:g_spec.offset + g_spec.size] += gG.reshape(n_new, -1)
        return out

    if isinstance(model, ChaoticRNNModel):
        # sum_j c_ij (x_i - mean_j) . dmean_j = x_i . (c @ dmean)_i - (c @ (mean . dmean))_i
        th = np.tanh(xs_prev)
        push = model.gamma * (th @ model.W.T)               # (n_prev, d)
        mean = xs_prev + (model.delta / model.rho) * (push - xs_prev)
        d_gamma = (model.delta / model.rho) * (th @ model.W.T)
        d_rho = -(model.delta / model.rho**2) * (push - xs_prev)
        d = xs_prev.shape[1]
        out, sums = _carried_product(coeff, carried, np.concatenate(
            [d_rho, d_gamma, np.einsum("jd,jd->j", mean, d_rho)[:, None],
             np.einsum("jd,jd->j", mean, d_gamma)[:, None]], axis=1), lay.total)
        out[:, lay.by_name["rho"].offset] += (
            np.einsum("id,id->i", xs_new, sums[:, :d]) - sums[:, 2 * d]) / model.q_var
        out[:, lay.by_name["gamma"].offset] += (
            np.einsum("id,id->i", xs_new, sums[:, d:2 * d]) - sums[:, 2 * d + 1]) / model.q_var
        return out

    if isinstance(model, ResidualNonlinearSSM):
        # the cotangent of pair (i, j) is c_ij (x_i - mean_j) / q
        q = model.q_diag
        mean = transition_mean(model, xs_prev)
        d = mean.shape[1]
        # sum_j c_ij (-1/2 + (x_i - mean_j)^2 / (2 q)) from c @ [mean, mean^2, 1]
        out, sums = _carried_product(
            coeff, carried,
            np.concatenate([mean, mean * mean, np.ones((mean.shape[0], 1))], axis=1),
            lay.total)
        f_spec = lay.by_name["f_net"]
        out[:, f_spec.offset:f_spec.offset + f_spec.size] += mlp.vjp_params_cross(
            model.f_net, xs_prev, coeff, xs_new / q, mean / q)
        row_sum = sums[:, -1]
        q_spec = lay.by_name["log_q_diag"]
        out[:, q_spec.offset:q_spec.offset + q_spec.size] += (
            -0.5 * row_sum[:, None]
            + 0.5 * (xs_new * xs_new * row_sum[:, None] - 2.0 * xs_new * sums[:, :d]
                     + sums[:, d:2 * d]) / q)
        if np.any(valid):
            g_out, g_acts = mlp.forward_cached(model.g_net, xs_new)
            resid_y = np.where(valid, y[None, :] - g_out, 0.0)
            cot_g = row_sum[:, None] * resid_y / model.r_diag
            g_spec = lay.by_name["g_net"]
            out[:, g_spec.offset:g_spec.offset + g_spec.size] += mlp.vjp_params_batched(
                model.g_net, xs_new, cot_g, acts=g_acts)
            r_spec = lay.by_name["log_r_diag"]
            out[:, r_spec.offset:r_spec.offset + r_spec.size] += (
                row_sum[:, None] * np.where(valid, -0.5 + 0.5 * resid_y * resid_y / model.r_diag, 0.0))
        return out

    raise TypeError(f"unknown model type {type(model)}")


def grad_theta_emission_batch(model, xs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-particle gradient of log g(xs[i], y); NaN entries of y masked."""
    n = xs.shape[0]
    lay = theta_layout(model)
    out = np.zeros((n, lay.total))
    y = np.asarray(y, dtype=np.float64)
    valid = ~np.isnan(y)
    if not np.any(valid):
        return out
    if isinstance(model, LinearGaussianSSM):
        resid_y = np.where(valid, y[None, :] - xs @ model.G.T, 0.0)
        gg = np.einsum("ik,id->ikd", resid_y / model.r_var, xs)
        g_spec = lay.by_name["G"]
        out[:, g_spec.offset:g_spec.offset + g_spec.size] = gg.reshape(n, -1)
        return out
    if isinstance(model, ChaoticRNNModel):
        return out
    if isinstance(model, ResidualNonlinearSSM):
        g_out, g_acts = mlp.forward_cached(model.g_net, xs)
        resid_y = np.where(valid, y[None, :] - g_out, 0.0)
        g_spec = lay.by_name["g_net"]
        out[:, g_spec.offset:g_spec.offset + g_spec.size] = mlp.vjp_params_batched(
            model.g_net, xs, resid_y / model.r_diag, acts=g_acts)
        r_spec = lay.by_name["log_r_diag"]
        out[:, r_spec.offset:r_spec.offset + r_spec.size] = np.where(
            valid, -0.5 + 0.5 * resid_y * resid_y / model.r_diag, 0.0)
        return out
    raise TypeError(f"unknown model type {type(model)}")


def grad_theta_init_batch(model, xs: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """Per-particle gradient of log chi(x) + log g(x, y0) at t=0.

    The initial density carries no learnable parameters in any of the
    three model classes, so this is the emission gradient.
    """
    return grad_theta_emission_batch(model, xs, y0)


def grad_theta_transition_pairs(model, xs_prev: np.ndarray,
                                xs_new: np.ndarray) -> np.ndarray:
    """Per-pair transition gradients for matched rows; shape (k, dim_theta)."""
    k = xs_prev.shape[0]
    lay = theta_layout(model)
    out = np.zeros((k, lay.total))
    if isinstance(model, LinearGaussianSSM):
        resid = (xs_new - xs_prev @ model.F.T) / model.q_var
        gf = np.einsum("kd,ke->kde", resid, xs_prev)
        f_spec = lay.by_name["F"]
        out[:, f_spec.offset:f_spec.offset + f_spec.size] = gf.reshape(k, -1)
        return out
    if isinstance(model, ChaoticRNNModel):
        th = np.tanh(xs_prev)
        push = model.gamma * (th @ model.W.T)
        mean = xs_prev + (model.delta / model.rho) * (push - xs_prev)
        resid = (xs_new - mean) / model.q_var
        d_gamma = (model.delta / model.rho) * (th @ model.W.T)
        d_rho = -(model.delta / model.rho**2) * (push - xs_prev)
        out[:, lay.by_name["rho"].offset] = np.sum(resid * d_rho, axis=-1)
        out[:, lay.by_name["gamma"].offset] = np.sum(resid * d_gamma, axis=-1)
        return out
    if isinstance(model, ResidualNonlinearSSM):
        f_out, f_acts = mlp.forward_cached(model.f_net, xs_prev)
        resid = xs_new - xs_prev - f_out
        f_spec = lay.by_name["f_net"]
        out[:, f_spec.offset:f_spec.offset + f_spec.size] = mlp.vjp_params_batched(
            model.f_net, xs_prev, resid / model.q_diag, acts=f_acts)
        q_spec = lay.by_name["log_q_diag"]
        out[:, q_spec.offset:q_spec.offset + q_spec.size] = (
            -0.5 + 0.5 * resid * resid / model.q_diag)
        return out
    raise TypeError(f"unknown model type {type(model)}")
