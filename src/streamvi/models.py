"""Generative state-space models used as testbeds.

Three model classes share one protocol: trajectory simulation, the
transition log-density ``log_m`` (which at t=0 is the log initial
density), the emission log-density ``log_g`` (NaN observation entries
are treated as missing and contribute zero), and the gradient of
``log_m + log_g`` in the learnable model parameters:

- linear Gaussian: the transition and emission matrices (F, G), noise
  variances fixed;
- chaotic RNN: the time constant and gain (rho, gamma), weight matrix
  fixed;
- residual nonlinear: both networks plus log-diagonal noise variances.

A class defines only what differs: the transition mean and its noise
variance ``q`` (a scalar or one entry per coordinate), the initial mean
and variance, the emission log-density over the observed coordinates
(batched, plus a per-pair reference) and sampler, the theta layout with
its pack and replace, and the theta-gradient pieces, as named blocks
(``pair_features``, ``pair_finish``, ``emission_grad``,
``transition_grad_pairs`` and the per-pair reference ``grad_pair``).
Each module function below is written once over those methods, with the
NaN masking, the Gaussian normalizers and the flat theta placement.

The engine calls ``log_init_batch``, ``log_g_batch``,
``transition_rows``, ``grad_theta_pair_rows`` with
``grad_theta_pair_finish``, ``grad_theta_init_batch`` and
``theta_layout``.  ``transition_rows`` gives feature rows whose inner
products are the transition log-densities (|a|^2 - 2 a.b + |b|^2), so
they agree with the scalar ops to rounding that grows with
|x|^2 + |mean|^2 over the noise variance.  ``grad_theta_pair_rows``
gives rows of the carried theta-statistic and every per-particle feature
the transition gradient sums over; the engine weights them and
``grad_theta_pair_finish`` completes the sums.  ``log_m_cross``,
``log_m_gathered``, ``grad_theta_pair_contract``,
``grad_theta_transition_pairs`` and ``grad_theta_emission_batch`` are
off the step path, references for the tests and the benchmark's tracer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import gaussian, mlp
from .gaussian import LOG_2PI
from .layout import ParamLayout


def _gauss_logpdf(resid: np.ndarray, var) -> np.ndarray:
    """log N(resid; 0, var I) summed over the last axis; var a scalar or one per coordinate."""
    if np.ndim(var) == 0:
        d = resid.shape[-1]
        return -0.5 * d * (LOG_2PI + math.log(var)) - 0.5 * np.sum(resid * resid, axis=-1) / var
    return np.sum(-0.5 * (LOG_2PI + np.log(var)) - 0.5 * resid * resid / var, axis=-1)


def _student_t(rng: np.random.Generator, dof: float, shape) -> np.ndarray:
    # Gaussian / chi-square ratio for exactness and seed determinism
    z = rng.standard_normal(shape)
    v = rng.chisquare(dof, shape)
    return z / np.sqrt(v / dof)


def _student_t_logpdf(z: np.ndarray, dof: float, scale: float) -> np.ndarray:
    const = (math.lgamma((dof + 1.0) / 2.0) - math.lgamma(dof / 2.0)
             - 0.5 * math.log(dof * math.pi) - math.log(scale))
    return const - 0.5 * (dof + 1.0) * np.log1p((z / scale) ** 2 / dof)


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

    q = property(lambda self: self.q_var)
    init_mean = property(lambda self: self.mu0)
    init_var = property(lambda self: self.q0_var)

    def transition_mean(self, x_prev: np.ndarray) -> np.ndarray:
        return x_prev @ self.F.T

    def log_g_rows(self, xs, y, valid):
        return _gauss_logpdf(y[valid][None, :] - (xs @ self.G.T)[:, valid], self.r_var)

    def log_g_pair(self, x, y, valid):
        return _gauss_logpdf((y - self.G @ x)[valid], self.r_var)

    def sample_emission(self, x, rng):
        return self.G @ x + math.sqrt(self.r_var) * rng.standard_normal(self.d_y)

    def theta_layout(self) -> ParamLayout:
        return ParamLayout.build([("F", self.F.shape), ("G", self.G.shape)])

    def theta_arrays(self) -> dict:
        return {"F": self.F, "G": self.G}

    def replace_theta(self, views: dict):
        return replace(self, F=views["F"].copy(), G=views["G"].copy())

    @property
    def pair_feature_dim(self) -> int:
        return self.d_x + self.d_x * self.d_x + 1

    def pair_features(self, xs_prev):
        return [gaussian.suff_stat_rows(xs_prev)]

    def pair_finish(self, xs_new, sums):
        # transition: sum_j c_ij (x_i - F x_j) x_j' / q
        n_new, d = xs_new.shape
        sx = sums[:, :d]
        sxx = sums[:, d:-1].reshape(n_new, d, d)
        gF = (np.einsum("id,ie->ide", xs_new, sx) - np.einsum("de,ief->idf", self.F, sxx))
        return {"F": gF.reshape(n_new, -1) / self.q_var}, sums[:, -1]

    def emission_grad(self, xs, y, valid, scale):
        # scale_i * (y - G x_i) x_i' / r on valid coords
        resid_y = np.where(valid, y[None, :] - xs @ self.G.T, 0.0)
        gG = np.einsum("i,ik,id->ikd", scale, resid_y / self.r_var, xs)
        return {"G": gG.reshape(xs.shape[0], -1)}

    def transition_grad_pairs(self, xs_prev, xs_new):
        resid = (xs_new - xs_prev @ self.F.T) / self.q_var
        return {"F": np.einsum("kd,ke->kde", resid, xs_prev).reshape(xs_prev.shape[0], -1)}

    def grad_pair(self, x_prev, x, y, valid):
        grads = {"G": np.where(valid[:, None], np.outer((y - self.G @ x) / self.r_var, x), 0.0)}
        if x_prev is not None:
            grads["F"] = np.outer((x - self.F @ x_prev) / self.q_var, x_prev)
        return grads


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

    init_mean = 0.0
    q = property(lambda self: self.q_var)
    init_var = property(lambda self: self.q_var)

    def drift(self, x_prev: np.ndarray) -> np.ndarray:
        """Conditional mean of X_t given X_{t-1}; works on (d,) or (n, d)."""
        push = self.gamma * (np.tanh(x_prev) @ self.W.T)
        return x_prev + (self.delta / self.rho) * (push - x_prev)

    transition_mean = drift

    def mean_derivatives(self, x_prev):
        """(mean, d mean / d rho, d mean / d gamma) at x_prev; (d,) or (n, d)."""
        pull = np.tanh(x_prev) @ self.W.T
        push = self.gamma * pull
        mean = x_prev + (self.delta / self.rho) * (push - x_prev)
        return mean, -(self.delta / self.rho**2) * (push - x_prev), (self.delta / self.rho) * pull

    def log_g_rows(self, xs, y, valid):
        return np.sum(_student_t_logpdf(y[valid][None, :] - xs[:, valid], self.t_dof,
                                        self.t_scale), axis=-1)

    def log_g_pair(self, x, y, valid):
        return np.sum(_student_t_logpdf((y - x)[valid], self.t_dof, self.t_scale))

    def sample_emission(self, x, rng):
        return x + self.t_scale * _student_t(rng, self.t_dof, self.d_y)

    def theta_layout(self) -> ParamLayout:
        return ParamLayout.build([("rho", ()), ("gamma", ())])

    def theta_arrays(self) -> dict:
        return {"rho": np.array(self.rho), "gamma": np.array(self.gamma)}

    def replace_theta(self, views: dict):
        return replace(self, rho=float(views["rho"]), gamma=float(views["gamma"]))

    @property
    def pair_feature_dim(self) -> int:
        return 2 * self.d_x + 2

    def pair_features(self, xs_prev):
        mean, d_rho, d_gamma = self.mean_derivatives(xs_prev)
        return [d_rho, d_gamma, np.einsum("jd,jd->j", mean, d_rho)[:, None],
                np.einsum("jd,jd->j", mean, d_gamma)[:, None]]

    def pair_finish(self, xs_new, sums):
        # sum_j c_ij (x_i - mean_j) . dmean_j = x_i . (c @ dmean)_i - (c @ (mean . dmean))_i
        # and no emission parameters, so no row sums
        d = xs_new.shape[1]
        d_rho = np.einsum("id,id->i", xs_new, sums[:, :d]) - sums[:, 2 * d]
        d_gamma = np.einsum("id,id->i", xs_new, sums[:, d:2 * d]) - sums[:, 2 * d + 1]
        return {"rho": (d_rho / self.q_var)[:, None],
                "gamma": (d_gamma / self.q_var)[:, None]}, None

    def emission_grad(self, xs, y, valid, scale):
        return {}

    def transition_grad_pairs(self, xs_prev, xs_new):
        mean, d_rho, d_gamma = self.mean_derivatives(xs_prev)
        resid = (xs_new - mean) / self.q_var
        return {"rho": np.sum(resid * d_rho, axis=-1)[:, None],
                "gamma": np.sum(resid * d_gamma, axis=-1)[:, None]}

    def grad_pair(self, x_prev, x, y, valid):
        if x_prev is None:
            return {}
        mean, d_rho, d_gamma = self.mean_derivatives(x_prev)
        resid = (x - mean) / self.q_var
        return {"rho": resid @ d_rho, "gamma": resid @ d_gamma}


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

    init_mean = 0.0
    init_var = 1.0
    q = property(lambda self: self.q_diag)

    def transition_mean(self, x_prev: np.ndarray) -> np.ndarray:
        return x_prev + mlp.forward(self.f_net, x_prev)

    def log_g_rows(self, xs, y, valid):
        resid = y[valid][None, :] - mlp.forward(self.g_net, xs)[:, valid]
        return _gauss_logpdf(resid, self.r_diag[valid])

    def log_g_pair(self, x, y, valid):
        return _gauss_logpdf((y - mlp.forward(self.g_net, x))[valid], self.r_diag[valid])

    def sample_emission(self, x, rng):
        return mlp.forward(self.g_net, x) + np.sqrt(self.r_diag) * rng.standard_normal(self.d_y)

    def theta_layout(self) -> ParamLayout:
        nets = [("f_net", (self.f_net.n_params,)), ("g_net", (self.g_net.n_params,))]
        return ParamLayout.build(nets + [("log_q_diag", (self.d_x,)), ("log_r_diag", (self.d_y,))])

    def theta_arrays(self) -> dict:
        return {"f_net": self.f_net.pack(), "g_net": self.g_net.pack(),
                "log_q_diag": np.log(self.q_diag), "log_r_diag": np.log(self.r_diag)}

    def replace_theta(self, views: dict):
        return replace(self, f_net=self.f_net.unpack(views["f_net"]),
                       g_net=self.g_net.unpack(views["g_net"]),
                       q_diag=np.exp(views["log_q_diag"]), r_diag=np.exp(views["log_r_diag"]))

    @property
    def pair_feature_dim(self) -> int:
        return 2 * self.d_x + 1 + (self.d_x + 1) * self.f_net.n_params

    def pair_features(self, xs_prev):
        # [mean, mean^2, 1], then the network's per-sample gradient rows
        # under the cotangents mean / q
        f_out, f_acts = mlp.forward_cached(self.f_net, xs_prev)
        mean = xs_prev + f_out
        return [mean, mean * mean, np.ones((mean.shape[0], 1)),
                mlp.vjp_params_cross_rows(self.f_net, None, mean / self.q_diag, acts=f_acts)]

    def pair_finish(self, xs_new, sums):
        # the cotangent of pair (i, j) is c_ij (x_i - mean_j) / q; and
        # sum_j c_ij (-1/2 + (x_i - mean_j)^2 / (2 q)) from c @ [mean, mean^2, 1]
        d = xs_new.shape[1]
        q = self.q_diag
        row_sum = sums[:, 2 * d]
        return {"f_net": mlp.vjp_params_cross_finish(xs_new / q, sums[:, 2 * d + 1:]),
                "log_q_diag": (-0.5 * row_sum[:, None]
                               + 0.5 * (xs_new * xs_new * row_sum[:, None]
                                        - 2.0 * xs_new * sums[:, :d] + sums[:, d:2 * d]) / q)
                }, row_sum

    def emission_grad(self, xs, y, valid, scale):
        g_out, g_acts = mlp.forward_cached(self.g_net, xs)
        resid_y = np.where(valid, y[None, :] - g_out, 0.0)
        cot_g = scale[:, None] * resid_y / self.r_diag
        return {"g_net": mlp.vjp_params_batched(self.g_net, xs, cot_g, acts=g_acts),
                "log_r_diag": scale[:, None] * np.where(
                    valid, -0.5 + 0.5 * resid_y * resid_y / self.r_diag, 0.0)}

    def transition_grad_pairs(self, xs_prev, xs_new):
        f_out, f_acts = mlp.forward_cached(self.f_net, xs_prev)
        resid = xs_new - xs_prev - f_out
        return {"f_net": mlp.vjp_params_batched(self.f_net, xs_prev, resid / self.q_diag,
                                                acts=f_acts),
                "log_q_diag": -0.5 + 0.5 * resid * resid / self.q_diag}

    def grad_pair(self, x_prev, x, y, valid):
        resid_y = y - mlp.forward(self.g_net, x)
        cot = np.where(valid, resid_y / self.r_diag, 0.0)
        grads = {"g_net": mlp.vjp_params(self.g_net, x, cot),
                 "log_r_diag": np.where(valid, -0.5 + 0.5 * resid_y * resid_y / self.r_diag, 0.0)}
        if x_prev is not None:
            resid = x - x_prev - mlp.forward(self.f_net, x_prev)
            grads["f_net"] = mlp.vjp_params(self.f_net, x_prev, resid / self.q_diag)
            grads["log_q_diag"] = -0.5 + 0.5 * resid * resid / self.q_diag
        return grads


# ---------------------------------------------------------------------------
# Learnable-parameter views
# ---------------------------------------------------------------------------


def theta_layout(model) -> ParamLayout:
    return model.theta_layout()


def get_theta(model) -> np.ndarray:
    """Flat vector of the learnable parameters."""
    return theta_layout(model).pack(model.theta_arrays())


def with_theta(model, flat: np.ndarray):
    """New model object with the learnable parameters replaced."""
    return model.replace_theta(theta_layout(model).views(flat))


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def simulate(model, T: int, rng: np.random.Generator):
    """Sample (states, observations) of shapes (T+1, d_x) and (T+1, d_y)."""
    if T < 0:
        raise ValueError("T must be >= 0")
    d_x = model.d_x
    xs = np.empty((T + 1, d_x))
    ys = np.empty((T + 1, model.d_y))
    xs[0] = model.init_mean + math.sqrt(model.init_var) * rng.standard_normal(d_x)
    ys[0] = model.sample_emission(xs[0], rng)
    sd = np.sqrt(model.q)
    for t in range(1, T + 1):
        xs[t] = model.transition_mean(xs[t - 1]) + sd * rng.standard_normal(d_x)
        ys[t] = model.sample_emission(xs[t], rng)
    return xs, ys


# ---------------------------------------------------------------------------
# Log-densities
# ---------------------------------------------------------------------------


def transition_mean(model, x_prev: np.ndarray) -> np.ndarray:
    """Conditional mean of X_t given X_{t-1} = x_prev; batched over rows."""
    return model.transition_mean(x_prev)


def log_m(model, x_prev, x, t: int) -> float:
    """Transition log-density; at t=0 the initial log-density of x."""
    x = np.asarray(x, dtype=np.float64)
    if t == 0:
        return float(_gauss_logpdf(x - model.init_mean, model.init_var))
    resid = x - transition_mean(model, np.asarray(x_prev, dtype=np.float64))
    return float(_gauss_logpdf(resid, model.q))


def _observed(y) -> tuple[np.ndarray, np.ndarray]:
    """y as float64 and the mask of its observed (non-NaN) entries."""
    y = np.asarray(y, dtype=np.float64)
    return y, ~np.isnan(y)


def log_g(model, x, y, t: int = 0) -> float:
    """Emission log-density; NaN entries of y are missing and contribute 0."""
    y, valid = _observed(y)
    if not np.any(valid):
        return 0.0
    return float(model.log_g_pair(np.asarray(x, dtype=np.float64), y, valid))


# ---------------------------------------------------------------------------
# Parameter gradients of log_m + log_g
# ---------------------------------------------------------------------------


def grad_theta_log_joint_pair(model, x_prev, x, y, t: int) -> np.ndarray:
    """Gradient of log_m(x_prev, x, t) + log_g(x, y, t) in the flat theta."""
    y, valid = _observed(y)
    x_prev = np.asarray(x_prev, dtype=np.float64) if t > 0 else None
    lay = theta_layout(model)
    grad = np.zeros(lay.total)
    for name, value in model.grad_pair(x_prev, np.asarray(x, dtype=np.float64), y, valid).items():
        lay.view(grad, name)[...] = value
    return grad


# ---------------------------------------------------------------------------
# Batched variants for the particle engine
# ---------------------------------------------------------------------------


def log_init_batch(model, xs: np.ndarray) -> np.ndarray:
    """log chi(xs[i]) for a batch of initial states."""
    return _gauss_logpdf(xs - model.init_mean, model.init_var)


def _log_normalizer(model) -> float:
    """The transition log-density at a zero residual."""
    return float(_gauss_logpdf(np.zeros(model.d_x), model.q))


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
    q, const = model.q, _log_normalizer(model)
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

    One (n_new, d+2) @ (d+2, n_prev) product of ``transition_rows``.  At
    t=0, as in ``log_m``, it is the initial log-density of xs_new[i], the
    same in every column.
    """
    if t == 0:
        return np.repeat(log_init_batch(model, xs_new)[:, None], xs_prev.shape[0], axis=1)
    rows_new, rows_prev = transition_rows(model, xs_prev, xs_new)
    return rows_new @ rows_prev.T


def log_m_gathered(model, means_prev: np.ndarray, idx: np.ndarray,
                   xs_new: np.ndarray) -> np.ndarray:
    """log m(xs_prev[idx[i,k]] -> xs_new[i]) for sampled index draws.

    means_prev holds transition_mean over the previous particles; idx is
    (n, m) integer draws; returns shape (n, m).
    """
    diff = xs_new[:, None, :] - means_prev[idx]
    return _log_normalizer(model) - 0.5 * np.sum(diff * diff / model.q, axis=-1)


def log_g_batch(model, xs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """log g(xs[i], y) for a batch of states; NaN entries of y masked."""
    y, valid = _observed(y)
    if not np.any(valid):
        return np.zeros(xs.shape[0])
    return model.log_g_rows(xs, y, valid)


def grad_theta_pair_rows(model, xs_prev: np.ndarray, carried: np.ndarray,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Rows [carried_j, features_j] that the weights multiply; shape (n_prev, p).

    The features are what the model's transition gradient sums over j:
    T(x_j) for the linear Gaussian, the mean's derivatives for the chaotic
    RNN and, for the residual model, [mean, mean^2, 1] followed by the
    network's per-sample gradient rows (``mlp.vjp_params_cross_rows``
    under the cotangents mean / q).  ``grad_theta_pair_finish`` turns
    coeff @ rows into the contracted gradients.  The rows are written
    into ``out`` if given, of width ``pair_rows_dim(model)``.
    """
    return np.concatenate([carried, *model.pair_features(xs_prev)], axis=1, out=out)


def pair_rows_dim(model) -> int:
    """Width p of ``grad_theta_pair_rows``: dim_theta plus the model's pair features."""
    return theta_layout(model).total + model.pair_feature_dim


def _add_blocks(lay: ParamLayout, out: np.ndarray, blocks: dict) -> np.ndarray:
    """Add each named block of per-row gradients into its columns of ``out``."""
    for name, rows in blocks.items():
        spec = lay.by_name[name]
        out[:, spec.offset:spec.offset + spec.size] += rows
    return out


def _add_emission(model, lay: ParamLayout, out: np.ndarray, xs: np.ndarray, y,
                  scale: np.ndarray) -> np.ndarray:
    """Add scale_i * grad_theta log g(xs[i], y) to the rows ``out``."""
    y, valid = _observed(y)
    if np.any(valid):
        _add_blocks(lay, out, model.emission_grad(xs, y, valid, scale))
    return out


def grad_theta_pair_finish(model, xs_new: np.ndarray, y: np.ndarray,
                           sums: np.ndarray) -> np.ndarray:
    """Contracted gradients from sums = coeff @ ``grad_theta_pair_rows``.

    Row i is sum_j coeff[i, j] * (carried[j] + grad_theta(log m(x_j, x_i)
    + log g(x_i, y))), shape (n_new, dim_theta).  The emission term is
    constant in j, so it enters scaled by the row sums, which the model's
    ``pair_finish`` returns with the transition term.
    """
    lay = theta_layout(model)
    transition, row_sum = model.pair_finish(xs_new, sums[:, lay.total:])
    out = _add_blocks(lay, sums[:, :lay.total].copy(), transition)
    return _add_emission(model, lay, out, xs_new, y, row_sum)


def grad_theta_pair_contract(model, xs_prev: np.ndarray, xs_new: np.ndarray,
                             y: np.ndarray, t: int, coeff: np.ndarray,
                             carried: np.ndarray | None = None) -> np.ndarray:
    """Row-wise contraction of pairwise theta-gradients.

    Returns rows G[i] = sum_j coeff[i, j] * (carried[j] + grad_theta(log
    m(xs_prev[j], xs_new[i]) + log g(xs_new[i], y))), shape (n_new,
    dim_theta); without ``carried`` its term is zero.  ``coeff`` is read
    by one product with ``grad_theta_pair_rows``, and
    ``grad_theta_pair_finish`` completes the rows.
    """
    if carried is None:
        carried = np.zeros((xs_prev.shape[0], theta_layout(model).total))
    return grad_theta_pair_finish(model, xs_new, y,
                                  coeff @ grad_theta_pair_rows(model, xs_prev, carried))


def grad_theta_emission_batch(model, xs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-particle gradient of log g(xs[i], y); NaN entries of y masked."""
    lay = theta_layout(model)
    return _add_emission(model, lay, np.zeros((xs.shape[0], lay.total)), xs, y,
                         np.ones(xs.shape[0]))


def grad_theta_init_batch(model, xs: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """Per-particle gradient of log chi(x) + log g(x, y0) at t=0.

    The initial density carries no learnable parameters in any of the
    three model classes, so this is the emission gradient.
    """
    return grad_theta_emission_batch(model, xs, y0)


def grad_theta_transition_pairs(model, xs_prev: np.ndarray,
                                xs_new: np.ndarray) -> np.ndarray:
    """Per-pair transition gradients for matched rows; shape (k, dim_theta)."""
    lay = theta_layout(model)
    return _add_blocks(lay, np.zeros((xs_prev.shape[0], lay.total)),
                       model.transition_grad_pairs(xs_prev, xs_new))
