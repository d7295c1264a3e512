"""Test-side references that the runtime is checked against.

- A minimal array-valued reverse-mode tape.  Nodes hold numpy arrays;
  each records its parents and a local vector-Jacobian product.  The
  tape is append-only, so parents always precede children and a single
  reverse sweep from a scalar (or seeded vector) output accumulates
  cotangents for every requested leaf.  Matrix factorizations (Cholesky,
  triangular solves) are primitives with their own reverse rules; the
  rules are checked by finite differences in ``test_gradients.py``.
- The tape-backed phi-gradients of single log-densities through the
  truncated amortizer chain (``grad_phi_log_marginal``,
  ``grad_phi_log_backward``) and their values, one log-density at a
  time: the reference that the engine's batched route is checked against.
- The one-point forms that the runtime's batched forms are checked
  against: of one Gaussian (``log_density``, ``log_partition``,
  ``mean_params``, ``inner``, ``add``, ``from_moments``, ``suff_stat``);
  of one pair of the models (``log_m``, ``log_g`` and
  ``grad_theta_log_joint_pair``, the last two built from the models'
  batched forms); of one point of the variational family
  (``marginal_params``, ``potential_params``, ``backward_kernel``,
  ``eta_at``); and ``validate_cloud``, the check of a cloud's cached
  log-densities.
- The linear-Gaussian smoothing references beside ``streamvi.oracle``:
  the RTS smoother, the exact backward kernels and a dense joint-Gaussian
  brute force for tiny problems.
- ``kernel_phi_rows``, the kernel scores' phi rows of a step as one new
  float64 array, for the direct forms of the statistic updates.
- ``weight_matrix``, all N_new x N_prev weights of an update in one array,
  and ``categorical_draws``, the inverse-CDF draws from its rows one row
  at a time: the dense forms of the engine's row-blocked draws.
- ``grad_theta_fd``, the theta-gradient of an array-valued function of
  the model by central differences.
- ``fd_check``, the independent central-difference verifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from streamvi import engine, gaussian, models, oracle, variational as var
from streamvi.engine import EngineConfig, KernelBatch, ParticleCloud, WeightMatrix
from streamvi.errors import (DimensionMismatch, NonFiniteStatistic, NotNegativeDefinite, NotSPD,
                             StreamviError)
from streamvi.gaussian import LOG_2PI, GaussianMoments, GaussianNatural, to_moments
from streamvi.models import LinearGaussianSSM
from streamvi.oracle import FilterOutput


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------


class Node:
    __slots__ = ("tape", "idx", "value")

    def __init__(self, tape: "Tape", idx: int, value: np.ndarray):
        self.tape = tape
        self.idx = idx
        self.value = value

    # convenience operators; constants are auto-wrapped
    def __add__(self, other):
        return add_nodes(self, self.tape.wrap(other))

    def __mul__(self, other):
        return mul(self, self.tape.wrap(other))

    def __matmul__(self, other):
        return matmul(self, self.tape.wrap(other))


class Tape:
    def __init__(self):
        self.parents: list[tuple[int, ...]] = []
        self.vjps: list = []
        self.values: list[np.ndarray] = []

    def push(self, value, parents: tuple[Node, ...], vjp) -> Node:
        value = np.asarray(value, dtype=np.float64)
        idx = len(self.values)
        self.values.append(value)
        self.parents.append(tuple(p.idx for p in parents))
        self.vjps.append(vjp)
        return Node(self, idx, value)

    def leaf(self, value) -> Node:
        return self.push(value, (), None)

    def wrap(self, x) -> Node:
        return x if isinstance(x, Node) else self.leaf(x)

    def backward(self, out: Node, seed=1.0) -> dict[int, np.ndarray]:
        """Cotangents of every node reachable from ``out``; keyed by index."""
        cots: dict[int, np.ndarray] = {out.idx: np.broadcast_to(
            np.asarray(seed, dtype=np.float64), out.value.shape).copy()}
        for idx in range(out.idx, -1, -1):
            if idx not in cots:
                continue
            vjp = self.vjps[idx]
            if vjp is None:
                continue
            for parent_idx, contrib in zip(self.parents[idx], vjp(cots[idx])):
                if contrib is None:
                    continue
                if parent_idx in cots:
                    cots[parent_idx] = cots[parent_idx] + contrib
                else:
                    cots[parent_idx] = np.asarray(contrib, dtype=np.float64).copy()
        return cots

    def gradient(self, out: Node, leaves: list[Node], seed=1.0) -> list[np.ndarray]:
        cots = self.backward(out, seed)
        return [cots.get(leaf.idx, np.zeros_like(leaf.value)) for leaf in leaves]


def _unbroadcast(cot: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if cot.shape == shape:
        return cot
    extra = cot.ndim - len(shape)
    if extra > 0:
        cot = cot.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and cot.shape[i] != 1)
    if axes:
        cot = cot.sum(axis=axes, keepdims=True)
    return cot


def add_nodes(a: Node, b: Node) -> Node:
    return a.tape.push(a.value + b.value, (a, b),
                       lambda c: (_unbroadcast(c, a.value.shape),
                                  _unbroadcast(c, b.value.shape)))


def mul(a: Node, b: Node) -> Node:
    return a.tape.push(a.value * b.value, (a, b),
                       lambda c: (_unbroadcast(c * b.value, a.value.shape),
                                  _unbroadcast(c * a.value, b.value.shape)))


def scale(a: Node, c: float) -> Node:
    return a.tape.push(a.value * c, (a,), lambda cot: (cot * c,))


def matmul(a: Node, b: Node) -> Node:
    """Matrix-matrix or matrix-vector product."""
    if b.value.ndim == 1:
        return a.tape.push(a.value @ b.value, (a, b),
                           lambda c: (np.outer(c, b.value), a.value.T @ c))
    return a.tape.push(a.value @ b.value, (a, b),
                       lambda c: (c @ b.value.T, a.value.T @ c))


def transpose(a: Node) -> Node:
    return a.tape.push(a.value.T, (a,), lambda c: (c.T,))


def dot(a: Node, b: Node) -> Node:
    return a.tape.push(a.value @ b.value, (a, b),
                       lambda c: (c * b.value, c * a.value))


def tanh(a: Node) -> Node:
    out = np.tanh(a.value)
    return a.tape.push(out, (a,), lambda c: (c * (1.0 - out * out),))


def softplus(a: Node) -> Node:
    out = np.logaddexp(0.0, a.value)
    sig = 0.5 * (1.0 + np.tanh(0.5 * a.value))
    return a.tape.push(out, (a,), lambda c: (c * sig,))


def log(a: Node) -> Node:
    return a.tape.push(np.log(a.value), (a,), lambda c: (c / a.value,))


def total(a: Node) -> Node:
    return a.tape.push(np.sum(a.value), (a,),
                       lambda c: (np.broadcast_to(c, a.value.shape).copy(),))


def index(a: Node, idx) -> Node:
    def vjp(c):
        g = np.zeros_like(a.value)
        np.add.at(g, idx, c)
        return (g,)
    return a.tape.push(a.value[idx], (a,), vjp)


def scatter_matrix(vals: Node, rows: np.ndarray, cols: np.ndarray, d: int) -> Node:
    """Place a vector of entries into a d x d matrix at (rows, cols)."""
    m = np.zeros((d, d))
    m[rows, cols] = vals.value
    return vals.tape.push(m, (vals,), lambda c: (c[rows, cols],))


def extract_diag(a: Node) -> Node:
    def vjp(c):
        g = np.zeros_like(a.value)
        np.fill_diagonal(g, c)
        return (g,)
    return a.tape.push(np.diag(a.value), (a,), vjp)


def cholesky(a: Node) -> Node:
    """Lower Cholesky factor of a symmetric positive-definite node.

    The reverse rule assumes the parent is symmetric-valued (true for
    every use here: precision matrices assembled as L L' + c I).
    """
    low = np.linalg.cholesky(a.value)

    def vjp(lbar):
        p = np.tril(low.T @ lbar)
        p = p - 0.5 * np.diag(np.diag(p))
        tmp = solve_triangular(low, p.T, lower=True, trans="T")
        abar = solve_triangular(low, tmp.T, lower=True, trans="T").T
        return (0.5 * (abar + abar.T),)

    return a.tape.push(low, (a,), vjp)


def tri_solve(low: Node, y: Node) -> Node:
    """z = L^-1 y for lower-triangular L."""
    z = solve_triangular(low.value, y.value, lower=True)

    def vjp(zbar):
        gy = solve_triangular(low.value, zbar, lower=True, trans="T")
        gl = -np.tril(np.outer(gy, z))
        return (gl, gy)

    return low.tape.push(z, (low, y), vjp)


# ---------------------------------------------------------------------------
# Tape-backed phi-gradients of single log-densities
# ---------------------------------------------------------------------------
#
# Truncated backpropagation re-executes the last ``window`` recurrent
# updates from a boundary state treated as a constant; with a window of
# zero, gradients flow only through the heads, so the recurrent weight
# slices are exactly zero.


def _phi_leaves(t: Tape, params: var.AmortizerParams):
    """Leaf nodes for every weight block, in var_layout order."""
    leaves = [t.leaf(params.W), t.leaf(params.U), t.leaf(params.b)]
    hm = [(t.leaf(w), t.leaf(b)) for w, b in params.head_marginal.layers]
    hp = [(t.leaf(w), t.leaf(b)) for w, b in params.head_potential.layers]
    for w, b in hm + hp:
        leaves.extend([w, b])
    return leaves, hm, hp


def _mlp_nodes(layer_nodes, x_node):
    h = x_node
    last = len(layer_nodes) - 1
    for i, (w, b) in enumerate(layer_nodes):
        z = matmul(w, h) + b
        h = z if i == last else tanh(z)
    return h


def _chain_nodes(t: Tape, w, u, b, a_boundary: np.ndarray, ys):
    a = t.leaf(a_boundary)  # constant: the state beyond the window
    for y in ys:
        a = tanh(matmul(w, a) + matmul(u, t.leaf(np.asarray(y))) + b)
    return a


def _natural_nodes(t: Tape, raw_node, d: int, eps: float, diag_softplus: bool = True):
    """(eta1, P) nodes from raw coordinates, with P = -2 eta2 = L L' + 2 eps I."""
    rows, cols = np.tril_indices(d)
    diag_sel = np.nonzero(rows == cols)[0]
    off_sel = np.nonzero(rows != cols)[0]
    v = index(raw_node, slice(0, d))
    l = index(raw_node, slice(d, None))
    diag_entries = index(l, diag_sel)
    if diag_softplus:
        diag_entries = softplus(diag_entries)
    low = scatter_matrix(diag_entries, rows[diag_sel], cols[diag_sel], d)
    if off_sel.size:
        low = low + scatter_matrix(index(l, off_sel), rows[off_sel], cols[off_sel], d)
    prec = matmul(low, transpose(low))
    if eps:
        prec = prec + t.leaf(2.0 * eps * np.eye(d))
    return v, prec


def _log_density_nodes(t: Tape, eta1_node, prec_node, x: np.ndarray):
    """log N(x; eta) from (eta1, P) nodes, x constant."""
    d = x.shape[0]
    x_node = t.leaf(x)
    chol = cholesky(prec_node)
    half = tri_solve(chol, eta1_node)
    logdet_half = total(log(extract_diag(chol)))
    lin = dot(eta1_node, x_node)
    quad = dot(x_node, matmul(prec_node, x_node))
    return (lin + scale(quad, -0.5) + scale(dot(half, half), -0.5)
            + logdet_half + t.leaf(np.asarray(-0.5 * d * LOG_2PI)))


def _advanced_state(params: var.AmortizerParams, a_boundary: np.ndarray, ys: list):
    state = var.AmortizerState(a=np.asarray(a_boundary, dtype=np.float64))
    for y in ys:
        state = var.advance(params, state, np.asarray(y))
    return state


def log_marginal_truncated(params: var.AmortizerParams, a_boundary: np.ndarray,
                           ys: list, x: np.ndarray) -> float:
    """Value of the truncated-window marginal log-density (FD target)."""
    state = _advanced_state(params, a_boundary, ys)
    return log_density(marginal_params(params, state), x)


def grad_phi_log_marginal(params: var.AmortizerParams, a_boundary: np.ndarray,
                          ys: list, x: np.ndarray, window: int) -> np.ndarray:
    """d log q_t(x) / d phi through the last ``window`` updates.

    ``ys`` must hold the observations driving those updates (possibly
    fewer near the start of the stream); the state before the window is
    a constant.
    """
    ys = list(ys)[-window:] if window else []
    t = Tape()
    leaves, hm, hp = _phi_leaves(t, params)
    a = _chain_nodes(t, leaves[0], leaves[1], leaves[2], np.asarray(a_boundary), ys)
    raw = _mlp_nodes(hm, a)
    eta1, prec = _natural_nodes(t, raw, params.d_x, var.MARGINAL_EPS)
    out = _log_density_nodes(t, eta1, prec, np.asarray(x, dtype=np.float64))
    return np.concatenate([g.ravel() for g in t.gradient(out, leaves)])


def log_backward_truncated(params: var.AmortizerParams, a_boundary: np.ndarray,
                           ys: list, x_t: np.ndarray, x_prev: np.ndarray) -> float:
    """Value of the truncated backward-kernel log-density (FD target)."""
    eta_prev = marginal_params(params, _advanced_state(params, a_boundary, ys))
    return log_density(backward_kernel(params, eta_prev, x_t), x_prev)


def grad_phi_log_backward(params: var.AmortizerParams, a_boundary: np.ndarray,
                          ys: list, x_t: np.ndarray, x_prev: np.ndarray,
                          window: int) -> np.ndarray:
    """d log q_{t-1|t}(x_t, x_prev) / d phi.

    The previous marginal's parameters keep their dependence on phi
    through the truncated window ending at a_{t-1}; the potential's
    dependence flows through its head at x_t.
    """
    ys = list(ys)[-window:] if window else []
    t = Tape()
    leaves, hm, hp = _phi_leaves(t, params)
    a = _chain_nodes(t, leaves[0], leaves[1], leaves[2], np.asarray(a_boundary), ys)
    raw_m = _mlp_nodes(hm, a)
    eta1_m, prec_m = _natural_nodes(t, raw_m, params.d_x, var.MARGINAL_EPS)
    raw_p = _mlp_nodes(hp, t.leaf(np.asarray(x_t, dtype=np.float64)))
    eta1_p, prec_p = _natural_nodes(t, raw_p, params.d_x, 0.0, diag_softplus=False)
    out = _log_density_nodes(t, eta1_m + eta1_p, prec_m + prec_p,
                             np.asarray(x_prev, dtype=np.float64))
    return np.concatenate([g.ravel() for g in t.gradient(out, leaves)])


# ---------------------------------------------------------------------------
# One Gaussian: the one-point forms of ``streamvi.gaussian``
# ---------------------------------------------------------------------------


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
    return GaussianNatural(eta1=prec @ m.mean, eta2=-0.5 * gaussian._symmetrize(prec))


def add(a: GaussianNatural, b: GaussianNatural) -> GaussianNatural:
    """Componentwise sum of natural parameters.

    The result may be indefinite; validity is only checked when the sum
    is used as a density (lazy Cholesky).
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    return GaussianNatural(eta1=a.eta1 + b.eta1, eta2=gaussian._symmetrize(a.eta2 + b.eta2))


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


def inner(eta: GaussianNatural, t: SufficientStat) -> float:
    """<eta, T(x)> = eta1.t1 + sum(eta2 * t2)."""
    if eta.dim != t.t1.shape[0]:
        raise DimensionMismatch(f"dimensions differ: {eta.dim} vs {t.t1.shape[0]}")
    return float(eta.eta1 @ t.t1 + np.sum(eta.eta2 * t.t2))


# ---------------------------------------------------------------------------
# One pair: the model log-densities and their theta-gradient
# ---------------------------------------------------------------------------


def log_m(model, x_prev, x, t: int) -> float:
    """Transition log-density; at t=0 the initial log-density of x."""
    x = np.asarray(x, dtype=np.float64)
    if t == 0:
        return float(models._gauss_logpdf(x - model.init_mean, model.init_var))
    resid = x - model.transition_mean(np.asarray(x_prev, dtype=np.float64))
    return float(models._gauss_logpdf(resid, model.q))


def log_g(model, x, y, t: int = 0) -> float:
    """Emission log-density; NaN entries of y are missing and contribute 0."""
    y = np.asarray(y, dtype=np.float64)
    valid = ~np.isnan(y)
    if not np.any(valid):
        return 0.0
    return float(model.log_g_rows(np.asarray(x, dtype=np.float64)[None], y, valid)[0])


def grad_theta_log_joint_pair(model, x_prev, x, y, t: int) -> np.ndarray:
    """Gradient of log_m(x_prev, x, t) + log_g(x, y, t) in the flat theta."""
    x = np.asarray(x, dtype=np.float64)[None]
    grad = models.grad_theta_emission_batch(model, x, y)[0]
    if t > 0:
        x_prev = np.asarray(x_prev, dtype=np.float64)[None]
        grad += models.grad_theta_transition_pairs(model, x_prev, x)[0]
    return grad


# ---------------------------------------------------------------------------
# One point of the variational family
# ---------------------------------------------------------------------------


def marginal_raw(params: var.AmortizerParams, state: var.AmortizerState) -> np.ndarray:
    return var.mlp.forward(params.head_marginal, state.a)


def marginal_params(params: var.AmortizerParams, state: var.AmortizerState) -> GaussianNatural:
    """eta_t from the recurrent state; negative definite by construction."""
    eta1, eta2 = var.raw_to_natural(marginal_raw(params, state), params.d_x, var.MARGINAL_EPS)
    return GaussianNatural(eta1=eta1, eta2=eta2)


def potential_params(params: var.AmortizerParams, x_t: np.ndarray) -> GaussianNatural:
    """eta~_t(x_t); the quadratic part is only negative semidefinite."""
    raw = var.mlp.forward(params.head_potential, np.asarray(x_t, dtype=np.float64))
    eta1, eta2 = var.raw_to_natural(raw, params.d_x, 0.0, diag_softplus=False)
    return GaussianNatural(eta1=eta1, eta2=eta2)


def backward_kernel(params: var.AmortizerParams, eta_prev: GaussianNatural,
                    x_t: np.ndarray) -> GaussianNatural:
    """Natural parameters of q_{t-1|t}(x_t, .) = eta_prev + potential(x_t)."""
    return add(eta_prev, potential_params(params, x_t))


def eta_at(pot: var.AffinePotential, x_t: np.ndarray) -> GaussianNatural:
    """The affine potential at one conditioning state."""
    return GaussianNatural(eta1=pot.lin @ x_t + pot.const, eta2=pot.eta2)


def validate_cloud(cloud: ParticleCloud, eta: GaussianNatural, tol: float = 1e-12) -> None:
    """Raise unless the cloud's cached log q equals the log-density under ``eta``."""
    ref = gaussian.log_density_cross(eta.eta1[None], eta.eta2[None], cloud.xi)[0]
    if not np.allclose(ref, cloud.log_q_marginal, atol=tol, rtol=0):
        raise NonFiniteStatistic("cached marginal log-densities are stale")


# ---------------------------------------------------------------------------
# Linear-Gaussian smoothing: the RTS smoother, the exact backward kernels
# and a dense joint-Gaussian brute force for tiny problems
# ---------------------------------------------------------------------------


@dataclass
class SmootherOutput:
    smooth_mean: np.ndarray
    smooth_cov: np.ndarray
    backward_gain: np.ndarray  # (T, d, d): J_t for t = 0..T-1
    pairwise_cov: np.ndarray   # (T, d, d): Cov(X_t, X_{t+1} | Y_{0:T})


def kalman_smoother(model: LinearGaussianSSM, filt: FilterOutput) -> SmootherOutput:
    """RTS backward pass on filter output."""
    t_len, d = filt.filt_mean.shape
    sm = np.empty_like(filt.filt_mean)
    sc = np.empty_like(filt.filt_cov)
    gains = np.empty((max(t_len - 1, 0), d, d))
    pair = np.empty((max(t_len - 1, 0), d, d))
    sm[-1], sc[-1] = filt.filt_mean[-1], filt.filt_cov[-1]
    for t in range(t_len - 2, -1, -1):
        gain = filt.filt_cov[t] @ model.F.T @ np.linalg.inv(filt.pred_cov[t + 1])
        gains[t] = gain
        sm[t] = filt.filt_mean[t] + gain @ (sm[t + 1] - filt.pred_mean[t + 1])
        sc[t] = oracle._sym(filt.filt_cov[t]
                            + gain @ (sc[t + 1] - filt.pred_cov[t + 1]) @ gain.T)
        pair[t] = gain @ sc[t + 1]
    return SmootherOutput(smooth_mean=sm, smooth_cov=sc, backward_gain=gains,
                          pairwise_cov=pair)


def exact_backward_kernel(model: LinearGaussianSSM, filt: FilterOutput, t: int):
    """Affine-Gaussian law of X_{t-1} given X_t and Y_{0:t-1}.

    Returns (A, b, cov) with X_{t-1} | X_t = x ~ N(A x + b, cov).
    """
    if t < 1:
        raise ValueError("backward kernel defined for t >= 1")
    p_prev = filt.filt_cov[t - 1]
    a = p_prev @ model.F.T @ np.linalg.inv(filt.pred_cov[t])
    b = filt.filt_mean[t - 1] - a @ filt.pred_mean[t]
    cov = oracle._sym(p_prev - a @ filt.pred_cov[t] @ a.T)
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NotSPD("backward kernel covariance lost positive definiteness") from exc
    return a, b, cov


@dataclass
class DenseJoint:
    mean_x: np.ndarray   # ((T+1) d_x,)
    cov_x: np.ndarray
    mean_y: np.ndarray
    cov_y: np.ndarray
    cov_xy: np.ndarray


def dense_joint(model: LinearGaussianSSM, t_len: int) -> DenseJoint:
    """Joint Gaussian of (X_{0:T}, Y_{0:T}); state block capped at dim 12."""
    d, dy = model.d_x, model.d_y
    if t_len * d > 12:
        raise ValueError("dense oracle capped at state dimension 12")
    means = [model.mu0.copy()]
    margs = [model.q0_var * np.eye(d)]
    for _ in range(1, t_len):
        means.append(model.F @ means[-1])
        margs.append(oracle._sym(model.F @ margs[-1] @ model.F.T + model.q_var * np.eye(d)))
    cov_x = np.zeros((t_len * d, t_len * d))
    for s in range(t_len):
        block = margs[s]
        cov_x[s * d:(s + 1) * d, s * d:(s + 1) * d] = block
        prop = block
        for t in range(s + 1, t_len):
            prop = model.F @ prop  # Cov(x_t, x_s) = F^(t-s) Var(x_s)
            cov_x[t * d:(t + 1) * d, s * d:(s + 1) * d] = prop
            cov_x[s * d:(s + 1) * d, t * d:(t + 1) * d] = prop.T
    g_blk = np.kron(np.eye(t_len), model.G)
    mean_x = np.concatenate(means)
    mean_y = g_blk @ mean_x
    cov_y = oracle._sym(g_blk @ cov_x @ g_blk.T + model.r_var * np.eye(t_len * dy))
    cov_xy = cov_x @ g_blk.T
    return DenseJoint(mean_x=mean_x, cov_x=cov_x, mean_y=mean_y, cov_y=cov_y,
                      cov_xy=cov_xy)


def dense_loglik(model: LinearGaussianSSM, ys: np.ndarray) -> float:
    ys = np.asarray(ys, dtype=np.float64)
    joint = dense_joint(model, ys.shape[0])
    return oracle._gauss_logpdf(ys.ravel() - joint.mean_y, joint.cov_y)


def dense_smoother_moments(model: LinearGaussianSSM, ys: np.ndarray):
    """Posterior mean/cov of the state block given all observations."""
    ys = np.asarray(ys, dtype=np.float64)
    joint = dense_joint(model, ys.shape[0])
    sol = np.linalg.solve(joint.cov_y, ys.ravel() - joint.mean_y)
    mean = joint.mean_x + joint.cov_xy @ sol
    cov = joint.cov_x - joint.cov_xy @ np.linalg.solve(joint.cov_y, joint.cov_xy.T)
    return mean, oracle._sym(cov)


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------


class NonFiniteFunctionValue(StreamviError):
    """A function probed by finite differences returned NaN or infinity."""


@dataclass
class FDReport:
    passed: bool
    max_rel_err: float
    worst_index: int
    fd: np.ndarray


def kernel_phi_rows(runner, u1: np.ndarray, u2: np.ndarray, pot_raw: np.ndarray,
                    pot_acts) -> np.ndarray:
    """The phi rows that ``runner.kernel_phi_contract`` adds to g for the
    kernel cotangents (u1, u2), in a new float64 array of shape (n, dim_phi)."""
    n = u1.shape[0]
    cols = runner.pot_columns
    pot = runner.potential_phi_rows(u1, u2, pot_raw, pot_acts,
                                    out=np.empty((n, cols.stop - cols.start)))
    return runner.kernel_phi_contract(u1, u2, pot, out=np.zeros((n, runner.dim_phi)))


def weight_matrix(cloud_prev: ParticleCloud, kernel: KernelBatch, config: EngineConfig,
                  stats_prev: np.ndarray | None = None) -> WeightMatrix:
    """All N_new x N_prev weights, written block by block into one array;
    ``stats_prev`` as in ``block_weights``, built here if not given."""
    if stats_prev is None:
        stats_prev = gaussian.suff_stat_rows(cloud_prev.xi)
    w = np.empty((kernel.eta1.shape[0], cloud_prev.n))
    for rows in engine.row_blocks(*w.shape):
        engine.block_weights(cloud_prev, kernel, config, rows, stats_prev, out=w[rows])
    return WeightMatrix(w=w)


def categorical_draws(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws from the rows of ``w`` at the uniforms in the same
    rows of ``u``: cumsum and searchsorted row by row."""
    idx = np.empty(u.shape, dtype=np.int64)
    for i in range(w.shape[0]):
        cdf = np.cumsum(w[i])
        cdf[-1] = 1.0
        idx[i] = np.searchsorted(cdf, u[i], side="right")
    return np.minimum(idx, w.shape[1] - 1)


def grad_theta_fd(f, model, h: float = 1e-6) -> np.ndarray:
    """Central differences in the flat theta of ``f(model)``, an array of
    any shape; the gradient's axis comes last."""
    theta0 = models.get_theta(model)
    cols = []
    for k in range(theta0.size):
        step = np.zeros_like(theta0)
        step[k] = h
        cols.append((np.asarray(f(models.with_theta(model, theta0 + step)))
                     - np.asarray(f(models.with_theta(model, theta0 - step)))) / (2.0 * h))
    return np.stack(cols, axis=-1)


def fd_check(f, x0: np.ndarray, analytic: np.ndarray, h: float = 1e-6,
             tol: float = 1e-5) -> FDReport:
    """Central finite differences against an analytic gradient.

    Relative errors use denominator max(1, |analytic_i|); the report
    passes iff the worst component error is <= tol.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    x0 = np.asarray(x0, dtype=np.float64)
    analytic = np.asarray(analytic, dtype=np.float64)
    fd = np.empty_like(analytic)
    for i in range(x0.size):
        xp = x0.copy(); xp[i] += h
        xm = x0.copy(); xm[i] -= h
        fp, fm = f(xp), f(xm)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NonFiniteFunctionValue(f"f not finite at perturbation of index {i}")
        fd[i] = (fp - fm) / (2.0 * h)
    rel = np.abs(fd - analytic) / np.maximum(1.0, np.abs(analytic))
    worst = int(np.argmax(rel)) if rel.size else 0
    max_rel = float(rel[worst]) if rel.size else 0.0
    return FDReport(passed=max_rel <= tol, max_rel_err=max_rel, worst_index=worst, fd=fd)
