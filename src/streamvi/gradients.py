"""Gradients of the scalar quantities the estimators need.

Two routes to the same numbers:

- a tape-backed reference path (``grad_phi_log_marginal``,
  ``grad_phi_log_backward``) that differentiates one log-density at a
  time through the truncated amortizer chain; and
- a batched fast path (``marginal_chain`` + ``marginal_cotangent_phi``)
  that exploits the natural-parameter bottleneck: scores w.r.t. natural
  parameters are closed form, and only the Jacobian of the raw head
  outputs w.r.t. the weights is backpropagated, once per step.  The
  chain also folds the natural-to-raw pullback into that Jacobian,
  giving the Jacobian of [eta1, vec eta2].  A cotangent is contracted in
  natural-parameter space first (d + d^2 numbers per row, or a single
  row for a weighted sum of scores) and widened to dim_phi by one
  product, straight into the caller's array.  ``marginal_scores_phi``
  expands every score row; it is kept as the reference that the tests
  check the contracted forms against.

Truncated backpropagation re-executes the last ``truncation_window``
recurrent updates from a boundary state treated as a constant; with a
window of zero, gradients flow only through the heads, so the recurrent
weight slices are exactly zero.

``fd_check`` is the independent central-difference verifier used
throughout the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mlp, tape as tp, variational as var
from .errors import NonFiniteFunctionValue
from .gaussian import LOG_2PI, mean_params_batch


@dataclass
class GradRequest:
    truncation_window: int = 2

    def __post_init__(self):
        if self.truncation_window < 0:
            raise ValueError("truncation_window must be >= 0")


@dataclass
class FDReport:
    passed: bool
    max_rel_err: float
    worst_index: int
    fd: np.ndarray


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


# ---------------------------------------------------------------------------
# Tape-backed reference path
# ---------------------------------------------------------------------------


def _phi_leaves(t: tp.Tape, params: var.AmortizerParams):
    """Leaf nodes for every weight block, in var_layout order."""
    leaves = [t.leaf(params.W), t.leaf(params.U), t.leaf(params.b)]
    hm = [(t.leaf(w), t.leaf(b)) for w, b in params.head_marginal.layers]
    hp = [(t.leaf(w), t.leaf(b)) for w, b in params.head_potential.layers]
    for w, b in hm + hp:
        leaves.extend([w, b])
    return leaves, hm, hp


def _mlp_nodes(layer_nodes, x_node, activation: str):
    if activation != "tanh":
        raise NotImplementedError("tape path supports tanh hidden layers only")
    h = x_node
    last = len(layer_nodes) - 1
    for i, (w, b) in enumerate(layer_nodes):
        z = tp.matmul(w, h) + b
        h = z if i == last else tp.tanh(z)
    return h


def _chain_nodes(t: tp.Tape, w, u, b, a_boundary: np.ndarray, ys):
    a = t.leaf(a_boundary)  # constant: the state beyond the window
    for y in ys:
        a = tp.tanh(tp.matmul(w, a) + tp.matmul(u, t.leaf(np.asarray(y))) + b)
    return a


def _natural_nodes(t: tp.Tape, raw_node, d: int, eps: float, diag_softplus: bool = True):
    """(eta1, P) nodes from raw coordinates, with P = -2 eta2 = L L' + 2 eps I."""
    rows, cols = np.tril_indices(d)
    diag_sel = np.nonzero(rows == cols)[0]
    off_sel = np.nonzero(rows != cols)[0]
    v = tp.index(raw_node, slice(0, d))
    l = tp.index(raw_node, slice(d, None))
    diag_entries = tp.index(l, diag_sel)
    if diag_softplus:
        diag_entries = tp.softplus(diag_entries)
    low = tp.scatter_matrix(diag_entries, rows[diag_sel], cols[diag_sel], d)
    if off_sel.size:
        low = low + tp.scatter_matrix(tp.index(l, off_sel), rows[off_sel], cols[off_sel], d)
    prec = tp.matmul(low, tp.transpose(low))
    if eps:
        prec = prec + t.leaf(2.0 * eps * np.eye(d))
    return v, prec


def _log_density_nodes(t: tp.Tape, eta1_node, prec_node, x: np.ndarray):
    """log N(x; eta) from (eta1, P) nodes, x constant."""
    d = x.shape[0]
    x_node = t.leaf(x)
    chol = tp.cholesky(prec_node)
    half = tp.tri_solve(chol, eta1_node)
    logdet_half = tp.total(tp.log(tp.extract_diag(chol)))
    lin = tp.dot(eta1_node, x_node)
    quad = tp.dot(x_node, tp.matmul(prec_node, x_node))
    return (lin + tp.scale(quad, -0.5) + tp.scale(tp.dot(half, half), -0.5)
            + logdet_half + t.leaf(np.asarray(-0.5 * d * LOG_2PI)))


def _flat_from_leaf_grads(params: var.AmortizerParams, grads: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([g.ravel() for g in grads])


def log_marginal_truncated(params: var.AmortizerParams, a_boundary: np.ndarray,
                           ys: list, x: np.ndarray) -> float:
    """Value of the truncated-window marginal log-density (FD target)."""
    state = var.AmortizerState(a=np.asarray(a_boundary, dtype=np.float64))
    for y in ys:
        state = var.advance(params, state, np.asarray(y))
    from .gaussian import log_density
    return log_density(var.marginal_params(params, state), x)


def grad_phi_log_marginal(params: var.AmortizerParams, a_boundary: np.ndarray,
                          ys: list, x: np.ndarray, req: GradRequest) -> np.ndarray:
    """d log q_t(x) / d phi through the last ``truncation_window`` updates.

    ``ys`` must hold the observations driving those updates (possibly
    fewer near the start of the stream); the state before the window is
    a constant.
    """
    ys = list(ys)[-req.truncation_window:] if req.truncation_window else []
    t = tp.Tape()
    leaves, hm, hp = _phi_leaves(t, params)
    a = _chain_nodes(t, leaves[0], leaves[1], leaves[2], np.asarray(a_boundary), ys)
    raw = _mlp_nodes(hm, a, params.head_marginal.activation)
    eta1, prec = _natural_nodes(t, raw, params.d_x, var.MARGINAL_EPS)
    out = _log_density_nodes(t, eta1, prec, np.asarray(x, dtype=np.float64))
    return _flat_from_leaf_grads(params, t.gradient(out, leaves))


def log_backward_truncated(params: var.AmortizerParams, a_boundary: np.ndarray,
                           ys: list, x_t: np.ndarray, x_prev: np.ndarray) -> float:
    """Value of the truncated backward-kernel log-density (FD target)."""
    state = var.AmortizerState(a=np.asarray(a_boundary, dtype=np.float64))
    for y in ys:
        state = var.advance(params, state, np.asarray(y))
    eta_prev = var.marginal_params(params, state)
    from .gaussian import log_density
    return log_density(var.backward_kernel(params, eta_prev, x_t), x_prev)


def grad_phi_log_backward(params: var.AmortizerParams, a_boundary: np.ndarray,
                          ys: list, x_t: np.ndarray, x_prev: np.ndarray,
                          req: GradRequest) -> np.ndarray:
    """d log q_{t-1|t}(x_t, x_prev) / d phi.

    The previous marginal's parameters keep their dependence on phi
    through the truncated window ending at a_{t-1}; the potential's
    dependence flows through its head at x_t.
    """
    ys = list(ys)[-req.truncation_window:] if req.truncation_window else []
    t = tp.Tape()
    leaves, hm, hp = _phi_leaves(t, params)
    a = _chain_nodes(t, leaves[0], leaves[1], leaves[2], np.asarray(a_boundary), ys)
    raw_m = _mlp_nodes(hm, a, params.head_marginal.activation)
    eta1_m, prec_m = _natural_nodes(t, raw_m, params.d_x, var.MARGINAL_EPS)
    raw_p = _mlp_nodes(hp, t.leaf(np.asarray(x_t, dtype=np.float64)),
                       params.head_potential.activation)
    eta1_p, prec_p = _natural_nodes(t, raw_p, params.d_x, 0.0, diag_softplus=False)
    out = _log_density_nodes(t, eta1_m + eta1_p, prec_m + prec_p,
                             np.asarray(x_prev, dtype=np.float64))
    return _flat_from_leaf_grads(params, t.gradient(out, leaves))


# ---------------------------------------------------------------------------
# Fast batched path
# ---------------------------------------------------------------------------


@dataclass
class MarginalChain:
    """Re-executed truncated chain with the raw-output Jacobian."""

    a_boundary: np.ndarray
    ys: list
    a_t: np.ndarray
    raw: np.ndarray
    eta1: np.ndarray
    eta2: np.ndarray
    jac: np.ndarray | None       # (raw_dim, dim_phi), None when gradients are off
    nat_jac: np.ndarray | None   # (d + d*d, dim_phi), the same for [eta1, vec eta2]


def marginal_chain(params: var.AmortizerParams, a_boundary: np.ndarray, ys: list,
                   want_jacobian: bool = True) -> MarginalChain:
    """Forward the window and (optionally) backpropagate all raw-output rows.

    The chain does not reach the potential head, so the Jacobians'
    potential-head columns are zero.
    """
    a_boundary = np.asarray(a_boundary, dtype=np.float64)
    a_vals = [a_boundary]
    for y in ys:
        a_vals.append(np.tanh(params.W @ a_vals[-1] + params.U @ np.asarray(y) + params.b))
    a_t = a_vals[-1]
    raw, acts = mlp.forward_cached(params.head_marginal, a_t)
    eta1, eta2 = var.raw_to_natural(raw, params.d_x, var.MARGINAL_EPS)
    jac = None
    nat_jac = None
    if want_jacobian:
        p = raw.shape[0]
        j_head, delta = mlp.rows_backward(params.head_marginal, a_t, acts=acts)
        h = params.hidden
        g_w = np.zeros((p, h, h))
        g_u = np.zeros((p,) + params.U.shape)
        g_b = np.zeros((p, h))
        for s in range(len(ys) - 1, -1, -1):
            dz = delta * (1.0 - a_vals[s + 1] * a_vals[s + 1])[None, :]
            g_w += np.einsum("pi,j->pij", dz, a_vals[s])
            g_u += np.einsum("pi,j->pij", dz, np.asarray(ys[s], dtype=np.float64))
            g_b += dz
            delta = dz @ params.W
        jac = np.concatenate([
            g_w.reshape(p, -1), g_u.reshape(p, -1), g_b, j_head,
            np.zeros((p, params.head_potential.n_params)),
        ], axis=1)
        nat_jac = _natural_pullback(raw, params.d_x) @ jac
    return MarginalChain(a_boundary=a_boundary, ys=list(ys), a_t=a_t, raw=raw,
                         eta1=eta1, eta2=eta2, jac=jac, nat_jac=nat_jac)


def _natural_pullback(raw: np.ndarray, d: int) -> np.ndarray:
    """(d + d*d, raw_dim) matrix P with [c1, vec c2] @ P the raw cotangent.

    ``natural_cotangent_to_raw`` is linear in the cotangent at fixed raw,
    so its rows are the pullbacks of the unit cotangents.
    """
    basis = np.eye(d + d * d)
    raws = np.broadcast_to(raw, (basis.shape[0], raw.shape[0]))
    return var.natural_cotangent_to_raw(raws, basis[:, :d],
                                        basis[:, d:].reshape(-1, d, d), d)


def natural_scores(eta1: np.ndarray, eta2: np.ndarray, xs: np.ndarray):
    """Closed-form scores d log q(x)/d eta = T(x) - E[T(X)] for one eta."""
    mean, second = mean_params_batch(eta1[None], eta2[None])
    c1 = xs - mean[0]
    c2 = np.einsum("nd,ne->nde", xs, xs) - second[0]
    return c1, c2


def marginal_scores_phi(chain: MarginalChain, xs: np.ndarray) -> np.ndarray:
    """d log q_t(xs[i]) / d phi for every sample; shape (n, dim_phi)."""
    if chain.jac is None:
        raise ValueError("chain was built without a Jacobian")
    d = chain.eta1.shape[0]
    c1, c2 = natural_scores(chain.eta1, chain.eta2, xs)
    raws = np.broadcast_to(chain.raw, (xs.shape[0], chain.raw.shape[0]))
    raw_cots = var.natural_cotangent_to_raw(raws, c1, c2, d)
    return raw_cots @ chain.jac


def marginal_cotangent_phi(chain: MarginalChain, u1: np.ndarray, u2: np.ndarray,
                           out: np.ndarray | None = None,
                           work: np.ndarray | None = None) -> np.ndarray:
    """Add per-row natural-parameter cotangents, pushed through the chain, to ``out``.

    u1 (n, d) and u2 (n, d, d) are gradients w.r.t. the chain's natural
    parameters; one product [u1, vec u2] @ nat_jac widens them to phi.
    ``out`` (n, dim_phi) defaults to float64 zeros; the product runs in
    its dtype, both small factors cast to it.  ``work``, if given, is an
    (n, dim_phi) array of that dtype the product is written to first.
    Returns ``out``.
    """
    if chain.nat_jac is None:
        raise ValueError("chain was built without a Jacobian")
    n = u1.shape[0]
    if out is None:
        out = np.zeros((n, chain.nat_jac.shape[1]))
    cot = np.concatenate([u1, u2.reshape(n, -1)], axis=1, dtype=out.dtype)
    out += np.matmul(cot, chain.nat_jac.astype(out.dtype, copy=False), out=work)
    return out
