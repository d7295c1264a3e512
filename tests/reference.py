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
- ``kernel_phi_rows``, the kernel scores' phi rows of a step as one new
  float64 array, for the direct forms of the statistic updates.
- ``fd_check``, the independent central-difference verifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from streamvi import variational as var
from streamvi.errors import StreamviError
from streamvi.gaussian import LOG_2PI, log_density


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
        return add(self, self.tape.wrap(other))

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


def add(a: Node, b: Node) -> Node:
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
    return log_density(var.marginal_params(params, state), x)


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
    eta_prev = var.marginal_params(params, _advanced_state(params, a_boundary, ys))
    return log_density(var.backward_kernel(params, eta_prev, x_t), x_prev)


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
