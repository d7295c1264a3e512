"""Minimal array-valued reverse-mode differentiation.

Nodes hold numpy arrays; each records its parents and a local
vector-Jacobian product.  The tape is append-only, so parents always
precede children and a single reverse sweep from a scalar (or seeded
vector) output accumulates cotangents for every requested leaf.

A tape is rebuilt for every quantity differentiated; nothing persists
across time steps, which keeps streaming memory bounded.  Matrix
factorizations (Cholesky, triangular solves) are primitives with their
own reverse rules rather than elementwise compositions; the rules are
validated by finite differences in the test suite.
"""

from __future__ import annotations

import numpy as np


class Node:
    __slots__ = ("tape", "idx", "value")

    def __init__(self, tape: "Tape", idx: int, value: np.ndarray):
        self.tape = tape
        self.idx = idx
        self.value = value

    # convenience operators; constants are auto-wrapped
    def __add__(self, other):
        return add(self, self.tape.wrap(other))

    def __radd__(self, other):
        return add(self.tape.wrap(other), self)

    def __sub__(self, other):
        return sub(self, self.tape.wrap(other))

    def __rsub__(self, other):
        return sub(self.tape.wrap(other), self)

    def __mul__(self, other):
        return mul(self, self.tape.wrap(other))

    def __rmul__(self, other):
        return mul(self.tape.wrap(other), self)

    def __neg__(self):
        return scale(self, -1.0)

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


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


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


def sub(a: Node, b: Node) -> Node:
    return a.tape.push(a.value - b.value, (a, b),
                       lambda c: (_unbroadcast(c, a.value.shape),
                                  _unbroadcast(-c, b.value.shape)))


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


def exp(a: Node) -> Node:
    out = np.exp(a.value)
    return a.tape.push(out, (a,), lambda c: (c * out,))


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


def diag(a: Node) -> Node:
    return a.tape.push(np.diag(a.value), (a,),
                       lambda c: (np.diag(c) if c.ndim == 1 else np.diag(np.diag(c)),))


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
    from scipy.linalg import solve_triangular  # only the tape path needs scipy

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
    from scipy.linalg import solve_triangular  # only the tape path needs scipy

    z = solve_triangular(low.value, y.value, lower=True)

    def vjp(zbar):
        gy = solve_triangular(low.value, zbar, lower=True, trans="T")
        gl = -np.tril(np.outer(gy, z))
        return (gl, gy)

    return low.tape.push(z, (low, y), vjp)
