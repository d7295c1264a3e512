"""Small dense networks with hand-rolled backward passes.

Hidden layers use tanh; the last layer is linear.  Besides the
plain forward pass, the module provides the backward variants the
estimators need:

- ``vjp_params_batched``: per-sample parameter gradients for a batch of
  inputs with per-sample output cotangents (each row is an independent
  gradient, nothing is summed over the batch);
- ``vjp_params_cross_rows`` and ``vjp_params_cross_finish``: weighted
  sums of per-sample gradients under pairwise cotangents
  coeff[k, j] * (a[k] - b[j]), split around the caller's product with
  coeff.  The vjp is linear in the cotangent, so this takes out+1
  per-sample passes and one matrix product, with no (k, m, ...) tensor.
  ``vjp_params_cross`` is the two around one product; no step calls it,
  and it stays as a reference for the tests and the benchmark's tracer;
- ``rows_backward``: full Jacobian rows of the output w.r.t. parameters
  and input, for chaining into recurrent backpropagation.

Weights are stored (out, in); forward computes W x + b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch


@dataclass
class MLPParams:
    layers: list[tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        for i in range(len(self.layers) - 1):
            w_next = self.layers[i + 1][0]
            w_cur = self.layers[i][0]
            if w_next.shape[1] != w_cur.shape[0]:
                raise ValueError("consecutive layer shapes do not chain")

    @property
    def in_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1][0].shape[0]

    @property
    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in self.layers)

    def pack(self) -> np.ndarray:
        return np.concatenate([np.concatenate([w.ravel(), b]) for w, b in self.layers])

    def unpack(self, flat: np.ndarray) -> "MLPParams":
        if np.shape(flat) != (self.n_params,):
            raise DimensionMismatch(f"flat vector has shape {np.shape(flat)}, "
                                    f"expected ({self.n_params},)")
        layers = []
        off = 0
        for w, b in self.layers:
            nw, nb = w.size, b.size
            layers.append(
                (flat[off:off + nw].reshape(w.shape).copy(), flat[off + nw:off + nw + nb].copy())
            )
            off += nw + nb
        return MLPParams(layers=layers)


def init_mlp(rng: np.random.Generator, sizes: list[int], scale: float = 1.0) -> MLPParams:
    """Random init with std scale/sqrt(fan_in) weights and zero biases."""
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = rng.standard_normal((fan_out, fan_in)) * (scale / np.sqrt(fan_in))
        layers.append((w, np.zeros(fan_out)))
    return MLPParams(layers=layers)


def forward(params: MLPParams, x: np.ndarray) -> np.ndarray:
    """Apply the network; x may be (in,) or (n, in)."""
    out, _ = forward_cached(params, x)
    return out


def forward_cached(params: MLPParams, x: np.ndarray):
    """Forward pass returning (output, per-layer input activations)."""
    x = np.asarray(x, dtype=np.float64)
    acts = [x]
    h = x
    last = len(params.layers) - 1
    for i, (w, b) in enumerate(params.layers):
        z = h @ w.T + b
        h = z if i == last else np.tanh(z)
        acts.append(h)
    return h, acts


def vjp_params_batched(params: MLPParams, xs: np.ndarray | None, cots: np.ndarray,
                       acts=None, out: np.ndarray | None = None) -> np.ndarray:
    """Per-sample parameter gradients; xs (n, in), cots (n, out) -> (n, n_params).

    xs may be None when cached activations are supplied.  The rows are
    written into ``out`` if given, else into a new array; returns it.
    """
    return _vjp_params_batched(params, xs, cots, acts, out)


def _vjp_params_batched(params, xs, cots, acts, out=None):
    # the body of vjp_params_batched.  vjp_params_cross_rows calls it directly:
    # the engine builds those rows on its helper thread, where a wrapper put
    # around the public name (a profiler's, say) must not run
    if acts is None:
        _, acts = forward_cached(params, xs)
    n = cots.shape[0]
    if out is None:
        out = np.empty((n, params.n_params))
    delta = np.asarray(cots, dtype=np.float64)
    end = params.n_params
    for i in range(len(params.layers) - 1, -1, -1):
        w, b = params.layers[i]
        # layer i's columns [vec W_i, b_i] end where layer i + 1's begin
        start = end - w.size - b.size
        np.einsum("no,ni->noi", delta, acts[i],
                  out=out[:, start:start + w.size].reshape(n, *w.shape))
        out[:, start + w.size:end] = delta
        end = start
        if i > 0:
            # tanh' from the post-activation value
            delta = (delta @ w) * (1.0 - acts[i] * acts[i])
    return out


def vjp_params_cross_rows(params: MLPParams, xs: np.ndarray | None, b: np.ndarray,
                          acts=None) -> np.ndarray:
    """Per-sample gradient rows [J_0, ..., J_{out-1}, V]; shape (m, (out+1) n_params).

    J_o holds the per-sample gradients under the unit cotangent e_o and V
    those under the cotangents b (m, out), each written into its columns
    of the result.  A weighted sum ``coeff @`` these rows is what
    ``vjp_params_cross_finish`` reads; xs may be None when cached
    activations are supplied.
    """
    if acts is None:
        _, acts = forward_cached(params, xs)
    m, out = b.shape
    p = params.n_params
    rows = np.empty((m, (out + 1) * p))
    for o, e in enumerate(np.eye(out)):
        _vjp_params_batched(params, None, np.broadcast_to(e, (m, out)), acts,
                            out=rows[:, o * p:(o + 1) * p])
    _vjp_params_batched(params, None, b, acts, out=rows[:, out * p:])
    return rows


def vjp_params_cross_finish(a: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """sum_o a[k,o] (coeff @ J_o)[k] - (coeff @ V)[k] from sums = coeff @ rows.

    ``rows`` from ``vjp_params_cross_rows``; a (k, out), sums (k, (out+1) n_params).
    """
    k, out = a.shape
    sums = sums.reshape(k, out + 1, -1)
    return np.einsum("ko,kop->kp", a, sums[:, :out]) - sums[:, out]


def vjp_params_cross(params: MLPParams, xs: np.ndarray, coeff: np.ndarray,
                     a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Weighted sums of per-sample gradients under factorized cotangents.

    xs (m, in), coeff (k, m), a (k, out), b (m, out); row k of the result is
    sum_j coeff[k,j] d<a[k] - b[j], f(xs[j])>/d params, shape (k, n_params).
    By linearity in the cotangent that is
    sum_o a[k,o] (coeff @ J_o)[k] - (coeff @ V)[k], with J_o the per-sample
    gradients of output o and V those under the cotangents b: one product
    of ``coeff`` with ``vjp_params_cross_rows``, then
    ``vjp_params_cross_finish``.
    """
    return vjp_params_cross_finish(a, coeff @ vjp_params_cross_rows(params, xs, b))


def rows_backward(params: MLPParams, x: np.ndarray, acts=None):
    """All Jacobian rows at a single input.

    Returns (J_params, J_input) with shapes (out, n_params) and (out, in):
    the full Jacobians of the output w.r.t. the flat parameters and the
    input.  J_input is what chains into recurrent backpropagation.
    """
    x = np.asarray(x, dtype=np.float64)
    if acts is None:
        _, acts = forward_cached(params, x)
    out_dim = params.out_dim
    delta = np.eye(out_dim)
    grads = [None] * len(params.layers)
    for i in range(len(params.layers) - 1, -1, -1):
        w, _ = params.layers[i]
        gw = np.einsum("ko,i->koi", delta, acts[i])
        grads[i] = (gw.reshape(out_dim, -1), delta)
        delta = (delta @ w)
        if i > 0:
            delta = delta * (1.0 - acts[i] * acts[i])[None, :]
    j_params = np.concatenate([np.concatenate([gw, gb], axis=1) for gw, gb in grads], axis=1)
    return j_params, delta
