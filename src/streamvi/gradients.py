"""Phi-gradients of the variational marginals, batched over particles.

The route exploits the natural-parameter bottleneck: scores w.r.t.
natural parameters are closed form, and only the Jacobian of the raw
head outputs w.r.t. the weights is backpropagated, once per step
(``marginal_chain``).  The chain also folds the natural-to-raw pullback
into that Jacobian, giving the Jacobian of [eta1, vec eta2].  A
cotangent is contracted in natural-parameter space first (d + d^2
numbers per row, or a single row for a weighted sum of scores) and
widened to dim_phi by one product, straight into the caller's array
(``marginal_cotangent_phi``).

``marginal_scores_phi`` expands every score row.  No step calls it; it
stays as the reference that the tests check the contracted forms
against, and the benchmark's tracer wraps it by name.

Truncated backpropagation re-executes the last ``window`` recurrent
updates from a boundary state treated as a constant; with a window of
zero, gradients flow only through the heads, so the recurrent weight
slices are exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mlp, variational as var
from .gaussian import mean_params_batch


@dataclass
class MarginalChain:
    """Re-executed truncated chain with the raw-output Jacobian."""

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
    return MarginalChain(raw=raw, eta1=eta1, eta2=eta2, jac=jac, nat_jac=nat_jac)


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
                           out: np.ndarray | None = None) -> np.ndarray:
    """Add per-row natural-parameter cotangents, pushed through the chain, to ``out``.

    u1 (n, d) and u2 (n, d, d) are gradients w.r.t. the chain's natural
    parameters; one product [u1, vec u2] @ nat_jac widens them to phi.
    The product runs in the dtype of ``out``, else float64, both small
    factors cast to it.  Returns ``out``, or without it the product.
    """
    if chain.nat_jac is None:
        raise ValueError("chain was built without a Jacobian")
    n = u1.shape[0]
    dtype = (out if out is not None else chain.nat_jac).dtype
    cot = np.concatenate([u1, u2.reshape(n, -1)], axis=1, dtype=dtype)
    product = np.matmul(cot, chain.nat_jac.astype(dtype, copy=False))
    if out is None:
        return product
    out += product
    return out
