"""Amortized backward-factorized variational family.

A deterministic recurrent state a_t = tanh(W a_{t-1} + U y_t + b) drives
every marginal: a head network maps a_t to raw natural-parameter
coordinates, and a second head maps a candidate state x_t to the raw
coordinates of a potential.  Backward kernels are obtained by adding the
potential's natural parameters to the previous marginal's, so their
densities and normalizers stay closed form.

Raw coordinates (v, l) of length d + d(d+1)/2 map to natural parameters
via eta1 = v and eta2 = -1/2 L L' - eps I, where L is lower triangular
with softplus-transformed diagonal.  Marginals use eps = 1e-6 so they
are strictly negative definite by construction; potentials use eps = 0
(validity is only required for the sum with a marginal).

The engine reads the marginals through ``gradients.marginal_chain`` and
the potentials through ``potential_params_batch``; the one-point forms
(``marginal_params``, ``potential_params``, ``backward_kernel``) are in
``tests/reference.py``.  The module also houses the projection of the
recurrent weight matrix onto a spectral-norm ball, and the exact
conjugate family of the linear-Gaussian model.  Clamping of
log-potentials into [log eps-, log eps+] happens in the engine, on whole
rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import mlp
from .errors import ModelMismatch
from .gaussian import GaussianNatural
from .layout import ParamLayout
from .models import LinearGaussianSSM

MARGINAL_EPS = 1e-6


def raw_dim(d: int) -> int:
    return d + d * (d + 1) // 2


# ---------------------------------------------------------------------------
# Parameters and state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AmortizerParams:
    W: np.ndarray                 # (h, h) recurrent
    U: np.ndarray                 # (h, d_y) input
    b: np.ndarray                 # (h,)
    head_marginal: mlp.MLPParams  # h -> raw_dim(d_x)
    head_potential: mlp.MLPParams  # d_x -> raw_dim(d_x)
    d_x: int

    @property
    def hidden(self) -> int:
        return self.W.shape[0]


@dataclass
class AmortizerState:
    a: np.ndarray


def init_amortizer(rng: np.random.Generator, d_x: int, d_y: int, hidden: int = 32,
                   head_hidden: tuple[int, ...] = (32,),
                   pot_hidden: tuple[int, ...] = (32,),
                   scale: float = 0.5) -> AmortizerParams:
    """Random initialization; the recurrent matrix starts inside the unit ball."""
    h = hidden
    w = rng.standard_normal((h, h)) * (scale / np.sqrt(h))
    u = rng.standard_normal((h, d_y)) * (scale / np.sqrt(d_y))
    p = raw_dim(d_x)
    head_m = mlp.init_mlp(rng, [h, *head_hidden, p], scale=scale)
    head_p = mlp.init_mlp(rng, [d_x, *pot_hidden, p], scale=scale)
    return AmortizerParams(W=w, U=u, b=np.zeros(h), head_marginal=head_m,
                           head_potential=head_p, d_x=d_x)


def var_layout(params: AmortizerParams) -> ParamLayout:
    return ParamLayout.build([
        ("amortizer.W", params.W.shape),
        ("amortizer.U", params.U.shape),
        ("amortizer.b", params.b.shape),
        ("head_marginal", (params.head_marginal.n_params,)),
        ("head_potential", (params.head_potential.n_params,)),
    ])


def get_phi(params: AmortizerParams) -> np.ndarray:
    lay = var_layout(params)
    return lay.pack({
        "amortizer.W": params.W,
        "amortizer.U": params.U,
        "amortizer.b": params.b,
        "head_marginal": params.head_marginal.pack(),
        "head_potential": params.head_potential.pack(),
    })


def with_phi(params: AmortizerParams, flat: np.ndarray) -> AmortizerParams:
    views = var_layout(params).views(flat)
    return replace(
        params,
        W=views["amortizer.W"].copy(),
        U=views["amortizer.U"].copy(),
        b=views["amortizer.b"].copy(),
        head_marginal=params.head_marginal.unpack(views["head_marginal"]),
        head_potential=params.head_potential.unpack(views["head_potential"]),
    )


# ---------------------------------------------------------------------------
# Raw-coordinate transform
# ---------------------------------------------------------------------------


def _softplus(x):
    return np.logaddexp(0.0, x)


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


@functools.lru_cache(maxsize=None)
def _tril(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only ``np.tril_indices(d)`` rows and cols, and the positions of
    the diagonal among them; built once per dimension."""
    rows, cols = np.tril_indices(d)
    diag = np.nonzero(rows == cols)[0]
    for a in (rows, cols, diag):
        a.flags.writeable = False
    return rows, cols, diag


def raw_to_natural(raw: np.ndarray, d: int, eps: float, diag_softplus: bool = True):
    """Map raw coordinates (eventually batched) to (eta1, eta2).

    raw may be (p,) or (n, p) with p = raw_dim(d); eta2 comes back as
    (d, d) or (n, d, d) and equals -1/2 L L' - eps I.  Marginals pass
    ``diag_softplus=True`` (strictly positive diagonal); potentials pass
    False so that zero raw outputs give the identity potential exactly
    (L L' is positive semidefinite for any L, so validity is free).
    """
    raw = np.asarray(raw, dtype=np.float64)
    single = raw.ndim == 1
    r = raw[None, :] if single else raw
    n = r.shape[0]
    eta1 = r[:, :d].copy()
    l_entries = r[:, d:].copy()
    rows, cols, diag_pos = _tril(d)
    if diag_softplus:
        l_entries[:, diag_pos] = _softplus(l_entries[:, diag_pos])
    low = np.zeros((n, d, d))
    low[:, rows, cols] = l_entries
    eta2 = -0.5 * np.einsum("nij,nkj->nik", low, low)
    if eps:
        eta2 -= eps * np.eye(d)
    if single:
        return eta1[0], eta2[0]
    return eta1, eta2


def natural_cotangent_to_raw(raw: np.ndarray, cot_eta1: np.ndarray,
                             cot_eta2: np.ndarray, d: int,
                             diag_softplus: bool = True) -> np.ndarray:
    """Pull cotangents in (eta1, eta2) back to raw coordinates.

    raw (n, p), cot_eta1 (n, d) and cot_eta2 (n, d, d) give (n, p).
    cot_eta2 is the gradient w.r.t. the full dense eta2; it is symmetrized
    internally.
    """
    r = np.asarray(raw, dtype=np.float64)
    c2 = np.asarray(cot_eta2)
    n = r.shape[0]
    rows, cols, diag_pos = _tril(d)
    l_entries = r[:, d:].copy()
    if diag_softplus:
        l_entries[:, diag_pos] = _softplus(l_entries[:, diag_pos])
    low = np.zeros((n, d, d))
    low[:, rows, cols] = l_entries
    sym = 0.5 * (c2 + np.swapaxes(c2, -1, -2))
    low_bar = -np.einsum("nij,njk->nik", sym, low)
    l_bar = low_bar[:, rows, cols]
    if diag_softplus:
        l_bar[:, diag_pos] *= _sigmoid(r[:, d:][:, diag_pos])
    return np.concatenate([cot_eta1, l_bar], axis=1)


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------


def advance(params: AmortizerParams, state: AmortizerState, y: np.ndarray) -> AmortizerState:
    """One deterministic recurrent update a' = tanh(W a + U y + b)."""
    return AmortizerState(a=np.tanh(params.W @ state.a + params.U @ y + params.b))


def potential_params_batch(params: AmortizerParams, xs: np.ndarray):
    """Batched potentials with forward caches for later backprop.

    Returns (eta1 (n,d), eta2 (n,d,d), raw (n,p), activations).
    """
    raw, acts = mlp.forward_cached(params.head_potential, xs)
    eta1, eta2 = raw_to_natural(raw, params.d_x, 0.0, diag_softplus=False)
    return eta1, eta2, raw, acts


# ---------------------------------------------------------------------------
# Spectral-norm projection
# ---------------------------------------------------------------------------


def spectral_norm(w: np.ndarray, iters: int = 100, tol: float = 1e-10) -> float:
    """Largest singular value via power iteration on W'W."""
    n = w.shape[0]
    v = np.full(n, 1.0 / np.sqrt(n))
    sigma = 0.0
    for _ in range(iters):
        wv = w @ v
        bv = w.T @ wv
        norm = np.linalg.norm(bv)
        if norm == 0.0:
            return 0.0
        v = bv / norm
        new_sigma = np.linalg.norm(w @ v)
        if sigma > 0.0 and abs(new_sigma - sigma) < tol * sigma:
            sigma = new_sigma
            break
        sigma = new_sigma
    return float(sigma)


def spectral_project(w: np.ndarray, rho_max: float) -> np.ndarray:
    """Rescale W onto the spectral-norm ball of radius rho_max.

    Feasible matrices are returned unchanged (exact idempotence); the
    feasibility test carries a relative slack of 1e-12 so re-measuring a
    just-projected matrix never triggers a second rescale.
    """
    if not 0.0 < rho_max:
        raise ValueError("rho_max must be positive")
    sigma = spectral_norm(w)
    if sigma <= rho_max * (1.0 + 1e-12):
        return w
    return w * (rho_max / sigma)


# ---------------------------------------------------------------------------
# Exact conjugate family for the linear-Gaussian model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffinePotential:
    """Potential whose eta1 is affine in the conditioning state.

    eta1(x_t) = lin @ x_t + const; eta2 is constant.  Together with a
    Gaussian marginal this yields an affine-Gaussian backward kernel,
    which is what makes closed-form expectations possible downstream.
    """

    lin: np.ndarray
    const: np.ndarray
    eta2: np.ndarray

    def eta_batch(self, xs: np.ndarray):
        eta1 = xs @ self.lin.T + self.const
        eta2 = np.broadcast_to(self.eta2, (xs.shape[0],) + self.eta2.shape)
        return eta1, eta2


@dataclass
class ConjugateSequence:
    """Per-step marginals and potentials mirroring the smoothing recursions."""

    etas: list[GaussianNatural]          # t = 0..T
    potentials: list[AffinePotential]    # index s-1 holds the potential for step s


def exact_conjugate_mode(lgssm, filter_output) -> ConjugateSequence:
    """Variational family that reproduces the exact backward decomposition.

    The marginal at t encodes the filtering distribution from
    ``filter_output``; the potential at t encodes log m_t(., x_t) up to
    terms constant in the previous state, so adding it to the previous
    marginal yields the exact backward kernel.
    """
    if not isinstance(lgssm, LinearGaussianSSM):
        raise ModelMismatch("exact conjugate mode requires a LinearGaussianSSM")
    etas = []
    for mean, cov in zip(filter_output.filt_mean, filter_output.filt_cov):
        prec = np.linalg.inv(cov)
        prec = 0.5 * (prec + prec.T)
        etas.append(GaussianNatural(eta1=prec @ mean, eta2=-0.5 * prec))
    lin = lgssm.F.T / lgssm.q_var
    eta2 = -0.5 * (lgssm.F.T @ lgssm.F) / lgssm.q_var
    pot = AffinePotential(lin=lin, const=np.zeros(lgssm.d_x), eta2=eta2)
    return ConjugateSequence(etas=etas, potentials=[pot] * (len(etas) - 1))
