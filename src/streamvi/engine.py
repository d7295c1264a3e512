"""Particle recursion engine.

Carries, per time step, N i.i.d. draws from the current variational
marginal together with three per-particle statistics: the cumulative
pair-term (h), its phi-gradient (g), and its theta-gradient (f).  New
statistics are self-normalized importance-sampling updates over the
previous particles, with weights proportional (within each row) to the
backward-kernel density over the previous proposal density, or, with
clipping on, to the clamped potential.

Two update routes:

- full weights: the exact N x N weighted sums, O(N^2) per step;
- backward sampling: each row's weighted sum replaced by an average over
  M index draws (shared across the three statistics), with the g-bracket
  centered by the freshly computed h statistic.  Indices come either
  from the explicit categorical rows, which needs the N x N weights, or
  by accept-reject: uniform proposals accepted against a per-row upper
  bound on the clamped potential, with a draw still pending after N
  proposals drawn exactly from its row.  Accept-reject costs O(N M)
  proposals per step when the bound is tight, and at worst N proposals
  plus one exact row per draw.

All weight arithmetic is in log space with per-row log-sum-exp
normalization.  Rows with zero total mass raise instead of silently
falling back to uniform.

On the full route every N x N quantity is one BLAS product of
per-particle feature rows.  The kernel cross (the kernel log-densities,
or with clipping the clamped potentials, never both) gives the weights
and is dropped; the pair bracket h_prev_j + log m(x_j -> x_i) + log g(x_i)
- log k_i(x_j) is one more product, dropped once the moments are taken.
So at most two N x N arrays, the weights and one of these, are live at
once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import gaussian, gradients, models, variational as var
from .errors import (BadBounds, ConflictingSetting, DegenerateRow, MissingBound,
                     NonFiniteStatistic)
from .gaussian import GaussianNatural


@dataclass
class EngineConfig:
    n_particles: int = 100
    method: str = "full"            # full | categorical | accept_reject
    m_backward: int = 2
    cv_grad_phi: bool = True        # center h in the final phi-gradient estimator
    cv_gstat: bool | None = None    # center the g-bracket; default on for sampled modes
    clip_enabled: bool = False
    log_eps_minus: float = -30.0
    log_eps_plus: float = 30.0
    truncation_window: int = 2
    compute_grads: bool = True

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        if self.m_backward < 1:
            raise ValueError("m_backward must be >= 1")
        if self.method not in ("full", "categorical", "accept_reject"):
            raise ValueError(f"unknown method {self.method!r}")
        if not self.log_eps_minus < self.log_eps_plus:
            raise BadBounds(f"need log_eps_minus < log_eps_plus, got "
                            f"({self.log_eps_minus}, {self.log_eps_plus})")

    @property
    def gstat_centered(self) -> bool:
        if self.cv_gstat is None:
            return self.method != "full"
        return self.cv_gstat


@dataclass
class ParticleCloud:
    xi: np.ndarray                     # (N, d)
    h_stat: np.ndarray                 # (N,)
    g_stat: np.ndarray | None          # (N, dim_phi)
    f_stat: np.ndarray | None          # (N, dim_theta)
    log_q_marginal: np.ndarray         # (N,) log q_t(xi_i) under the sampler
    eta: GaussianNatural               # marginal the particles were drawn from
    t: int
    chain: gradients.MarginalChain | None = None  # context for phi-scores

    @property
    def n(self) -> int:
        return self.xi.shape[0]

    def validate(self, tol: float = 1e-12) -> None:
        ref = gaussian.log_density_cross(self.eta.eta1[None], self.eta.eta2[None],
                                         self.xi)[0]
        if not np.allclose(ref, self.log_q_marginal, atol=tol, rtol=0):
            raise NonFiniteStatistic("cached marginal log-densities are stale")


@dataclass
class WeightMatrix:
    w: np.ndarray            # (N, N) rows sum to one


@dataclass
class EstimatorOutput:
    elbo: float
    grad_phi: np.ndarray | None
    grad_theta: np.ndarray | None


# ---------------------------------------------------------------------------
# Family runners: everything the engine needs from a variational family
# ---------------------------------------------------------------------------


class AmortizedRunner:
    """Streams the recurrent amortizer and exposes gradient hooks.

    The live state advances once per observation.  For each step the
    last ``window`` updates are re-executed under the current weights,
    which makes the sampled marginal, the kernel marginal, and their
    gradients all consistent values of one truncated function.
    """

    def __init__(self, params: var.AmortizerParams, window: int = 2,
                 compute_grads: bool = True):
        self.params = params
        self.window = window
        self.compute_grads = compute_grads
        self.layout = var.var_layout(params)
        self.a_live = np.zeros(params.hidden)
        self.hist: list[tuple[np.ndarray, np.ndarray]] = []  # (a_before, y) per step
        self.chain_cur: gradients.MarginalChain | None = None
        self.chain_prev: gradients.MarginalChain | None = None
        self._phi_work: np.ndarray | None = None

    @property
    def dim_phi(self) -> int:
        return self.layout.total

    def phi_work(self, n: int) -> np.ndarray:
        """An (n, dim_phi) work array reused across steps; no cloud holds it."""
        if self._phi_work is None or self._phi_work.shape[0] != n:
            self._phi_work = np.empty((n, self.dim_phi))
        return self._phi_work

    def set_params(self, params: var.AmortizerParams) -> None:
        self.params = params

    def begin_step(self, y_t: np.ndarray) -> None:
        y_t = np.asarray(y_t, dtype=np.float64)
        self.hist.append((self.a_live.copy(), y_t))
        if len(self.hist) > self.window + 1:
            self.hist.pop(0)
        self.a_live = var.advance(self.params, var.AmortizerState(a=self.a_live), y_t).a
        ys = [y for _, y in self.hist]
        boundaries = [a for a, _ in self.hist]
        k = min(self.window, len(self.hist)) if self.window > 0 else 0
        if k > 0:
            self.chain_cur = gradients.marginal_chain(
                self.params, boundaries[-k], ys[-k:], self.compute_grads)
        else:
            self.chain_cur = gradients.marginal_chain(
                self.params, self.a_live, [], self.compute_grads)
        if len(self.hist) >= 2:
            prev_hist = self.hist[:-1]
            kp = min(self.window, len(prev_hist)) if self.window > 0 else 0
            if kp > 0:
                self.chain_prev = gradients.marginal_chain(
                    self.params, prev_hist[-kp][0], [y for _, y in prev_hist[-kp:]],
                    self.compute_grads)
            else:
                self.chain_prev = gradients.marginal_chain(
                    self.params, prev_hist[-1][0], [], self.compute_grads)
        else:
            self.chain_prev = None

    def current_eta(self) -> GaussianNatural:
        return GaussianNatural(eta1=self.chain_cur.eta1, eta2=self.chain_cur.eta2)

    def kernel_marginal(self) -> GaussianNatural:
        return GaussianNatural(eta1=self.chain_prev.eta1, eta2=self.chain_prev.eta2)

    def potential_batch(self, xs: np.ndarray):
        return var.potential_params_batch(self.params, xs)

    def kernel_phi_contract(self, u1: np.ndarray, u2: np.ndarray, pot_raw: np.ndarray,
                            pot_acts, out: np.ndarray | None = None) -> np.ndarray:
        """Add the per-row phi-gradients of kernel cotangents (u1, u2) to ``out``.

        The kernel's natural parameters are eta_prev + eta~(xi_i); both
        receive the same cotangent.  It stays contracted in natural
        parameters, d + d^2 numbers per row, until one product with the
        previous chain's Jacobian widens it into ``out``; the potential
        head's vjp goes into its own column slice.  The callers pass the
        new cloud's g array, so no (n, dim_phi) array is returned fresh.
        ``out`` defaults to zeros; returns ``out``.
        """
        out = gradients.marginal_cotangent_phi(self.chain_prev, u1, u2, out,
                                               work=self.phi_work(u1.shape[0]))
        raw_cots = var.natural_cotangent_to_raw(pot_raw, u1, u2, self.params.d_x,
                                                diag_softplus=False)
        pot_grads = var.mlp.vjp_params_batched(self.params.head_potential,
                                               None, raw_cots, acts=pot_acts)
        spec = self.layout.by_name["head_potential"]
        out[:, spec.offset:spec.offset + spec.size] += pot_grads
        return out

    def snapshot(self) -> dict:
        return {
            "a_live": self.a_live.copy(),
            "hist_a": np.stack([a for a, _ in self.hist]) if self.hist else None,
            "hist_y": np.stack([y for _, y in self.hist]) if self.hist else None,
        }

    def restore(self, snap: dict) -> None:
        self.a_live = snap["a_live"].copy()
        if snap["hist_a"] is None:
            self.hist = []
        else:
            self.hist = [(a.copy(), y.copy())
                         for a, y in zip(snap["hist_a"], snap["hist_y"])]


class ConjugateRunner:
    """Precomputed per-step marginals and affine potentials; no phi-gradients."""

    def __init__(self, family: var.ConjugateSequence):
        self.family = family
        self.t = -1
        self.compute_grads = False
        self.dim_phi = 0

    def begin_step(self, y_t: np.ndarray) -> None:
        self.t += 1

    def current_eta(self) -> GaussianNatural:
        return self.family.etas[self.t]

    def kernel_marginal(self) -> GaussianNatural:
        return self.family.etas[self.t - 1]

    def potential_batch(self, xs: np.ndarray):
        eta1, eta2 = self.family.potentials[self.t - 1].eta_batch(xs)
        return eta1, np.ascontiguousarray(eta2), None, None


# ---------------------------------------------------------------------------
# Cloud construction and weight computation
# ---------------------------------------------------------------------------


def init_cloud(model, runner, y0: np.ndarray, n: int, rng: np.random.Generator,
               dim_theta: int | None = None) -> ParticleCloud:
    """Sample the time-zero cloud and its base statistics.

    h_0 = log chi + log g_0 per particle; the phi-statistic starts at
    exactly zero and the theta-statistic at the gradient of h_0.
    """
    runner.begin_step(y0)
    eta = runner.current_eta()
    xi = gaussian.sample(eta, rng, n)
    log_q = gaussian.log_density_cross(eta.eta1[None], eta.eta2[None], xi)[0]
    h = models.log_init_batch(model, xi) + models.log_g_batch(model, xi, y0)
    g_stat = None
    f_stat = None
    if runner.compute_grads:
        g_stat = np.zeros((n, runner.dim_phi))
    if dim_theta is not None:
        f_stat = models.grad_theta_init_batch(model, xi, y0)
    chain = getattr(runner, "chain_cur", None)
    cloud = ParticleCloud(xi=xi, h_stat=h, g_stat=g_stat, f_stat=f_stat,
                          log_q_marginal=log_q, eta=eta, t=0, chain=chain)
    _check_finite(cloud)
    return cloud


@dataclass
class KernelBatch:
    """Per-new-particle backward-kernel quantities shared by all updates."""

    eta1: np.ndarray          # (N, d) eta_prev + eta~(xi_new_i)
    eta2: np.ndarray          # (N, d, d)
    log_kernel_cross: np.ndarray | None   # (N_new, N_prev) kernel log-densities, unclipped
    log_pot_cross: np.ndarray | None      # (N_new, N_prev) clamped potentials, clipped
    pot_eta1: np.ndarray
    pot_eta2: np.ndarray
    pot_raw: np.ndarray | None
    pot_acts: object | None


def build_kernel(runner, cloud_prev: ParticleCloud, xi_new: np.ndarray,
                 config: EngineConfig, need_cross: bool = True) -> KernelBatch:
    """Kernel parameters per new particle and, if ``need_cross``, one N x N cross.

    The kernel of new particle i is eta_prev + eta~(xi_new_i).  The cross
    is what the weights read: the clamped potentials when clipping is on,
    the kernel log-densities otherwise.  The pair bracket reads neither,
    so only one is built.
    """
    pot_eta1, pot_eta2, pot_raw, pot_acts = runner.potential_batch(xi_new)
    eta_prev = runner.kernel_marginal()
    k_eta1 = eta_prev.eta1[None, :] + pot_eta1
    k_eta2 = eta_prev.eta2[None, :, :] + pot_eta2
    log_kernel_cross = None
    log_pot_cross = None
    if need_cross and config.clip_enabled:
        log_pot_cross = potential_cross(pot_eta1, pot_eta2, cloud_prev.xi)
        np.clip(log_pot_cross, config.log_eps_minus, config.log_eps_plus,
                out=log_pot_cross)
    elif need_cross:
        log_kernel_cross = gaussian.log_density_cross(k_eta1, k_eta2, cloud_prev.xi)
    return KernelBatch(eta1=k_eta1, eta2=k_eta2, log_kernel_cross=log_kernel_cross,
                       log_pot_cross=log_pot_cross, pot_eta1=pot_eta1,
                       pot_eta2=pot_eta2, pot_raw=pot_raw, pot_acts=pot_acts)


def potential_cross(pot_eta1: np.ndarray, pot_eta2: np.ndarray,
                    xs_prev: np.ndarray) -> np.ndarray:
    """<eta~(xi_new_i), T(xs_prev_j)> for all pairs; shape (n_new, n_prev)."""
    return gaussian.inner_cross(pot_eta1, pot_eta2, xs_prev)


def compute_weights(cloud_prev: ParticleCloud, kernel: KernelBatch) -> WeightMatrix:
    """Self-normalized importance weights, one row per new particle.

    The unnormalized log-weight of pair (i, j) is
    log q_{t-1|t}(xi_new_i, xi_prev_j) - log q_{t-1}(xi_prev_j); when
    clipping is enabled the clamped potential replaces the kernel ratio
    (they differ by a row constant when no clamp binds).  The kernel's
    arrays are left unchanged.
    """
    if kernel.log_pot_cross is not None:
        log_unnorm = kernel.log_pot_cross.copy()
    else:
        log_unnorm = kernel.log_kernel_cross - cloud_prev.log_q_marginal[None, :]
    return WeightMatrix(w=_normalize_rows(log_unnorm))


def _normalize_rows(log_unnorm: np.ndarray) -> np.ndarray:
    """Row-wise softmax, in place; a row without finite mass raises ``DegenerateRow``."""
    row_max = np.max(log_unnorm, axis=1)
    if not np.all(np.isfinite(row_max)):
        bad = int(np.nonzero(~np.isfinite(row_max))[0][0])
        raise DegenerateRow(f"weight row {bad} has no finite mass")
    log_unnorm -= row_max[:, None]
    w = np.exp(log_unnorm, out=log_unnorm)
    w /= w.sum(axis=1, keepdims=True)
    return w


def pair_terms(model, cloud_prev: ParticleCloud, xi_new: np.ndarray, y_t: np.ndarray,
               t: int, kernel: KernelBatch) -> np.ndarray:
    """The pair bracket h_prev_j + h~_t(xi_prev_j, xi_new_i); shape (N_new, N_prev).

    b_ij = h_prev_j + log m(x_j -> x_i) + log g(x_i) - log k_i(x_j), with
    log k_i(x) = <eta1_i, x> + x' eta2_i x - A_i, is one product of
    feature rows: [transition rows of x_new, with A_i + log g_i in their
    constant column | -eta1_i, -vec eta2_i] against [transition rows of
    x_prev, with h_prev_j in theirs | x_j, vec(x_j x_j')].  K = 2d+2+d^2
    columns; the kernel cross is not read.
    """
    n_new, d = xi_new.shape
    offset_new = (gaussian.log_partition_batch(kernel.eta1, kernel.eta2)
                  + models.log_g_batch(model, xi_new, y_t))
    rows_new, rows_prev = models.transition_rows(model, cloud_prev.xi, xi_new,
                                                 offset_new, cloud_prev.h_stat)
    left = np.concatenate([rows_new, -kernel.eta1, -kernel.eta2.reshape(n_new, d * d)],
                          axis=1)
    right = np.concatenate([rows_prev, gaussian.suff_stat_rows(cloud_prev.xi)[:, :-1]],
                           axis=1)
    return left @ right.T


# ---------------------------------------------------------------------------
# Statistic updates
# ---------------------------------------------------------------------------


def _check_finite(cloud: ParticleCloud) -> None:
    """Raise ``NonFiniteStatistic`` naming the first particle with a NaN or inf.

    One sum per statistic; only when it is not finite are the elements
    searched, so a finite array whose sum overflows passes.
    """
    for name, arr in (("h", cloud.h_stat), ("g", cloud.g_stat), ("f", cloud.f_stat)):
        if arr is None:
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            if np.isfinite(arr.sum()):
                continue
        bad = np.nonzero(~np.isfinite(arr))[0]
        if bad.size:
            raise NonFiniteStatistic(
                f"{name} statistic non-finite at particle {int(bad[0])}, t={cloud.t}")


def update_statistics(cloud_prev: ParticleCloud, wmat: WeightMatrix,
                      xi_new: np.ndarray, model, runner, y_t: np.ndarray, t: int,
                      kernel: KernelBatch, log_q_new: np.ndarray,
                      center_gstat: bool = False) -> ParticleCloud:
    """Full O(N^2) self-normalized update of all three statistics.

    With the bracket from ``pair_terms`` (one product, h_prev included),
    one product (w * bracket) @ [x_j, vec(x_j x_j'), 1] gives the weighted
    first and second moments that contract the kernel scores, and h_new
    as its last column; the bracket is then dropped, so the weights and
    the bracket are the only N x N arrays.  Centering the g-bracket by
    h_new subtracts h_new * (w @ T).  The carried f enters the model's own
    product with w (``grad_theta_pair_contract(..., carried=)``); the
    carried g is one product w @ g_prev.
    """
    w = wmat.w
    d = cloud_prev.xi.shape[1]
    stats_prev = gaussian.suff_stat_rows(cloud_prev.xi)
    cw = pair_terms(model, cloud_prev, xi_new, y_t, t, kernel)
    cw *= w
    moments = cw @ stats_prev                            # (N_new, d + d*d + 1)
    del cw
    h_new = moments[:, -1].copy()

    g_new = None
    if cloud_prev.g_stat is not None:
        if center_gstat:
            moments -= h_new[:, None] * (w @ stats_prev)
        mean, second = gaussian.mean_params_batch(kernel.eta1, kernel.eta2)
        # contraction of the closed-form kernel scores with the weights
        mass = moments[:, -1]
        u1 = moments[:, :d] - mass[:, None] * mean
        u2 = moments[:, d:-1].reshape(-1, d, d) - mass[:, None, None] * second
        g_new = w @ cloud_prev.g_stat
        runner.kernel_phi_contract(u1, u2, kernel.pot_raw, kernel.pot_acts, out=g_new)

    f_new = None
    if cloud_prev.f_stat is not None:
        f_new = models.grad_theta_pair_contract(model, cloud_prev.xi, xi_new, y_t, t, w,
                                                carried=cloud_prev.f_stat)

    cloud = ParticleCloud(xi=xi_new, h_stat=h_new, g_stat=g_new, f_stat=f_new,
                          log_q_marginal=log_q_new, eta=runner.current_eta(),
                          t=t, chain=getattr(runner, "chain_cur", None))
    _check_finite(cloud)
    return cloud


def _categorical_rows(w: np.ndarray, m_draws: int, rng: np.random.Generator) -> np.ndarray:
    """``m_draws`` inverse-CDF draws from each row of ``w``.

    All draws bisect their row's CDF together: log2(N) vectorized steps,
    O(N M) extra memory, the same indices as a per-row ``searchsorted``.
    """
    n, n_prev = w.shape
    u = rng.random((n, m_draws))
    cdf = np.cumsum(w, axis=1)
    cdf[:, -1] = 1.0
    # invariant: cdf[i, :lo] <= u < cdf[i, hi:]
    lo = np.zeros((n, m_draws), dtype=np.int64)
    hi = np.full((n, m_draws), n_prev, dtype=np.int64)
    rows = np.arange(n)[:, None]
    for _ in range(n_prev.bit_length()):
        mid = (lo + hi) // 2
        right = cdf[rows, np.minimum(mid, n_prev - 1)] <= u
        active = lo < hi
        lo = np.where(active & right, mid + 1, lo)
        hi = np.where(active & ~right, mid, hi)
    return np.minimum(lo, n_prev - 1)


def _potential_bound(pot_eta1: np.ndarray, pot_eta2: np.ndarray, xs_prev: np.ndarray,
                     log_eps_minus: float, log_eps_plus: float) -> np.ndarray:
    """Per-row upper bound on the clamped log-potential over ``xs_prev``.

    B_i = clip(U_i, eps-, eps+) with
    U_i = sum_d max(eta1_id hi_d, eta1_id lo_d) + max(lambda_max(eta2_i), 0) max_j |x_j|^2,
    where [lo, hi] is the bounding box of ``xs_prev``: the first term
    bounds the linear part, the second the quadratic part, which is zero
    for negative semi-definite eta2 (the amortized and conjugate
    potentials).  O(N d + N d^3).
    """
    lo = xs_prev.min(axis=0)
    hi = xs_prev.max(axis=0)
    bound = np.maximum(pot_eta1 * hi, pot_eta1 * lo).sum(axis=1)
    sym = 0.5 * (pot_eta2 + np.swapaxes(pot_eta2, 1, 2))
    lam_max = np.linalg.eigvalsh(sym)[:, -1]
    radius2 = np.max(np.einsum("jd,jd->j", xs_prev, xs_prev))
    bound += np.maximum(lam_max, 0.0) * radius2
    return np.clip(bound, log_eps_minus, log_eps_plus)


def _accept_reject_rows(cloud_prev: ParticleCloud, kernel: KernelBatch,
                        config: EngineConfig, m_draws: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Index draws by accept-reject against a per-row bound, with an exact fallback.

    Row i's target is its clamped potential over the previous particles,
    the row that ``compute_weights`` normalizes.  Each round, every
    pending draw proposes a uniform index j and accepts it with
    probability exp(pot_ij - B_i), B_i from ``_potential_bound``.  A draw
    still pending after N proposals, what one exact row costs, is drawn
    from its row's categorical over the same clamped potential.  Given
    that it reached the fallback, a draw is independent of its rejected
    proposals, so the hybrid stays an exact sampler (Dau & Chopin, 2023).
    Expected cost is O(N M) proposals when the bound is tight; a draw
    that falls back costs N proposals plus one exact row.

    Without clipping the raw potential equals the weight row only up to a
    row constant, and only while the kernel marginal is the previous
    cloud's, so that case raises ``MissingBound``.
    """
    if not config.clip_enabled:
        raise MissingBound("accept_reject requires clipping: its target and its "
                           "bound are those of the clamped potential")
    eps_lo, eps_hi = config.log_eps_minus, config.log_eps_plus
    xs = cloud_prev.xi
    n_prev = cloud_prev.n
    bound = _potential_bound(kernel.pot_eta1, kernel.pot_eta2, xs, eps_lo, eps_hi)
    idx = np.full((kernel.pot_eta1.shape[0], m_draws), -1, dtype=np.int64)
    rows, cols = np.nonzero(idx < 0)
    for _ in range(n_prev):
        if not rows.size:
            break
        prop = rng.integers(0, n_prev, size=rows.size)
        xj = xs[prop]
        log_pot = (np.einsum("kd,kd->k", kernel.pot_eta1[rows], xj)
                   + np.einsum("kd,kde,ke->k", xj, kernel.pot_eta2[rows], xj))
        log_pot = np.clip(log_pot, eps_lo, eps_hi)
        accept = np.log(rng.random(rows.size)) < log_pot - bound[rows]
        idx[rows[accept], cols[accept]] = prop[accept]
        rows, cols = rows[~accept], cols[~accept]
    if rows.size:
        fb_rows, pos = np.unique(rows, return_inverse=True)
        log_pot = np.clip(potential_cross(kernel.pot_eta1[fb_rows],
                                          kernel.pot_eta2[fb_rows], xs), eps_lo, eps_hi)
        fallback = _categorical_rows(_normalize_rows(log_pot), m_draws, rng)
        idx[rows, cols] = fallback[pos, cols]
    return idx


def backward_sample_update(cloud_prev: ParticleCloud, xi_new: np.ndarray, m_draws: int,
                           rng: np.random.Generator, model, runner, y_t: np.ndarray,
                           t: int, kernel: KernelBatch, log_q_new: np.ndarray,
                           config: EngineConfig, method: str = "categorical",
                           wmat: WeightMatrix | None = None) -> ParticleCloud:
    """O(N M) update: row sums replaced by averages over M index draws.

    The g-bracket is centered by the freshly computed h statistic (the
    built-in control variate); all three statistics share the draws.
    The carried g and f rows are gathered draw by draw into the new
    cloud's arrays, and the kernel cotangents, contracted over the draws
    in natural parameters, are widened straight into the new g.
    """
    n_new = xi_new.shape[0]
    if method == "categorical":
        if wmat is None:
            wmat = compute_weights(cloud_prev, kernel)
        idx = _categorical_rows(wmat.w, m_draws, rng)
    elif method == "accept_reject":
        idx = _accept_reject_rows(cloud_prev, kernel, config, m_draws, rng)
    else:
        raise ValueError(f"unknown backward sampling method {method!r}")

    xs_j = cloud_prev.xi[idx]                             # (N, M, d)
    means_prev = models.transition_mean(model, cloud_prev.xi)
    log_m = models.log_m_gathered(model, means_prev, idx, xi_new)
    log_g = models.log_g_batch(model, xi_new, y_t)
    # kernel log-density at gathered pairs
    log_z = gaussian.log_partition_batch(kernel.eta1, kernel.eta2)
    lin = np.einsum("nd,nmd->nm", kernel.eta1, xs_j)
    quad = np.einsum("nmd,nde,nme->nm", xs_j, kernel.eta2, xs_j)
    log_kernel = lin + quad - log_z[:, None]
    h_tilde = log_m + log_g[:, None] - log_kernel         # (N, M)

    bracket = cloud_prev.h_stat[idx] + h_tilde
    h_new = bracket.mean(axis=1)

    g_new = None
    if cloud_prev.g_stat is not None:
        coeff = bracket - h_new[:, None] if config.gstat_centered else bracket
        mean, second = gaussian.mean_params_batch(kernel.eta1, kernel.eta2)
        cw = coeff / m_draws
        u1 = (np.einsum("nm,nmd->nd", cw, xs_j)
              - cw.sum(axis=1)[:, None] * mean)
        u2 = (np.einsum("nm,nmd,nme->nde", cw, xs_j, xs_j)
              - cw.sum(axis=1)[:, None, None] * second)
        g_new = _gather_mean(cloud_prev.g_stat, idx, runner.phi_work(n_new))
        runner.kernel_phi_contract(u1, u2, kernel.pot_raw, kernel.pot_acts, out=g_new)

    f_new = None
    if cloud_prev.f_stat is not None:
        f_new = _gather_mean(cloud_prev.f_stat, idx)
        trans = models.grad_theta_transition_pairs(
            model, xs_j.reshape(n_new * m_draws, -1),
            np.repeat(xi_new, m_draws, axis=0))
        f_new += trans.reshape(n_new, m_draws, -1).mean(axis=1)
        f_new += models.grad_theta_emission_batch(model, xi_new, y_t)

    cloud = ParticleCloud(xi=xi_new, h_stat=h_new, g_stat=g_new, f_stat=f_new,
                          log_q_marginal=log_q_new, eta=runner.current_eta(),
                          t=t, chain=getattr(runner, "chain_cur", None))
    _check_finite(cloud)
    return cloud


def _gather_mean(stat: np.ndarray, idx: np.ndarray,
                 work: np.ndarray | None = None) -> np.ndarray:
    """``stat[idx].mean(axis=1)``, one gathered draw at a time into one array.

    Draws after the first are gathered into ``work`` if given.  The
    indices are in range; ``mode="clip"`` only keeps ``take`` from
    buffering ``work``.
    """
    out = np.take(stat, idx[:, 0], axis=0)
    for m in range(1, idx.shape[1]):
        out += np.take(stat, idx[:, m], axis=0, out=work, mode="clip")
    out *= 1.0 / idx.shape[1]
    return out


# ---------------------------------------------------------------------------
# Estimators and the full step
# ---------------------------------------------------------------------------


def estimate(cloud: ParticleCloud, use_control_variates: bool = True) -> EstimatorOutput:
    """Per-step ELBO and gradient estimates from the current cloud.

    elbo averages h - log q over particles; the phi-gradient couples the
    marginal scores with the h statistics (optionally centered, which
    leaves the expectation unchanged by the score identity) and adds the
    carried g statistics; the theta-gradient averages the f statistics.
    The score term is contracted before it is widened: every particle's
    score is T(xi_i) - E[T] pulled back through the one chain, so the
    coefficient-weighted mean of the scores is the pullback of one
    natural-parameter cotangent, and no (N, dim_phi) score rows are built.
    """
    elbo = float(np.mean(cloud.h_stat - cloud.log_q_marginal))
    grad_phi = None
    grad_theta = None
    chain = cloud.chain
    if cloud.g_stat is not None and chain is not None and chain.nat_jac is not None:
        coeff = cloud.h_stat - cloud.h_stat.mean() if use_control_variates else cloud.h_stat
        c = coeff / cloud.n
        mass = c.sum()
        mean, second = gaussian.mean_params_batch(chain.eta1[None], chain.eta2[None])
        u1 = (c @ cloud.xi)[None] - mass * mean
        u2 = ((cloud.xi.T * c) @ cloud.xi)[None] - mass * second
        grad_phi = cloud.g_stat.mean(axis=0)
        gradients.marginal_cotangent_phi(chain, u1, u2, out=grad_phi[None])
    if cloud.f_stat is not None:
        grad_theta = cloud.f_stat.mean(axis=0)
    return EstimatorOutput(elbo=elbo, grad_phi=grad_phi, grad_theta=grad_theta)


@dataclass
class EngineState:
    cloud: ParticleCloud
    runner: object
    t: int = 0
    last_step_ns: int = 0
    last_wmat: WeightMatrix | None = field(default=None, repr=False)


def init_state(model, runner, y0: np.ndarray, config: EngineConfig,
               rng: np.random.Generator) -> EngineState:
    """The time-zero state.

    The engine reads the truncation window from the runner, so a runner
    whose ``window`` differs from ``config.truncation_window`` raises
    ``ConflictingSetting`` rather than ignoring the config.
    """
    window = getattr(runner, "window", None)
    if window is not None and window != config.truncation_window:
        raise ConflictingSetting(
            f"runner window {window} != EngineConfig.truncation_window "
            f"{config.truncation_window}")
    dim_theta = models.theta_layout(model).total if config.compute_grads else None
    cloud = init_cloud(model, runner, y0, config.n_particles, rng,
                       dim_theta=dim_theta)
    return EngineState(cloud=cloud, runner=runner, t=0)


def step(state: EngineState, y_t: np.ndarray, model, config: EngineConfig,
         rng: np.random.Generator, keep_weights: bool = False) -> tuple[EngineState, EstimatorOutput]:
    """Advance one observation: sample, weight, update, estimate."""
    started = time.perf_counter_ns()
    runner = state.runner
    runner.begin_step(y_t)
    eta_t = runner.current_eta()
    xi_new = gaussian.sample(eta_t, rng, config.n_particles)
    log_q_new = gaussian.log_density_cross(eta_t.eta1[None], eta_t.eta2[None], xi_new)[0]
    t_new = state.t + 1
    need_cross = config.method != "accept_reject" or keep_weights
    kernel = build_kernel(runner, state.cloud, xi_new, config, need_cross=need_cross)
    wmat = None
    if config.method == "full":
        wmat = compute_weights(state.cloud, kernel)
        # the weights are all the update reads of the cross
        kernel.log_kernel_cross = kernel.log_pot_cross = None
        cloud_new = update_statistics(state.cloud, wmat, xi_new, model, runner,
                                      y_t, t_new, kernel, log_q_new,
                                      center_gstat=config.gstat_centered)
    else:
        if keep_weights:
            wmat = compute_weights(state.cloud, kernel)
        cloud_new = backward_sample_update(state.cloud, xi_new, config.m_backward,
                                           rng, model, runner, y_t, t_new, kernel,
                                           log_q_new, config, method=config.method,
                                           wmat=wmat)
    out = estimate(cloud_new, use_control_variates=config.cv_grad_phi)
    new_state = EngineState(cloud=cloud_new, runner=runner, t=t_new,
                            last_step_ns=time.perf_counter_ns() - started,
                            last_wmat=wmat if keep_weights else None)
    return new_state, out
