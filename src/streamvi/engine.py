"""Particle recursion engine.

Carries, per time step, N i.i.d. draws from the current variational
marginal together with three per-particle statistics: the cumulative
pair-term (h), its phi-gradient (g), and its theta-gradient (f).  New
statistics are self-normalized importance-sampling updates over the
previous particles, with weights proportional (within each row) to the
backward-kernel density over the previous proposal density, or, with
clipping on, to the clamped potential.

One statistic update serves both routes; they differ only in the
weights W_ij of new particle i over the previous particles j:

- full weights: W dense, the exact N x N weights, O(N^2) per step, with
  the plain g-bracket;
- backward sampling: W sparse, 1/M at (i, idx_im) for M index draws per
  row shared by the three statistics, with the g-bracket centered by the
  freshly computed h statistic.  Indices come either from the
  explicit categorical rows, which needs the N x N weights, or by
  accept-reject: uniform proposals accepted against a per-row upper
  bound on the clamped potential, with a draw still pending after N
  proposals drawn exactly from its row.  Accept-reject costs O(N M)
  proposals per step when the bound is tight, and at worst N proposals
  plus one exact row per draw.  Its proposals come in rounds, one block
  per pending draw, of 1, 2, 4, ... proposals, so a step takes about
  ceil(log2(N + 1)) rounds rather than up to N.  Each draw takes the
  first acceptance in its sequence of proposals, as with one proposal
  per round, so the sampler stays exact.  The proposals after a block's
  first acceptance are wasted: a draw draws fewer than twice the
  proposals it needs, and never more than N.  A round's gather of
  proposal features stays within ``ROW_BLOCK_BYTES``.

Both read the bracket, the moments and the theta side from the same
per-particle rows and end in one tail, ``_finish_update``.

All weight arithmetic is in log space with per-row log-sum-exp
normalization.  Rows with zero total mass raise instead of silently
falling back to uniform.

On the full route every row of the N x N update belongs to one new
particle: its weights are normalised, and its bracket contracted,
independently of the other rows.  So the update runs over blocks of
new-particle rows, each block's arrays at most ``ROW_BLOCK_BYTES``, and
every pairwise quantity of a block is one BLAS product of per-particle
feature rows.  Per block, the kernel cross (the kernel log-densities, or
with clipping the clamped potentials) is normalised in place into the
block's weights; the pair bracket h_prev_j + log m(x_j -> x_i) + log g(x_i)
- log k_i(x_j) of those rows is one more product; and the weights'
products with the carried g, the sufficient statistics and the model's
theta rows fill the block's rows of the new statistics.  The bracket and
its product with the sufficient statistics run over chunks of the
block's rows, ``CHUNK_BYTES`` each.  Everything on the previous-particle
side is built once per step.  So a step holds the weights, one chunk of
the bracket and the two slots of the g product (below): arrays that the
runner keeps across steps, and no N x N array; only the categorical
draws assemble the whole weight matrix, block by block
(``weight_matrix``).  Nor does any route keep a second array of g's
shape: the tail adds the kernel scores' phi rows to the new g, and the
sampled route gathers the carried g into it, one chunk of rows at a
time.

Precision: the carried phi statistic g is stored, gathered and
multiplied in ``EngineConfig.g_dtype``, float32 by default.  Everything
else is float64: h, f, the weights, the pair bracket, the moments, the
kernel cotangents, the ELBO and both gradient outputs.  The reductions
that set the estimate's accuracy, the log-sum-exp weights and the final
mean over particles, stay in float64: the tail sums g's columns with a
float64 accumulator, chunk by chunk, and ``estimate`` divides those sums
by N.  Summed by chunks rather than in one pass, they differ from
``g.mean(axis=0, dtype=float64)`` by rounding only, about 1e-14
relative.  Each step a g row is a weighted mean of the
previous rows plus one increment, both rounded to float32, so
``grad_phi`` moves by about 1e-7 relative to the float64 path, far below
its Monte Carlo spread.  In exchange the full route's w @ g_prev, the
step's largest product, and every g gather move half the bytes; the
weights are cast to float32 one block at a time for that product.  h
and f never read g, so the ELBO and ``grad_theta`` do not depend on the
setting.

Overlap: on the full route one helper thread works beside the main
thread, and NumPy releases the GIL inside its loops and BLAS.  The helper
takes its tasks in this order: first the theta pair rows
(``models.grad_theta_pair_rows``), which read only the previous cloud;
then each block's w @ g_prev, which reads only the block's weights and
the carried g, block 0's submitted before ``pair_terms`` is built.
Meanwhile the main thread does the float64 work: the weights, the pair
rows, the bracket, the moments and the theta sums, and at the end the
tail's work that reads no g (the theta finish, the kernel cotangents
and the potential head's vjp rows, into a work array).  Once the last
products have finished, one pass over the new g adds the kernel scores'
phi rows and sums g's columns.  The theta rows go into a work array that
the main thread made.  The helper's left operand alternates
between two work arrays by block, the two float32 casts or, for a
float64 g, two cross slots; a block waits for the product two blocks
back before it writes its slot, so at most two products are in flight
and none reads a buffer that is being written.  Every task has
finished before ``update_statistics`` returns or raises.  The helper
runs only plain NumPy code, never a function that a profiler may wrap
from outside (every public function the tracer of ``perfbench`` wraps
runs on the main thread; ``mlp.vjp_params_cross_rows`` calls the
untraced core of ``mlp.vjp_params_batched`` for that reason).  Each
task is the same computation on the same operands as when run in line,
so outputs are bit-identical.  There is one helper per process, shared
by every engine in it, made on the first full-route update that carries
g or f, not at import; a forked child forgets its parent's helper (an
``os.register_at_fork`` hook) and makes its own.
"""

from __future__ import annotations

import numbers
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import gaussian, gradients, models, variational as var
from .errors import (BadBounds, ConflictingSetting, DegenerateRow, MissingBound,
                     NonFiniteStatistic)
from .gaussian import GaussianNatural

# Bytes of one block's (rows, N_prev) float64 array on the full route, and
# of one round's gathered proposal features on the accept-reject route.  At
# N=2000 on a 2-core x86 VM with one BLAS thread, 0.5 MiB blocks were
# slower, 1-8 MiB about as fast as one whole block, and larger blocks only
# raised peak memory.  A block is also the grain of the overlap of w @ g_prev
# with the float64 work: with one block, as at N=500, the helper runs the
# theta rows and then the one product, beside the main thread's pair rows,
# bracket, moments, theta sums and the part of the tail that reads no g.
ROW_BLOCK_BYTES = 4 << 20

# Bytes of one chunk of rows in the passes that need no whole block: a
# block's bracket and moments, the tail's one pass over the new g (the
# kernel scores' phi rows, the potential head's columns and g's column
# sums) and the sampled route's gathers.  A chunk stays in L2 (2 MiB per
# core on the VM above) between the operations on it, and only the
# bracket and the gather buffer are chunk-sized arrays.  At N=2000 the
# tail with estimate took 10.3-10.5 ms (median) at 256 KiB - 1 MiB
# chunks, against 11.2 at 128 KiB and 11.4 at 4 MiB; the smallest of the
# fast sizes holds the least scratch.
CHUNK_BYTES = 256 << 10

# The thread that runs the full route's theta rows and w @ g_prev, one per
# process since it is there to use the second core; made on first use.
_helper = None
_helper_lock = threading.Lock()


def _helper_thread():
    """The one worker thread of the full route's theta rows and g products."""
    global _helper
    with _helper_lock:
        if _helper is None:
            from concurrent.futures import ThreadPoolExecutor   # not at import: set-up time
            _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="streamvi-g")
        return _helper


def _forget_helper() -> None:
    # a forked child has no thread behind its parent's executor, and may have
    # copied the lock held
    global _helper, _helper_lock
    _helper = None
    _helper_lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_helper)


@dataclass
class EngineConfig:
    n_particles: int = 100
    method: str = "full"            # full | categorical | accept_reject
    m_backward: int = 2
    cv_grad_phi: bool = True        # center h in the final phi-gradient estimator
    clip_enabled: bool = False
    log_eps_minus: float = -30.0
    log_eps_plus: float = 30.0
    truncation_window: int = 2
    compute_grads: bool = True
    g_dtype: str = "float32"        # storage of the carried phi statistic: float32 | float64

    def __post_init__(self):
        for name in ("n_particles", "m_backward"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.method not in ("full", "categorical", "accept_reject"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.g_dtype not in ("float32", "float64"):
            raise ValueError(f"unknown g_dtype {self.g_dtype!r}")
        if not self.log_eps_minus < self.log_eps_plus:
            raise BadBounds(f"need log_eps_minus < log_eps_plus, got "
                            f"({self.log_eps_minus}, {self.log_eps_plus})")
        if self.method == "accept_reject" and not self.clip_enabled:
            # without clipping the raw potential equals the weight row only
            # up to a row constant, and only while the kernel marginal is the
            # previous cloud's, so there is no bound to accept against
            raise MissingBound("accept_reject requires clipping: its target and its "
                               "bound are those of the clamped potential")


@dataclass
class ParticleCloud:
    xi: np.ndarray                     # (N, d)
    h_stat: np.ndarray                 # (N,)
    g_stat: np.ndarray | None          # (N, dim_phi), EngineConfig.g_dtype
    f_stat: np.ndarray | None          # (N, dim_theta)
    log_q_marginal: np.ndarray         # (N,) log q_t(xi_i) under the sampler
    eta: GaussianNatural               # marginal the particles were drawn from
    t: int
    chain: gradients.MarginalChain | None = None  # context for phi-scores
    g_sum: np.ndarray | None = None    # (dim_phi,) float64 column sums of g_stat, if taken

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


class WorkArrays:
    """Step-lived arrays that a runner keeps across steps, one per name.

    ``get`` returns the array kept under ``name`` when its shape and
    dtype match and replaces it otherwise, so a stream of same-sized
    steps allocates each one once.  They are scratch space that the next
    step overwrites: no cloud or output may hold one.
    """

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        arr = self._arrays.get(name)
        if arr is None or arr.shape != shape or arr.dtype != dtype:
            arr = self._arrays[name] = np.empty(shape, dtype)
        return arr


class AmortizedRunner:
    """Streams the recurrent amortizer and exposes gradient hooks.

    The live state advances once per observation.  For each step the
    last ``window`` updates are re-executed under the current weights,
    which makes the sampled marginal, the kernel marginal, and their
    gradients all consistent values of one truncated function.
    """

    def __init__(self, params: var.AmortizerParams, window: int = 2,
                 compute_grads: bool = True):
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        self.params = params
        self.window = window
        self.compute_grads = compute_grads
        self.layout = var.var_layout(params)
        self.a_live = np.zeros(params.hidden)
        self.hist: list[tuple[np.ndarray, np.ndarray]] = []  # (a_before, y) per step
        self.chain_cur: gradients.MarginalChain | None = None
        self.chain_prev: gradients.MarginalChain | None = None
        self.work = WorkArrays()

    @property
    def dim_phi(self) -> int:
        return self.layout.total

    def set_params(self, params: var.AmortizerParams) -> None:
        self.params = params

    def begin_step(self, y_t: np.ndarray) -> None:
        # a copy: the history is re-run next step, after the caller may
        # have reused its buffer.  Missing (NaN) coordinates enter as zeros,
        # so the amortizer reads U[:, valid] @ y[valid]; the models mask them.
        y_t = np.array(y_t, dtype=np.float64)
        y_t[np.isnan(y_t)] = 0.0
        first = self.chain_cur is None
        a_prev = self.a_live
        self.hist.append((a_prev.copy(), y_t))
        if len(self.hist) > self.window + 1:
            self.hist.pop(0)
        self.a_live = var.advance(self.params, var.AmortizerState(a=a_prev), y_t).a
        self.chain_cur = self._chain(self.a_live, self.hist)
        self.chain_prev = None if first else self._chain(a_prev, self.hist[:-1])

    def _chain(self, a_end: np.ndarray, hist: list) -> gradients.MarginalChain:
        """The chain of the state ``a_end`` that ``hist`` ends at: its last
        ``window`` updates re-run, or with none the head at ``a_end``."""
        k = min(self.window, len(hist))
        if k == 0:
            return gradients.marginal_chain(self.params, a_end, [], self.compute_grads)
        return gradients.marginal_chain(self.params, hist[-k][0], [y for _, y in hist[-k:]],
                                        self.compute_grads)

    def current_eta(self) -> GaussianNatural:
        return GaussianNatural(eta1=self.chain_cur.eta1, eta2=self.chain_cur.eta2)

    def kernel_marginal(self) -> GaussianNatural:
        return GaussianNatural(eta1=self.chain_prev.eta1, eta2=self.chain_prev.eta2)

    def potential_batch(self, xs: np.ndarray):
        return var.potential_params_batch(self.params, xs)

    @property
    def pot_columns(self) -> slice:
        """The potential head's columns of a phi-gradient row."""
        spec = self.layout.by_name["head_potential"]
        return slice(spec.offset, spec.offset + spec.size)

    def potential_phi_rows(self, u1: np.ndarray, u2: np.ndarray, pot_raw: np.ndarray,
                           pot_acts, out: np.ndarray) -> np.ndarray:
        """Write the potential head's part of the kernel cotangents' phi rows into ``out``.

        Row i is the float64 per-sample vjp of the head at xi_i under the
        raw cotangent of (u1_i, u2_i): the ``pot_columns`` of the row that
        ``kernel_phi_contract`` adds.  Returns ``out``, (n, head size).
        """
        raw_cots = var.natural_cotangent_to_raw(pot_raw, u1, u2, self.params.d_x,
                                                diag_softplus=False)
        return var.mlp.vjp_params_batched(self.params.head_potential, None, raw_cots,
                                          acts=pot_acts, out=out)

    def kernel_phi_contract(self, u1: np.ndarray, u2: np.ndarray, pot: np.ndarray,
                            out: np.ndarray) -> np.ndarray:
        """Add the per-row phi-gradients of kernel cotangents (u1, u2) to ``out``.

        The kernel's natural parameters are eta_prev + eta~(xi_i); both
        receive the same cotangent.  It stays contracted in natural
        parameters, d + d^2 numbers per row, until one product with the
        previous chain's Jacobian widens it, in ``out``'s dtype, and adds
        it to ``out``.  The chain does not reach the potential head, so
        the head's columns (``pot_columns``) get ``pot`` instead, the rows
        of ``potential_phi_rows``, added after the product so that a
        float32 g meets the float64 vjp unrounded.  Returns ``out``.
        """
        gradients.marginal_cotangent_phi(self.chain_prev, u1, u2, out=out)
        out[:, self.pot_columns] += pot
        return out


class ConjugateRunner:
    """Precomputed per-step marginals and affine potentials; no phi-gradients."""

    def __init__(self, family: var.ConjugateSequence):
        self.family = family
        self.t = -1
        self.compute_grads = False
        self.dim_phi = 0
        self.window = None        # no truncation window to check
        self.chain_cur = None     # no chain for phi-scores
        self.work = WorkArrays()

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


def init_cloud(model, runner, y0: np.ndarray, config: EngineConfig,
               rng: np.random.Generator) -> ParticleCloud:
    """Sample the time-zero cloud of ``config.n_particles`` and its base statistics.

    h_0 = log chi + log g_0 per particle; the phi-statistic starts at
    exactly zero, in ``config.g_dtype``, and the theta-statistic at the
    gradient of h_0.
    """
    n = config.n_particles
    runner.begin_step(y0)
    eta = runner.current_eta()
    xi = gaussian.sample(eta, rng, n)
    log_q = gaussian.log_density_cross(eta.eta1[None], eta.eta2[None], xi)[0]
    h = models.log_init_batch(model, xi) + models.log_g_batch(model, xi, y0)
    g_stat = None
    f_stat = None
    if runner.compute_grads:
        g_stat = np.zeros((n, runner.dim_phi), dtype=config.g_dtype)
    if config.compute_grads:
        f_stat = models.grad_theta_init_batch(model, xi, y0)
    return _checked_cloud(runner, xi, log_q, 0, h, g_stat, f_stat)


@dataclass
class KernelBatch:
    """Per-new-particle backward-kernel quantities shared by all updates."""

    eta1: np.ndarray          # (N, d) eta_prev + eta~(xi_new_i)
    eta2: np.ndarray          # (N, d, d)
    pot_eta1: np.ndarray
    pot_eta2: np.ndarray
    pot_raw: np.ndarray | None
    pot_acts: object | None


def build_kernel(runner, xi_new: np.ndarray) -> KernelBatch:
    """Kernel parameters per new particle, eta_prev + eta~(xi_new_i).

    The crosses that the weights read are built one row block at a time,
    by ``block_weights``.
    """
    pot_eta1, pot_eta2, pot_raw, pot_acts = runner.potential_batch(xi_new)
    eta_prev = runner.kernel_marginal()
    return KernelBatch(eta1=eta_prev.eta1[None, :] + pot_eta1,
                       eta2=eta_prev.eta2[None, :, :] + pot_eta2, pot_eta1=pot_eta1,
                       pot_eta2=pot_eta2, pot_raw=pot_raw, pot_acts=pot_acts)


def row_blocks(n_new: int, n_prev: int) -> list[slice]:
    """Consecutive slices of the new-particle rows, ``ROW_BLOCK_BYTES`` of
    float64 per (rows, n_prev) array and at least one row each."""
    return _slices(n_new, max(1, ROW_BLOCK_BYTES // (8 * n_prev)))


def row_chunks(n_rows: int, row_bytes: int) -> list[slice]:
    """Consecutive slices of ``n_rows`` rows of ``row_bytes`` bytes each,
    ``CHUNK_BYTES`` per chunk and at least one row each."""
    return _slices(n_rows, max(1, CHUNK_BYTES // row_bytes))


def _slices(n: int, size: int) -> list[slice]:
    return [slice(lo, min(lo + size, n)) for lo in range(0, n, size)]


def block_weights(cloud_prev: ParticleCloud, kernel: KernelBatch, config: EngineConfig,
                  rows: slice, stats_prev: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Self-normalized importance weights of the new-particle rows ``rows``.

    The unnormalized log-weight of pair (i, j) is
    log q_{t-1|t}(xi_new_i, xi_prev_j) - log q_{t-1}(xi_prev_j); when
    clipping is enabled the clamped potential replaces the kernel ratio
    (they differ by a row constant when no clamp binds).  The block's
    cross is built here, into ``out`` if given, and ``compute_weights``
    normalises it in place.  ``stats_prev`` holds ``suff_stat_rows`` of
    the previous particles.  Shape (n_rows, N_prev).
    """
    if config.clip_enabled:
        cross = gaussian.inner_cross(kernel.pot_eta1[rows], kernel.pot_eta2[rows],
                                     cloud_prev.xi, stats=stats_prev, out=out)
        np.clip(cross, config.log_eps_minus, config.log_eps_plus, out=cross)
    else:
        cross = gaussian.log_density_cross(kernel.eta1[rows], kernel.eta2[rows],
                                           cloud_prev.xi, stats=stats_prev, out=out)
        cross -= cloud_prev.log_q_marginal
    return compute_weights(cross, rows.start).w


def compute_weights(log_unnorm: np.ndarray, first_row: int = 0) -> WeightMatrix:
    """Row-wise softmax of unnormalized log-weights, in place.

    A row without finite mass raises ``DegenerateRow`` naming its row of
    the whole update, ``first_row`` plus its index here.
    """
    return WeightMatrix(w=_normalize_rows(log_unnorm, first_row))


def weight_matrix(cloud_prev: ParticleCloud, kernel: KernelBatch,
                  config: EngineConfig) -> WeightMatrix:
    """All N_new x N_prev weights, written block by block into one array."""
    stats_prev = gaussian.suff_stat_rows(cloud_prev.xi)
    w = np.empty((kernel.eta1.shape[0], cloud_prev.n))
    for rows in row_blocks(*w.shape):
        block_weights(cloud_prev, kernel, config, rows, stats_prev, out=w[rows])
    return WeightMatrix(w=w)


def _normalize_rows(log_unnorm: np.ndarray, first_row: int = 0) -> np.ndarray:
    """Row-wise softmax, in place; a row without finite mass raises ``DegenerateRow``."""
    row_max = np.max(log_unnorm, axis=1)
    if not np.all(np.isfinite(row_max)):
        bad = first_row + int(np.nonzero(~np.isfinite(row_max))[0][0])
        raise DegenerateRow(f"weight row {bad} has no finite mass")
    log_unnorm -= row_max[:, None]
    w = np.exp(log_unnorm, out=log_unnorm)
    w /= w.sum(axis=1, keepdims=True)
    return w


def pair_terms(model, cloud_prev: ParticleCloud, xi_new: np.ndarray, y_t: np.ndarray,
               kernel: KernelBatch, stats_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows (left, right) of the pair bracket, whose product
    ``left @ right.T`` is h_prev_j + h~_t(xi_prev_j, xi_new_i), shape (N_new, N_prev).

    b_ij = h_prev_j + log m(x_j -> x_i) + log g(x_i) - log k_i(x_j), with
    log k_i(x) = <eta1_i, x> + x' eta2_i x - A_i: left is [transition rows
    of x_new, with A_i + log g_i in their constant column | -eta1_i,
    -vec eta2_i], right is [transition rows of x_prev, with h_prev_j in
    theirs | x_j, vec(x_j x_j')], K = 2d+2+d^2 columns.  ``stats_prev``
    holds ``suff_stat_rows`` of the previous particles.  A block of rows
    of the bracket is ``left[rows] @ right.T``.
    """
    n_new, d = xi_new.shape
    offset_new = (gaussian.log_partition_batch(kernel.eta1, kernel.eta2)
                  + models.log_g_batch(model, xi_new, y_t))
    rows_new, rows_prev = models.transition_rows(model, cloud_prev.xi, xi_new,
                                                 offset_new, cloud_prev.h_stat)
    left = np.concatenate([rows_new, -kernel.eta1, -kernel.eta2.reshape(n_new, d * d)],
                          axis=1)
    right = np.concatenate([rows_prev, stats_prev[:, :-1]], axis=1)
    return left, right


# ---------------------------------------------------------------------------
# Statistic updates
# ---------------------------------------------------------------------------


def _check_finite(cloud: ParticleCloud) -> None:
    """Raise ``NonFiniteStatistic`` naming the first particle with a NaN or inf.

    One sum per statistic, for g the cloud's column sums when it has
    them; only when a sum is not finite are the elements searched, so a
    finite array whose sum overflows passes.
    """
    for name, arr, total in (("h", cloud.h_stat, None), ("g", cloud.g_stat, cloud.g_sum),
                             ("f", cloud.f_stat, None)):
        if arr is None:
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            if np.isfinite(arr.sum() if total is None else total).all():
                continue
        bad = np.nonzero(~np.isfinite(arr))[0]
        if bad.size:
            raise NonFiniteStatistic(
                f"{name} statistic non-finite at particle {int(bad[0])}, t={cloud.t}")


def _checked_cloud(runner, xi: np.ndarray, log_q: np.ndarray, t: int, h: np.ndarray,
                   g: np.ndarray | None, f: np.ndarray | None,
                   g_sum: np.ndarray | None = None) -> ParticleCloud:
    """The cloud of time ``t`` under the runner's current marginal, checked finite."""
    cloud = ParticleCloud(xi=xi, h_stat=h, g_stat=g, f_stat=f, log_q_marginal=log_q,
                          eta=runner.current_eta(), t=t, chain=runner.chain_cur, g_sum=g_sum)
    _check_finite(cloud)
    return cloud


def update_statistics(cloud_prev: ParticleCloud, xi_new: np.ndarray, model, runner,
                      y_t: np.ndarray, kernel: KernelBatch, log_q_new: np.ndarray,
                      config: EngineConfig) -> ParticleCloud:
    """Full O(N^2) self-normalized update of all three statistics.

    One loop over blocks of new-particle rows (``row_blocks``).  Per block:
    ``block_weights`` gives the weights w; the bracket of ``pair_terms``'
    feature rows (h_prev included), times w, in one product with
    [x_j, vec(x_j x_j'), 1] gives the weighted first and second moments
    that contract the kernel scores, and h_new as its last column; w, cast
    to g's dtype, times g_prev goes straight into the new g's rows; and
    one product of w with ``models.grad_theta_pair_rows`` (the carried f
    first) gives the theta side.

    The helper thread (see the module docstring) takes, in this order,
    the theta rows, which read only the previous cloud, and then each
    block's g product, from one of two slots that alternate by block.
    Block 0's g product is submitted before ``pair_terms`` is built, and
    ``_finish_update``, shared with the sampled route, does everything
    that reads no g before it waits for the last products.  Every task
    has finished when the update returns or raises.  The previous-particle
    rows are built once per step.  Within a block the bracket runs over
    chunks of ``CHUNK_BYTES`` (``row_chunks``).  The block arrays (the
    weights and the helper's two slots), the bracket chunk, the moments,
    the theta rows and sums and the potential head's phi rows are the
    runner's work arrays, reused across steps; only h, g and f are new.
    """
    n_new = xi_new.shape[0]
    n_prev = cloud_prev.n
    work = runner.work
    blocks = row_blocks(n_new, n_prev)
    block_shape = (blocks[0].stop, n_prev)
    stats_prev = gaussian.suff_stat_rows(cloud_prev.xi)
    moments = work.get("moments", (n_new, stats_prev.shape[1]))   # (N_new, d + d*d + 1)
    crosses = [work.get("cross", block_shape)]
    bracket = work.get("bracket", (row_chunks(blocks[0].stop, 8 * n_prev)[0].stop, n_prev))
    h_new = np.empty(n_new)
    g_new = theta_task = theta_rows = theta_sums = left = None
    casts = []
    pending = []   # the helper's g products in flight, oldest first
    try:
        if cloud_prev.f_stat is not None:
            theta_rows = work.get("theta_rows", (n_prev, models.pair_rows_dim(model)))
            theta_sums = work.get("theta_sums", (n_new, theta_rows.shape[1]))
            theta_task = _helper_thread().submit(models.grad_theta_pair_rows, model,
                                                 cloud_prev.xi, cloud_prev.f_stat,
                                                 out=theta_rows)
        if cloud_prev.g_stat is not None:
            g_prev = cloud_prev.g_stat
            g_new = np.empty((n_new, g_prev.shape[1]), dtype=g_prev.dtype)
            # the helper reads one block's slot while the main thread fills the next
            if g_prev.dtype == np.float64:
                crosses.append(work.get("cross1", block_shape))
            else:
                casts = [work.get(f"w_g{k}", block_shape, g_prev.dtype) for k in (0, 1)]

        for k, rows in enumerate(blocks):
            size = rows.stop - rows.start
            if len(pending) == 2:
                pending.pop(0).result()   # frees the slot of block k - 2
            w = block_weights(cloud_prev, kernel, config, rows, stats_prev,
                              out=crosses[k % len(crosses)][:size])
            if g_new is not None:
                w_g = w
                if casts:
                    w_g = casts[k % 2][:size]
                    w_g[...] = w
                pending.append(_helper_thread().submit(np.matmul, w_g, g_prev,
                                                       out=g_new[rows]))
            if left is None:
                left, right = pair_terms(model, cloud_prev, xi_new, y_t, kernel, stats_prev)
            left_block, block = left[rows], moments[rows]
            for c in row_chunks(size, 8 * n_prev):
                cw = np.matmul(left_block[c], right.T, out=bracket[:c.stop - c.start])
                cw *= w[c]
                np.matmul(cw, stats_prev, out=block[c])
            h_new[rows] = block[:, -1]
            if theta_task is not None:
                theta_task.result()
                np.matmul(w, theta_rows, out=theta_sums[rows])

        def drain():
            for product in pending:
                product.result()

        return _finish_update(cloud_prev, model, runner, y_t, xi_new, log_q_new, kernel,
                              h_new, moments, g_new, theta_sums, g_ready=drain)
    finally:
        for task in [theta_task, *pending]:
            if task is not None:
                task.exception()   # waits; the error in flight is the one raised


def _finish_update(cloud_prev: ParticleCloud, model, runner, y_t: np.ndarray,
                   xi_new: np.ndarray, log_q_new: np.ndarray, kernel: KernelBatch,
                   h_new: np.ndarray, moments: np.ndarray | None, g_new: np.ndarray | None,
                   theta_sums: np.ndarray | None, g_ready=None,
                   idx: np.ndarray | None = None) -> ParticleCloud:
    """The tail of both routes: g, f and the checked cloud of time
    ``cloud_prev.t + 1`` from weighted sums.

    ``moments`` holds sum_j c_ij [x_j, vec(x_j x_j'), 1], c the bracket
    (centered on the sampled route) times the weights, which contracts
    the kernel scores into phi rows that are then added to ``g_new``, the
    weighted carried g; ``theta_sums`` is the weights times
    ``models.grad_theta_pair_rows``.  The theta finish, the kernel
    cotangents and the potential head's rows (``phi_pot``, a work array)
    read no g and come first.  Nothing reads ``g_new`` before
    ``g_ready()``, if given, returns: on the full route the helper may
    still be writing it until then.  Then one pass over ``g_new``'s rows,
    ``CHUNK_BYTES`` at a time, adds the kernel scores' phi rows and the
    head's (``runner.kernel_phi_contract``) and sums g's columns in
    float64 while the chunk is in cache; on the sampled route, given the
    draws ``idx``, the pass first gathers the chunk's carried g.  The
    sums check g for finiteness and give ``estimate`` g's mean.
    """
    d = xi_new.shape[1]
    f_new = g_sum = None
    if theta_sums is not None:
        f_new = models.grad_theta_pair_finish(model, xi_new, y_t, theta_sums)
    if g_new is not None:
        mean, second = gaussian.mean_params_batch(kernel.eta1, kernel.eta2)
        mass = moments[:, -1]
        u1 = moments[:, :d] - mass[:, None] * mean
        u2 = moments[:, d:-1].reshape(-1, d, d) - mass[:, None, None] * second
        cols = runner.pot_columns
        pot = runner.potential_phi_rows(
            u1, u2, kernel.pot_raw, kernel.pot_acts,
            out=runner.work.get("phi_pot", (g_new.shape[0], cols.stop - cols.start)))
    if g_ready is not None:
        g_ready()
    if g_new is not None:
        g_sum = np.zeros(g_new.shape[1])
        for c in row_chunks(g_new.shape[0], g_new.shape[1] * g_new.itemsize):
            rows = g_new[c]
            if idx is not None:
                _gather_mean(cloud_prev.g_stat, idx[c], out=rows)
            runner.kernel_phi_contract(u1[c], u2[c], pot[c], out=rows)
            with np.errstate(over="ignore", invalid="ignore"):   # _check_finite reads them
                g_sum += rows.sum(axis=0, dtype=np.float64)
    return _checked_cloud(runner, xi_new, log_q_new, cloud_prev.t + 1, h_new, g_new, f_new,
                          g_sum)


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
    the row that ``block_weights`` normalizes.  Each proposal is a uniform
    index j, accepted with probability exp(pot_ij - B_i), B_i from
    ``_potential_bound``; a draw's index is its first accepted proposal.
    A draw still pending after N proposals, what one exact row costs, is
    drawn from its row's categorical over the same clamped potential.
    Given that it reached the fallback, a draw is independent of its
    rejected proposals, so the hybrid stays an exact sampler (Dau &
    Chopin, 2023).

    The proposals come in rounds.  Each round gives every pending draw a
    block of k proposals and takes the first acceptance in each block; k
    starts at 1 and doubles each round, cut so that a draw's total is
    exactly N and so that the round's (pending, k, d + d^2) gather of
    proposal features stays within ``ROW_BLOCK_BYTES``.  A proposal is
    scored as its row's [eta1, vec eta2] times the proposed particle's
    sufficient statistics, the product ``inner_cross`` forms for whole
    rows.  A draw's index is then the same function of its proposal
    sequence as with one proposal per round, and k depends only on the
    rounds before (through how many draws are pending), never on the
    draw's new proposals, so every draw's law is unchanged.  While the
    budget does not bind, a step takes at most ceil(log2(N + 1)) rounds.
    A block is at most one longer than all the draw's proposals before
    it, so a draw first accepting at its t-th proposal has drawn fewer
    than 2t, those after the acceptance wasted; none draws more than N.

    Expected cost is O(N M) proposals when the bound is tight; a draw
    that falls back costs N proposals plus one exact row.  It needs
    clipping, which ``EngineConfig`` checks.
    """
    eps_lo, eps_hi = config.log_eps_minus, config.log_eps_plus
    xs = cloud_prev.xi
    n_prev, d = xs.shape
    n_new = kernel.pot_eta1.shape[0]
    bound = _potential_bound(kernel.pot_eta1, kernel.pot_eta2, xs, eps_lo, eps_hi)
    coef = np.concatenate([kernel.pot_eta1, kernel.pot_eta2.reshape(n_new, d * d)], axis=1)
    feats = gaussian.suff_stat_rows(xs)[:, :-1]      # [x, vec xx']
    idx = np.full((n_new, m_draws), -1, dtype=np.int64)
    rows, cols = np.nonzero(idx < 0)
    used, k = 0, 1
    while rows.size and used < n_prev:
        fit = max(1, ROW_BLOCK_BYTES // (8 * feats.shape[1] * rows.size))
        k = min(k, n_prev - used, fit)
        prop = rng.integers(0, n_prev, size=(rows.size, k))
        log_pot = np.matmul(np.take(feats, prop, axis=0), coef[rows, :, None])[..., 0]
        np.clip(log_pot, eps_lo, eps_hi, out=log_pot)
        accept = np.log(rng.random((rows.size, k))) < log_pot - bound[rows, None]
        hit = accept.any(axis=1)
        first = np.argmax(accept[hit], axis=1)
        idx[rows[hit], cols[hit]] = prop[hit, first]
        rows, cols = rows[~hit], cols[~hit]
        used += k
        k *= 2
    if rows.size:
        fb_rows, pos = np.unique(rows, return_inverse=True)
        log_pot = np.clip(gaussian.inner_cross(kernel.pot_eta1[fb_rows],
                                               kernel.pot_eta2[fb_rows], xs), eps_lo, eps_hi)
        fallback = _categorical_rows(_normalize_rows(log_pot), m_draws, rng)
        idx[rows, cols] = fallback[pos, cols]
    return idx


def backward_sample_update(cloud_prev: ParticleCloud, xi_new: np.ndarray,
                           rng: np.random.Generator, model, runner, y_t: np.ndarray,
                           kernel: KernelBatch, log_q_new: np.ndarray,
                           config: EngineConfig) -> ParticleCloud:
    """O(N M) update: the full update with weight 1/M at each draw (i, idx[i, m]).

    M is ``config.m_backward``.  The draws are by accept-reject when
    ``config.method`` is "accept_reject", else from the categorical rows
    of the weights.  The bracket of ``pair_terms``' rows, the moments, the
    carried g and the theta rows are averaged over each row's draws; the
    g-bracket is centered by the new h.  The theta rows and their means
    go into the runner's work arrays; the carried g is gathered straight
    into the new g, chunk by chunk, in the tail's pass (``_finish_update``).
    """
    m_draws = config.m_backward
    if config.method == "accept_reject":
        idx = _accept_reject_rows(cloud_prev, kernel, config, m_draws, rng)
    else:
        idx = _categorical_rows(weight_matrix(cloud_prev, kernel, config).w, m_draws, rng)

    stats_prev = gaussian.suff_stat_rows(cloud_prev.xi)
    left, right = pair_terms(model, cloud_prev, xi_new, y_t, kernel, stats_prev)
    bracket = np.einsum("nk,nmk->nm", left, right[idx])
    h_new = bracket.mean(axis=1)
    moments = g_new = theta_sums = None
    n_new = xi_new.shape[0]
    if cloud_prev.g_stat is not None:
        moments = np.einsum("nm,nmk->nk", (bracket - h_new[:, None]) / m_draws,
                            stats_prev[idx])
        g_prev = cloud_prev.g_stat
        g_new = np.empty((n_new, g_prev.shape[1]), dtype=g_prev.dtype)   # gathered in the tail
    if cloud_prev.f_stat is not None:
        work = runner.work
        theta_rows = models.grad_theta_pair_rows(
            model, cloud_prev.xi, cloud_prev.f_stat,
            out=work.get("theta_rows", (cloud_prev.n, models.pair_rows_dim(model))))
        theta_sums = _gather_mean(theta_rows, idx,
                                  out=work.get("theta_sums", (n_new, theta_rows.shape[1])))
    return _finish_update(cloud_prev, model, runner, y_t, xi_new, log_q_new, kernel, h_new,
                          moments, g_new, theta_sums, idx=idx)


def _gather_mean(stat: np.ndarray, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``stat[idx].mean(axis=1)`` into ``out``, ``CHUNK_BYTES`` of rows at a time.

    A chunk's draws are added one gathered draw at a time, those after
    the first through one chunk-sized buffer.  The indices are in range;
    ``mode="clip"`` only keeps ``take`` from buffering its ``out``.
    Returns ``out``.
    """
    m_draws = idx.shape[1]
    chunks = row_chunks(out.shape[0], out.shape[1] * out.itemsize)
    buf = np.empty((chunks[0].stop, out.shape[1]), out.dtype) if m_draws > 1 else None
    for c in chunks:
        rows = out[c]
        np.take(stat, idx[c, 0], axis=0, out=rows, mode="clip")
        for m in range(1, m_draws):
            rows += np.take(stat, idx[c, m], axis=0, out=buf[:c.stop - c.start], mode="clip")
        rows *= 1.0 / m_draws
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
    The mean of g is the update's float64 column sums of g over N (for a
    cloud without them, a mean with a float64 accumulator), so
    ``grad_phi`` is float64 whatever the dtype of g.
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
        if cloud.g_sum is None:
            grad_phi = cloud.g_stat.mean(axis=0, dtype=np.float64)
        else:
            grad_phi = cloud.g_sum / cloud.n
        gradients.marginal_cotangent_phi(chain, u1, u2, out=grad_phi[None])
    if cloud.f_stat is not None:
        grad_theta = cloud.f_stat.mean(axis=0)
    return EstimatorOutput(elbo=elbo, grad_phi=grad_phi, grad_theta=grad_theta)


@dataclass
class EngineState:
    cloud: ParticleCloud
    runner: object


def init_state(model, runner, y0: np.ndarray, config: EngineConfig,
               rng: np.random.Generator) -> EngineState:
    """The time-zero state.

    The engine reads the truncation window from the runner, so a runner
    whose ``window`` differs from ``config.truncation_window`` raises
    ``ConflictingSetting`` rather than ignoring the config.
    """
    if runner.window is not None and runner.window != config.truncation_window:
        raise ConflictingSetting(
            f"runner window {runner.window} != EngineConfig.truncation_window "
            f"{config.truncation_window}")
    cloud = init_cloud(model, runner, y0, config, rng)
    return EngineState(cloud=cloud, runner=runner)


def step(state: EngineState, y_t: np.ndarray, model, config: EngineConfig,
         rng: np.random.Generator) -> tuple[EngineState, EstimatorOutput]:
    """Advance one observation: sample, weight, update, estimate."""
    runner = state.runner
    runner.begin_step(y_t)
    eta_t = runner.current_eta()
    xi_new = gaussian.sample(eta_t, rng, config.n_particles)
    log_q_new = gaussian.log_density_cross(eta_t.eta1[None], eta_t.eta2[None], xi_new)[0]
    kernel = build_kernel(runner, xi_new)
    if config.method == "full":
        cloud_new = update_statistics(state.cloud, xi_new, model, runner, y_t, kernel,
                                      log_q_new, config)
    else:
        cloud_new = backward_sample_update(state.cloud, xi_new, rng, model, runner, y_t,
                                           kernel, log_q_new, config)
    out = estimate(cloud_new, use_control_variates=config.cv_grad_phi)
    return EngineState(cloud=cloud_new, runner=runner), out
