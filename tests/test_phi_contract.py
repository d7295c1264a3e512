"""The contracted phi-side forms against their expanded references.

The engine contracts every phi-side quantity in natural-parameter space
and widens it to dim_phi once, into the g array of the new cloud.  The
references here are the expanded forms: one score row per particle, a
fresh (n, dim_phi) kernel contraction, an (N, M, dim_phi) gather.
"""

import tracemalloc

import numpy as np
import pytest

from streamvi import engine, gaussian, gradients, models, oracle, variational as var
from streamvi.errors import NonFiniteStatistic

D = 2


def make_model():
    return models.LinearGaussianSSM(F=0.7 * np.eye(D), G=np.eye(D), q_var=0.1, r_var=0.25)


def make_run(n, method="full", seed=0, hidden=5, steps=2, clip=False, g_dtype="float64"):
    """An engine state after ``steps`` steps, so g and f are non-zero."""
    rng = np.random.default_rng(seed)
    params = var.init_amortizer(rng, D, D, hidden=hidden, head_hidden=(hidden,),
                                pot_hidden=(hidden,), scale=0.6)
    runner = engine.AmortizedRunner(params, window=2)
    config = engine.EngineConfig(n_particles=n, method=method, clip_enabled=clip,
                                 g_dtype=g_dtype)
    model = make_model()
    ys = rng.standard_normal((steps + 2, D))
    state = engine.init_state(model, runner, ys[0], config, rng)
    for t in range(1, steps + 1):
        state, _ = engine.step(state, ys[t], model, config, rng)
    return state, model, config, rng, ys[steps + 1]


def assert_close(got, want):
    # rtol 1e-12, with an absolute floor at 1e-12 of the largest entry for
    # entries that cancel to near zero
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 7])
@pytest.mark.parametrize("cv", [True, False], ids=["cv", "no_cv"])
def test_estimate_matches_expanded_scores(n, cv):
    state, *_ = make_run(n, seed=10 + n)
    cloud = state.cloud
    assert np.abs(cloud.g_stat).max() > 0.0
    coeff = cloud.h_stat - cloud.h_stat.mean() if cv else cloud.h_stat
    want = (gradients.marginal_scores_phi(cloud.chain, cloud.xi) * coeff[:, None]
            + cloud.g_stat).mean(0)
    assert_close(engine.estimate(cloud, use_control_variates=cv).grad_phi, want)


# ---------------------------------------------------------------------------
# kernel_phi_contract
# ---------------------------------------------------------------------------


def expanded_kernel_contract(runner, u1, u2, pot_raw, pot_acts):
    """Raw cotangents of every row through the full chain Jacobian, plus the head."""
    chain = runner.chain_prev
    raws = np.broadcast_to(chain.raw, (u1.shape[0], chain.raw.shape[0]))
    out = var.natural_cotangent_to_raw(raws, u1, u2, D) @ chain.jac
    raw_cots = var.natural_cotangent_to_raw(pot_raw, u1, u2, D, diag_softplus=False)
    spec = runner.layout.by_name["head_potential"]
    out[:, spec.offset:spec.offset + spec.size] += var.mlp.vjp_params_batched(
        runner.params.head_potential, None, raw_cots, acts=pot_acts)
    return out


def kernel_contract_case(n, g_dtype):
    """The kernel cotangents and potential-head inputs of a step (the
    arguments of ``potential_phi_rows``), their expanded phi rows and a
    float64 array of noise for ``kernel_phi_contract`` to add them to."""
    state, _, config, rng, y = make_run(n, seed=20 + n, g_dtype=g_dtype)
    runner = state.runner
    runner.begin_step(y)
    xi_new = gaussian.sample(runner.current_eta(), rng, n)
    kernel = engine.build_kernel(runner, xi_new)
    u1 = rng.standard_normal((n, D))
    u2 = rng.standard_normal((n, D, D))
    want = expanded_kernel_contract(runner, u1, u2, kernel.pot_raw, kernel.pot_acts)
    g = rng.standard_normal((n, runner.dim_phi))
    return runner, (u1, u2, kernel.pot_raw, kernel.pot_acts), want, g


def head_rows(runner, u1, u2, pot_raw, pot_acts):
    """``potential_phi_rows`` written over NaNs."""
    cols = runner.pot_columns
    out = np.full((u1.shape[0], cols.stop - cols.start), np.nan)
    assert runner.potential_phi_rows(u1, u2, pot_raw, pot_acts, out=out) is out
    return out


@pytest.mark.parametrize("n", [1, 6])
def test_potential_phi_rows_are_the_head_columns(n):
    runner, args, want, _ = kernel_contract_case(n, "float64")
    assert_close(head_rows(runner, *args), want[:, runner.pot_columns])


@pytest.mark.parametrize("n", [1, 6])
def test_kernel_phi_contract_adds_the_expanded_form(n):
    runner, args, want, g = kernel_contract_case(n, "float64")
    got = g.copy()
    assert runner.kernel_phi_contract(*args[:2], head_rows(runner, *args), out=got) is got
    assert_close(got, g + want)


@pytest.mark.parametrize("n", [1, 6])
def test_kernel_phi_contract_runs_in_the_dtype_of_out(n):
    runner, args, want, g = kernel_contract_case(n, "float32")
    pot = head_rows(runner, *args)
    g32 = g.astype(np.float32)
    got = g32.copy()
    assert runner.kernel_phi_contract(*args[:2], pot, out=got) is got
    assert got.dtype == np.float32
    # float32 rounding: rtol 1e-5, with an absolute floor at 1e-5 of the largest entry
    np.testing.assert_allclose(got, g + want, rtol=1e-5, atol=1e-5 * np.abs(want).max())
    # the chain's product leaves the head's columns unchanged, and the float64
    # head rows are added to them unrounded
    cols = runner.pot_columns
    np.testing.assert_array_equal(got[:, cols], (g32[:, cols] + pot).astype(np.float32))


# ---------------------------------------------------------------------------
# sampled gather
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,m", [(5, 1), (5, 2), (5, 3), (3, 7)])
@pytest.mark.parametrize("chunk_rows", [1, 2, None], ids=["row", "two_rows", "whole"])
def test_gather_mean_matches_three_dim_gather(n, m, chunk_rows, monkeypatch):
    rng = np.random.default_rng(30 + m)
    stat = rng.standard_normal((n, 11))
    idx = rng.integers(0, n, (n, m))
    monkeypatch.setattr(engine, "CHUNK_BYTES", 8 * 11 * (chunk_rows or n))
    out = np.full((n, 11), np.nan)
    assert engine._gather_mean(stat, idx, out) is out
    np.testing.assert_allclose(out, stat[idx].mean(axis=1), rtol=1e-15, atol=0)


# ---------------------------------------------------------------------------
# the previous cloud is never written
# ---------------------------------------------------------------------------


def cloud_arrays(cloud):
    chain = cloud.chain
    arrays = {"xi": cloud.xi, "h": cloud.h_stat, "g": cloud.g_stat, "f": cloud.f_stat,
              "log_q": cloud.log_q_marginal}
    if chain is not None:
        for name in ("raw", "eta1", "eta2", "jac", "nat_jac"):
            arrays["chain." + name] = getattr(chain, name)
    return arrays


# the runner's work arrays that each route uses, by name.  The full route's
# g product runs on a helper thread that reads queued blocks while the main
# thread fills the next, so its left operand has up to three slots, never
# more than the update has blocks: "w_g0", "w_g1" and "w_g2", the weights
# cast to float32, or for a float64 g the weights themselves, in "cross",
# "cross1" and "cross2".  The steps here have one block, so one slot.
# "phi_pot" holds the potential head's part of the kernel scores' phi rows,
# which every route adds to the new g; "theta_rows" and "theta_sums" the
# theta pair rows and their weighted sums.  The categorical draws build each
# block of weights in "cross"
THETA = {"theta_rows", "theta_sums"}
WORK_ARRAYS = {"full": {"phi_pot", "cross", "bracket", "moments"} | THETA,
               "categorical": {"phi_pot", "cross"} | THETA,
               "accept_reject": {"phi_pot"} | THETA}


def assert_no_work_array(runner, clouds, outs=()):
    """No array of a cloud or an output shares memory with a work array."""
    held = [(f"cloud {i} {name}", arr) for i, cloud in enumerate(clouds)
            for name, arr in cloud_arrays(cloud).items() if arr is not None]
    held += [(f"output {i} {name}", getattr(out, name)) for i, out in enumerate(outs)
             for name in ("grad_phi", "grad_theta")]
    for key, work in runner.work._arrays.items():
        for name, arr in held:
            assert not np.shares_memory(arr, work), (name, key)


@pytest.mark.parametrize("method", ["full", "categorical", "accept_reject"])
def test_step_leaves_previous_cloud_unchanged(method):
    check_step_leaves_previous_cloud_unchanged(method, "float64")


@pytest.mark.parametrize("method", ["full", "categorical", "accept_reject"])
def test_step_leaves_previous_cloud_unchanged_float32(method):
    check_step_leaves_previous_cloud_unchanged(method, "float32")


def check_step_leaves_previous_cloud_unchanged(method, g_dtype):
    # three steps before, so the runner's work arrays exist and have been written
    state, model, config, rng, y = make_run(6, method=method, seed=40, steps=3,
                                            clip=method == "accept_reject", g_dtype=g_dtype)
    before = {k: v.copy() for k, v in cloud_arrays(state.cloud).items()}
    new_state, out = engine.step(state, y, model, config, rng)
    for name, arr in cloud_arrays(state.cloud).items():
        np.testing.assert_array_equal(arr, before[name], err_msg=name)
    slots = set()
    if method == "full":
        slots = {"w_g0"} if g_dtype == "float32" else set()
    assert set(state.runner.work._arrays) == WORK_ARRAYS[method] | slots
    assert_no_work_array(state.runner, [state.cloud, new_state.cloud], [out])


def test_conjugate_full_step_holds_no_work_array():
    # the conjugate runner takes the full route with theta-gradients only
    model = make_model()
    rng = np.random.default_rng(41)
    ys = rng.standard_normal((5, D))
    family = var.exact_conjugate_mode(model, oracle.kalman_filter(model, ys))
    runner = engine.ConjugateRunner(family)
    config = engine.EngineConfig(n_particles=6, method="full")
    state = engine.init_state(model, runner, ys[0], config, rng)
    clouds, outs = [state.cloud], []
    for t in range(1, len(ys)):
        state, out = engine.step(state, ys[t], model, config, rng)
        clouds.append(state.cloud)
        outs.append(out)
    assert set(runner.work._arrays) == {"cross", "bracket", "moments"} | THETA
    assert_no_work_array(runner, clouds, outs)


# ---------------------------------------------------------------------------
# allocations
# ---------------------------------------------------------------------------


def peak_units(fn, unit_bytes):
    """Traced peak above the start of ``fn``, in units of ``unit_bytes``."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / unit_bytes


def test_estimate_and_sampled_step_allocate_few_phi_arrays():
    check_estimate_and_sampled_step_allocate_few_phi_arrays("float64")


def test_estimate_and_sampled_step_allocate_few_phi_arrays_float32():
    check_estimate_and_sampled_step_allocate_few_phi_arrays("float32")


def check_estimate_and_sampled_step_allocate_few_phi_arrays(g_dtype):
    n = 500
    state, model, config, rng, y = make_run(n, method="accept_reject", seed=50, hidden=16,
                                            steps=3, clip=True, g_dtype=g_dtype)
    # an (N, dim_phi) array of g's dtype
    unit = n * state.runner.dim_phi * state.cloud.g_stat.itemsize
    # the expanded forms build (N, dim_phi) scores, products and sums
    assert peak_units(lambda: engine.estimate(state.cloud), unit) <= 0.1
    # the kept g array and chunk-sized transients (1.25 and 1.51 units measured
    # for float64 and float32 g); the expanded forms add an (N, M, dim_phi)
    # gather and a fresh (N, dim_phi) contraction
    assert peak_units(lambda: engine.step(state, y, model, config, rng), unit) <= 1.75


@pytest.mark.parametrize("clip", [False, True], ids=["kernel_weights", "clamped_weights"])
def test_full_step_keeps_two_pair_arrays(clip):
    n = 500
    state, model, config, rng, y = make_run(n, seed=51, hidden=16, steps=3, clip=clip)
    unit = n * n * 8
    kept = (state.cloud.g_stat.nbytes + state.cloud.f_stat.nbytes) / unit
    units = peak_units(lambda: engine.step(state, y, model, config, rng), unit)
    # the weights, the kernel cross and the bracket chunk are work arrays of
    # earlier steps, so the step adds the new cloud's g and f and transients
    # of 0.36 units measured; one N x N array alive at once adds 1.0
    assert units <= 0.75 + kept
    assert units <= 2.5


@pytest.mark.parametrize("method,bound", [("full", 5.0), ("accept_reject", 2.25),
                                          ("categorical", 2.75)])
def test_step_scratch_stays_within_budget(method, bound, monkeypatch):
    # the runner's work arrays plus the traced peak of one step, in units of
    # the new g array: 4.60 (full) and 1.93 (accept-reject) measured, where a
    # work array of g's shape for the kernel scores' phi rows made 7.52 and
    # 3.71.  The categorical draws run in 4 blocks of weights here: 2.26
    # measured, where all N x N weights and their N x N cumulative sums made 3.17
    n = 500
    if method == "categorical":
        monkeypatch.setattr(engine, "ROW_BLOCK_BYTES", 512 << 10)
        assert len(engine.row_blocks(n, n)) == 4
    state, model, config, rng, y = make_run(n, method=method, seed=50, hidden=16, steps=3,
                                            clip=method == "accept_reject", g_dtype="float32")
    g_shape = state.cloud.g_stat.shape
    unit = n * state.runner.dim_phi * state.cloud.g_stat.itemsize
    peak = peak_units(lambda: engine.step(state, y, model, config, rng), unit)
    work = state.runner.work._arrays
    assert not [name for name, arr in work.items() if arr.shape == g_shape]
    assert sum(arr.nbytes for arr in work.values()) / unit + peak <= bound


# ---------------------------------------------------------------------------
# the finiteness check
# ---------------------------------------------------------------------------


def small_cloud(rng, n=5):
    return engine.ParticleCloud(xi=rng.standard_normal((n, D)),
                                h_stat=rng.standard_normal(n),
                                g_stat=rng.standard_normal((n, 4)),
                                f_stat=rng.standard_normal((n, 3)),
                                log_q_marginal=np.zeros(n), t=9)


@pytest.mark.parametrize("name", ["g", "f"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_finite_names_the_particle(name, bad):
    cloud = small_cloud(np.random.default_rng(60))
    getattr(cloud, name + "_stat")[3, 1] = bad
    message = f"{name} statistic non-finite at particle 3,"
    with pytest.raises(NonFiniteStatistic, match=message):
        engine._check_finite(cloud)


def test_check_finite_passes_a_finite_sum_overflow():
    cloud = small_cloud(np.random.default_rng(61))
    cloud.g_stat[1, 0] = cloud.g_stat[2, 3] = 1e308
    cloud.f_stat[0, 0] = cloud.f_stat[4, 2] = -1e308
    with np.errstate(over="ignore"):
        assert not np.isfinite(cloud.g_stat.sum())
    engine._check_finite(cloud)
