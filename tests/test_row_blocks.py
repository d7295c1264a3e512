"""The full route one block of new-particle rows at a time, and every
route's passes one chunk of rows at a time.

``engine.ROW_BLOCK_BYTES`` sets how many rows a block holds; the tests
force blocks of one row, of a size that does not divide N_new, and of the
whole matrix.  Each row's weights and bracket depend on that row alone,
so the blocked update equals the one-block update to BLAS rounding.
``engine.CHUNK_BYTES`` sets the chunks of the bracket, of the tail's pass
over the new g and of the sampled gathers, forced the same three ways.
"""

import contextlib
import copy
import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamvi import engine, gaussian, mlp, models, variational as var
from streamvi.errors import DegenerateRow, NonFiniteStatistic

D = 2
KINDS = ["lgssm", "chaotic", "residual"]


def make_model(kind, rng):
    if kind == "lgssm":
        f = 0.6 * np.eye(D) + 0.1 * rng.standard_normal((D, D))
        return models.LinearGaussianSSM(F=f, G=rng.standard_normal((D, D)), q_var=0.1,
                                        r_var=0.25)
    if kind == "chaotic":
        return models.ChaoticRNNModel(W=rng.standard_normal((D, D)) / math.sqrt(D))
    return models.ResidualNonlinearSSM(
        f_net=mlp.init_mlp(rng, [D, 6, D], scale=0.5),
        g_net=mlp.init_mlp(rng, [D, 6, D], scale=0.5),
        q_diag=rng.uniform(0.05, 0.3, D), r_diag=rng.uniform(0.05, 0.3, D))


def make_runner(rng):
    params = var.init_amortizer(rng, D, D, hidden=5, head_hidden=(5,), pot_hidden=(5,),
                                scale=0.6)
    return engine.AmortizedRunner(params, window=2)


@contextlib.contextmanager
def block_rows(rows, n_prev):
    """Blocks of ``rows`` new-particle rows for a previous cloud of ``n_prev``."""
    saved = engine.ROW_BLOCK_BYTES
    engine.ROW_BLOCK_BYTES = 8 * n_prev * rows
    try:
        yield
    finally:
        engine.ROW_BLOCK_BYTES = saved


def update_pieces(kind, n_prev, n_new, clip, seed, g_dtype="float64"):
    """A cloud with non-zero carried g and f, and the next step's inputs."""
    rng = np.random.default_rng(seed)
    model = make_model(kind, rng)
    runner = make_runner(rng)
    ys = rng.standard_normal((3, D))
    config = engine.EngineConfig(n_particles=n_prev, method="full", g_dtype=g_dtype)
    state = engine.init_state(model, runner, ys[0], config, rng)
    state, _ = engine.step(state, ys[1], model, config, rng)
    runner.begin_step(ys[2])
    eta = runner.current_eta()
    xi_new = gaussian.sample(eta, rng, n_new)
    log_q_new = gaussian.log_density_cross(eta.eta1[None], eta.eta2[None], xi_new)[0]
    kernel = engine.build_kernel(runner, xi_new)
    if clip:
        # bounds at the potentials' quartiles, so both clamps bind where n_prev > 1
        pot = gaussian.inner_cross(kernel.pot_eta1, kernel.pot_eta2, state.cloud.xi)
        lo, hi = np.quantile(pot, [0.25, 0.75])
        lo, hi = (lo, hi) if lo < hi else (lo - 1.0, lo + 1.0)
        config = engine.EngineConfig(n_particles=n_prev, method="full", clip_enabled=True,
                                     log_eps_minus=lo, log_eps_plus=hi, g_dtype=g_dtype)
    return model, runner, state.cloud, xi_new, ys[2], kernel, log_q_new, config


def blocked_update(pieces, rows):
    model, runner, cloud, xi_new, y, kernel, log_q_new, config = pieces
    with block_rows(rows, cloud.n):
        new = engine.update_statistics(cloud, xi_new, model, runner, y, kernel, log_q_new,
                                       config)
        w = engine.weight_matrix(cloud, kernel, config).w
    return new, w


def assert_same(got, want):
    # rtol 1e-12, with an absolute floor at 1e-12 of the array's largest entry for
    # entries that cancel: a one-row block is a matrix-vector product, which BLAS
    # sums in another order
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def assert_same_f32(got, want):
    # a float32 g: rtol 1e-5, with an absolute floor at 1e-5 of the array's largest entry
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5 * np.abs(want).max())


def check_blocked_update_equals_one_block(pieces, assert_g):
    n_new = pieces[3].shape[0]
    whole, w_whole = blocked_update(pieces, n_new)
    np.testing.assert_allclose(w_whole.sum(axis=1), 1.0, rtol=1e-12)
    sizes = [1] + [k for k in range(2, n_new) if n_new % k][:1]
    for rows in sizes:
        got, w_got = blocked_update(pieces, rows)
        assert_same(w_got, w_whole)
        for name in ("h_stat", "f_stat"):
            assert_same(getattr(got, name), getattr(whole, name))
        assert got.g_stat.dtype == whole.g_stat.dtype == pieces[2].g_stat.dtype
        assert_g(got.g_stat, whole.g_stat)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS), n_prev=st.integers(1, 9), n_new=st.integers(1, 9),
       clip=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_blocked_update_equals_one_block(kind, n_prev, n_new, clip, seed):
    pieces = update_pieces(kind, n_prev, n_new, clip, seed)
    check_blocked_update_equals_one_block(pieces, assert_same)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS), n_prev=st.integers(1, 9), n_new=st.integers(1, 9),
       clip=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_blocked_update_equals_one_block_float32(kind, n_prev, n_new, clip, seed):
    # a one-row block multiplies the float32 g by a matrix-vector product, the
    # whole block by a matrix product; h and f never read g
    pieces = update_pieces(kind, n_prev, n_new, clip, seed, g_dtype="float32")
    check_blocked_update_equals_one_block(pieces, assert_same_f32)


@pytest.mark.parametrize("g_dtype", ["float64", "float32"])
@pytest.mark.parametrize("clip", [False, True], ids=["kernel", "clamped"])
@pytest.mark.parametrize("kind", ["lgssm", "residual"])
def test_overlapped_g_product_equals_serial_products(kind, clip, g_dtype):
    # blocks of 8, 8 and 7 rows: each block's g rows are the product that the
    # helper thread ran, the same BLAS call as one made in line, so they are equal
    # bit for bit once the kernel scores' contraction is left out
    model, runner, cloud, xi_new, y, kernel, log_q_new, config = update_pieces(
        kind, 40, 23, clip, seed=11, g_dtype=g_dtype)
    runner.kernel_phi_contract = no_kernel_scores
    g_prev = cloud.g_stat
    assert np.abs(g_prev).max() > 0
    with block_rows(8, cloud.n):
        blocks = engine.row_blocks(23, cloud.n)
        new = engine.update_statistics(cloud, xi_new, model, runner, y, kernel, log_q_new,
                                       config)
        w = engine.weight_matrix(cloud, kernel, config).w
    assert [b.stop - b.start for b in blocks] == [8, 8, 7]
    want = np.concatenate([np.matmul(w[rows].astype(g_prev.dtype), g_prev)
                           for rows in blocks])
    assert new.g_stat.dtype == g_prev.dtype
    np.testing.assert_array_equal(new.g_stat, want)


def no_kernel_scores(u1, u2, pot, out):
    """``kernel_phi_contract`` with all kernel scores zero: it adds nothing to g."""
    return out


def slow_helper(monkeypatch, delay_s):
    """Make every helper task wait ``delay_s`` before it runs; returns the list
    of (function name, future) of the tasks, in the order submitted."""
    tasks = []
    helper = engine._helper_thread()

    class Slow:
        def submit(self, fn, *args, **kwargs):
            def late():
                time.sleep(delay_s)
                return fn(*args, **kwargs)
            tasks.append((fn.__name__, helper.submit(late)))
            return tasks[-1][1]

    monkeypatch.setattr(engine, "_helper_thread", Slow)
    return tasks


def check_failed_update_leaves_nothing_running(monkeypatch, clip, breakage, error, match,
                                               n_products):
    """``update_statistics`` on blocks of 2 of 7 rows, with slow helper tasks
    and ``breakage(kernel)`` done first, raises ``error``; when it leaves, the
    theta-rows task and ``n_products`` g products have been submitted and all
    have finished, and a clean update on the failed update's work arrays
    equals one on fresh arrays."""
    model, runner, cloud, xi_new, y, kernel, log_q_new, config = update_pieces(
        "lgssm", 5, 7, clip, seed=3)
    breakage(kernel)
    tasks = slow_helper(monkeypatch, 0.05)
    with block_rows(2, cloud.n), pytest.raises(error, match=match):
        engine.update_statistics(cloud, xi_new, model, runner, y, kernel, log_q_new, config)
    assert [name for name, _ in tasks] == ["grad_theta_pair_rows"] + ["matmul"] * n_products
    assert all(task.done() for _, task in tasks)
    monkeypatch.undo()

    def clean_update(work):
        model, runner, cloud, xi_new, y, kernel, log_q_new, config = update_pieces(
            "lgssm", 5, 7, clip, seed=3)
        if work is not None:
            runner.work = work
        with block_rows(2, cloud.n):
            return engine.update_statistics(cloud, xi_new, model, runner, y, kernel,
                                            log_q_new, config)

    got, want = clean_update(runner.work), clean_update(None)
    for name in ("h_stat", "g_stat", "f_stat"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


@pytest.mark.parametrize("clip", [False, True], ids=["kernel", "clamped"])
def test_degenerate_row_in_a_later_block_names_its_row(clip, monkeypatch):
    # row 5 is in block 2: the error leaves after blocks 0 and 1 submitted their products
    def breakage(kernel):
        (kernel.pot_eta1 if clip else kernel.eta1)[5] = np.nan

    check_failed_update_leaves_nothing_running(monkeypatch, clip, breakage, DegenerateRow,
                                               r"weight row 5 ", n_products=2)


@pytest.mark.parametrize("clip", [False, True], ids=["kernel", "clamped"])
def test_degenerate_row_in_block_0_waits_for_the_theta_rows(clip, monkeypatch):
    # the error leaves before any g product, while the theta rows still run
    def breakage(kernel):
        (kernel.pot_eta1 if clip else kernel.eta1)[1] = np.nan

    check_failed_update_leaves_nothing_running(monkeypatch, clip, breakage, DegenerateRow,
                                               r"weight row 1 ", n_products=0)


@pytest.mark.parametrize("clip", [False, True], ids=["kernel", "clamped"])
def test_failed_theta_rows_leave_nothing_running(clip, monkeypatch):
    # the theta rows raise on the helper; the main thread meets the error at
    # block 0's theta sums, with block 0's g product still waiting behind it
    def pair_features(self, xs_prev):
        raise ValueError("no pair features")

    def breakage(kernel):
        monkeypatch.setattr(models.LinearGaussianSSM, "pair_features", pair_features)

    check_failed_update_leaves_nothing_running(monkeypatch, clip, breakage, ValueError,
                                               "no pair features", n_products=1)


def test_blocked_full_step_holds_no_dense_array():
    check_blocked_full_step_holds_no_dense_array("float64")


def test_blocked_full_step_holds_no_dense_array_float32():
    check_blocked_full_step_holds_no_dense_array("float32")


def check_blocked_full_step_holds_no_dense_array(g_dtype):
    n = 1200
    rng = np.random.default_rng(12)
    model = make_model("lgssm", rng)
    runner = make_runner(rng)
    ys = rng.standard_normal((3, D))
    config = engine.EngineConfig(n_particles=n, method="full", g_dtype=g_dtype)
    state = engine.init_state(model, runner, ys[0], config, rng)
    with block_rows(n // 16, n):
        state, _ = engine.step(state, ys[1], model, config, rng)  # fills the work arrays
        tracemalloc.start()
        try:
            new, _ = engine.step(state, ys[2], model, config, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    # beyond the new g and f: two blocks of 75 rows (0.125 units of n^2 floats) and
    # the (n, k) rows of both sides, with k small; a dense (n, n) array is a unit
    assert peak <= new.cloud.g_stat.nbytes + new.cloud.f_stat.nbytes + 0.25 * n * n * 8


# ---------------------------------------------------------------------------
# chunks
# ---------------------------------------------------------------------------


def chunk_run(kind, method, g_dtype, n=7, seed=8):
    """An engine state after two steps, so g and f are non-zero, and the next
    observation."""
    rng = np.random.default_rng(seed)
    model = make_model(kind, rng)
    runner = make_runner(rng)
    config = engine.EngineConfig(n_particles=n, method=method, g_dtype=g_dtype,
                                 clip_enabled=method == "accept_reject")
    ys = rng.standard_normal((4, D))
    state = engine.init_state(model, runner, ys[0], config, rng)
    for y in ys[1:3]:
        state, _ = engine.step(state, y, model, config, rng)
    return state, model, config, rng, ys[3]


def plant_nan(runner, particle):
    """Make ``kernel_phi_contract`` leave a NaN in ``particle``'s g row, in
    whichever chunk holds it."""
    contract = runner.kernel_phi_contract
    done = [0]   # rows of the chunks contracted so far

    def planted(u1, u2, pot, out):
        contract(u1, u2, pot, out=out)
        if done[0] <= particle < done[0] + len(out):
            out[particle - done[0], 0] = np.nan
        done[0] += len(out)
        return out

    runner.kernel_phi_contract = planted


def chunked_step(pieces, n_bytes, monkeypatch, nan_at=None):
    """One step of a copy of ``pieces`` with ``engine.CHUNK_BYTES = n_bytes``."""
    state, model, config, rng, y = copy.deepcopy(pieces)
    monkeypatch.setattr(engine, "CHUNK_BYTES", n_bytes)
    if nan_at is not None:
        plant_nan(state.runner, nan_at)
    return engine.step(state, y, model, config, rng)


@pytest.mark.parametrize("g_dtype", ["float64", "float32"])
@pytest.mark.parametrize("method", ["full", "categorical", "accept_reject"])
@pytest.mark.parametrize("kind", ["lgssm", "residual"])
def test_chunked_step_equals_one_chunk(kind, method, g_dtype, monkeypatch):
    # chunks of one row of every array, of 3 of 7 g rows, and of all rows
    pieces = chunk_run(kind, method, g_dtype)
    g_row = pieces[0].cloud.g_stat[0].nbytes
    whole, _ = chunked_step(pieces, 1 << 40, monkeypatch)
    assert_g = assert_same if g_dtype == "float64" else assert_same_f32
    for n_bytes in (1, 3 * g_row, 1 << 40):
        got, out = chunked_step(pieces, n_bytes, monkeypatch)
        for name in ("h_stat", "f_stat"):
            assert_same(getattr(got.cloud, name), getattr(whole.cloud, name))
        assert_g(got.cloud.g_stat, whole.cloud.g_stat)
        # grad_phi from the chunks' column sums against a float64 mean of g
        want = engine.estimate(dataclasses.replace(got.cloud, g_sum=None)).grad_phi
        np.testing.assert_allclose(out.grad_phi, want, rtol=1e-13,
                                   atol=1e-13 * np.abs(want).max())
        with pytest.raises(NonFiniteStatistic, match="g statistic non-finite at particle 5,"):
            chunked_step(pieces, n_bytes, monkeypatch, nan_at=5)
