"""The full route one block of new-particle rows at a time.

``engine.ROW_BLOCK_BYTES`` sets how many rows a block holds; the tests
force blocks of one row, of a size that does not divide N_new, and of the
whole matrix.  Each row's weights and bracket depend on that row alone,
so the blocked update equals the one-block update to BLAS rounding.
"""

import contextlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamvi import engine, gaussian, mlp, models, variational as var
from streamvi.errors import DegenerateRow

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


def update_pieces(kind, n_prev, n_new, clip, center, seed, g_dtype="float64"):
    """A cloud with non-zero carried g and f, and the next step's inputs."""
    rng = np.random.default_rng(seed)
    model = make_model(kind, rng)
    runner = make_runner(rng)
    ys = rng.standard_normal((3, D))
    config = engine.EngineConfig(n_particles=n_prev, method="full", cv_gstat=center,
                                 g_dtype=g_dtype)
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
        config = engine.EngineConfig(n_particles=n_prev, method="full", cv_gstat=center,
                                     clip_enabled=True, log_eps_minus=lo, log_eps_plus=hi,
                                     g_dtype=g_dtype)
    return model, runner, state.cloud, xi_new, ys[2], kernel, log_q_new, config


def blocked_update(pieces, rows):
    model, runner, cloud, xi_new, y, kernel, log_q_new, config = pieces
    kept = np.empty((xi_new.shape[0], cloud.n))
    with block_rows(rows, cloud.n):
        new = engine.update_statistics(cloud, xi_new, model, runner, y, 2, kernel, log_q_new,
                                       config, kept=kept)
    return new, kept


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
       clip=st.booleans(), center=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_blocked_update_equals_one_block(kind, n_prev, n_new, clip, center, seed):
    pieces = update_pieces(kind, n_prev, n_new, clip, center, seed)
    check_blocked_update_equals_one_block(pieces, assert_same)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS), n_prev=st.integers(1, 9), n_new=st.integers(1, 9),
       clip=st.booleans(), center=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_blocked_update_equals_one_block_float32(kind, n_prev, n_new, clip, center, seed):
    # a one-row block multiplies the float32 g by a matrix-vector product, the
    # whole block by a matrix product; h and f never read g
    pieces = update_pieces(kind, n_prev, n_new, clip, center, seed, g_dtype="float32")
    check_blocked_update_equals_one_block(pieces, assert_same_f32)


@pytest.mark.parametrize("clip", [False, True], ids=["kernel", "clamped"])
def test_degenerate_row_in_a_later_block_names_its_row(clip):
    model, runner, cloud, xi_new, y, kernel, log_q_new, config = update_pieces(
        "lgssm", 5, 7, clip, False, seed=3)
    (kernel.pot_eta1 if clip else kernel.eta1)[5] = np.nan
    with block_rows(2, cloud.n), pytest.raises(DegenerateRow, match=r"weight row 5 "):
        engine.update_statistics(cloud, xi_new, model, runner, y, 2, kernel, log_q_new,
                                 config)


def run_full(keep, steps=4, n=7):
    rng = np.random.default_rng(11)
    model = make_model("residual", rng)
    runner = make_runner(rng)
    ys = rng.standard_normal((steps + 1, D))
    config = engine.EngineConfig(n_particles=n, method="full", g_dtype="float64")
    state = engine.init_state(model, runner, ys[0], config, rng)
    outs = []
    with block_rows(3, n):
        for t in range(1, steps + 1):
            state, out = engine.step(state, ys[t], model, config, rng, keep_weights=keep)
            outs.append(out)
    return state, outs


def test_keep_weights_leaves_the_full_route_bitwise_unchanged():
    kept, outs_kept = run_full(keep=True)
    plain, outs_plain = run_full(keep=False)
    assert plain.last_wmat is None
    np.testing.assert_allclose(kept.last_wmat.w.sum(axis=1), 1.0, rtol=1e-12)
    for a, b in zip(outs_kept, outs_plain):
        assert a.elbo == b.elbo
        np.testing.assert_array_equal(a.grad_phi, b.grad_phi)
        np.testing.assert_array_equal(a.grad_theta, b.grad_theta)
    for name in ("xi", "h_stat", "g_stat", "f_stat"):
        np.testing.assert_array_equal(getattr(kept.cloud, name), getattr(plain.cloud, name))


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
