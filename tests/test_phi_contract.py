"""The contracted phi-side forms against their expanded references.

The engine contracts every phi-side quantity in natural-parameter space
and widens it to dim_phi once, into the g array of the new cloud.  The
references here are the expanded forms: one score row per particle, a
fresh (n, dim_phi) kernel contraction, an (N, M, dim_phi) gather.
"""

import tracemalloc

import numpy as np
import pytest

from streamvi import engine, gaussian, gradients, models, variational as var
from streamvi.errors import NonFiniteStatistic

D = 2


def make_model():
    return models.LinearGaussianSSM(F=0.7 * np.eye(D), G=np.eye(D), q_var=0.1, r_var=0.25)


def make_run(n, method="full", seed=0, hidden=5, steps=2, clip=False):
    """An engine state after ``steps`` steps, so g and f are non-zero."""
    rng = np.random.default_rng(seed)
    params = var.init_amortizer(rng, D, D, hidden=hidden, head_hidden=(hidden,),
                                pot_hidden=(hidden,), scale=0.6)
    runner = engine.AmortizedRunner(params, window=2)
    config = engine.EngineConfig(n_particles=n, method=method, clip_enabled=clip)
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


@pytest.mark.parametrize("n", [1, 6])
def test_kernel_phi_contract_adds_the_expanded_form(n):
    state, _, config, rng, y = make_run(n, seed=20 + n)
    runner = state.runner
    runner.begin_step(y)
    xi_new = gaussian.sample(runner.current_eta(), rng, n)
    kernel = engine.build_kernel(runner, xi_new)
    u1 = rng.standard_normal((n, D))
    u2 = rng.standard_normal((n, D, D))
    want = expanded_kernel_contract(runner, u1, u2, kernel.pot_raw, kernel.pot_acts)
    g = rng.standard_normal((n, runner.dim_phi))
    got = g.copy()
    args = (u1, u2, kernel.pot_raw, kernel.pot_acts)
    assert runner.kernel_phi_contract(*args, out=got) is got
    assert_close(got, g + want)
    assert_close(runner.kernel_phi_contract(*args), want)


# ---------------------------------------------------------------------------
# sampled gather
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,m", [(5, 1), (5, 2), (5, 3), (3, 7)])
@pytest.mark.parametrize("with_work", [False, True], ids=["fresh", "work"])
def test_gather_mean_matches_three_dim_gather(n, m, with_work):
    rng = np.random.default_rng(30 + m)
    stat = rng.standard_normal((n, 11))
    idx = rng.integers(0, n, (n, m))
    work = np.full((n, 11), np.nan) if with_work else None
    got = engine._gather_mean(stat, idx, work)
    np.testing.assert_allclose(got, stat[idx].mean(axis=1), rtol=1e-15, atol=0)
    if with_work:
        assert not np.shares_memory(got, work)


# ---------------------------------------------------------------------------
# the previous cloud is never written
# ---------------------------------------------------------------------------


def cloud_arrays(cloud):
    chain = cloud.chain
    arrays = {"xi": cloud.xi, "h": cloud.h_stat, "g": cloud.g_stat, "f": cloud.f_stat,
              "log_q": cloud.log_q_marginal, "eta1": cloud.eta.eta1, "eta2": cloud.eta.eta2}
    for name in ("a_boundary", "a_t", "raw", "eta1", "eta2", "jac", "nat_jac"):
        arrays["chain." + name] = getattr(chain, name)
    return arrays


@pytest.mark.parametrize("method", ["full", "categorical", "accept_reject"])
def test_step_leaves_previous_cloud_unchanged(method):
    # three steps before, so the runner's work array exists and has been written
    state, model, config, rng, y = make_run(6, method=method, seed=40, steps=3,
                                            clip=method == "accept_reject")
    before = {k: v.copy() for k, v in cloud_arrays(state.cloud).items()}
    new_state, _ = engine.step(state, y, model, config, rng)
    for name, arr in cloud_arrays(state.cloud).items():
        np.testing.assert_array_equal(arr, before[name], err_msg=name)
    work = state.runner._phi_work
    for cloud in (state.cloud, new_state.cloud):
        for arr in (cloud.g_stat, cloud.f_stat):
            assert not np.shares_memory(arr, work)


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
    n = 500
    state, model, config, rng, y = make_run(n, method="accept_reject", seed=50, hidden=16,
                                            steps=3, clip=True)
    unit = n * state.runner.dim_phi * 8
    # the expanded forms build (N, dim_phi) scores, products and sums
    assert peak_units(lambda: engine.estimate(state.cloud), unit) <= 0.25
    # the kept g array and small transients; the expanded forms add an
    # (N, M, dim_phi) gather and a fresh (N, dim_phi) contraction
    assert peak_units(lambda: engine.step(state, y, model, config, rng), unit) <= 2.5


@pytest.mark.parametrize("clip", [False, True], ids=["kernel_weights", "clamped_weights"])
def test_full_step_keeps_two_pair_arrays(clip):
    n = 500
    state, model, config, rng, y = make_run(n, seed=51, hidden=16, steps=3, clip=clip)
    unit = n * n * 8
    kept = (state.cloud.g_stat.nbytes + state.cloud.f_stat.nbytes) / unit
    units = peak_units(lambda: engine.step(state, y, model, config, rng), unit)
    # the weights and one of the kernel cross or the bracket, plus the new
    # cloud's g and f; a third N x N array alive at once adds 1.0
    assert units <= 2.5 + kept
    assert units <= 5.0


# ---------------------------------------------------------------------------
# the finiteness check
# ---------------------------------------------------------------------------


def small_cloud(rng, n=5):
    eta = gaussian.GaussianNatural(eta1=np.zeros(D), eta2=-0.5 * np.eye(D))
    return engine.ParticleCloud(xi=rng.standard_normal((n, D)),
                                h_stat=rng.standard_normal(n),
                                g_stat=rng.standard_normal((n, 4)),
                                f_stat=rng.standard_normal((n, 3)),
                                log_q_marginal=np.zeros(n), eta=eta, t=9)


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
