"""The matrix-product forms of the full-weights route against direct forms.

The engine computes every N_new x N_prev quantity as a product of
flattened per-particle features.  The references here are the direct
forms: (n, m, d) residual broadcasts and N^2 d^2 ``einsum`` contractions,
kept only in this file.
"""

import math

import numpy as np
import pytest

import reference
from streamvi import engine, gaussian, mlp, models, variational as var
from streamvi.gaussian import LOG_2PI

D = 2


def make_lgssm(rng):
    f = 0.6 * np.eye(D) + 0.1 * rng.standard_normal((D, D))
    return models.LinearGaussianSSM(F=f, G=rng.standard_normal((D, D)), q_var=0.1,
                                    r_var=0.25)


def make_residual(rng):
    return models.ResidualNonlinearSSM(
        f_net=mlp.init_mlp(rng, [D, 6, D], scale=0.5),
        g_net=mlp.init_mlp(rng, [D, 6, D], scale=0.5),
        q_diag=rng.uniform(0.05, 0.3, D), r_diag=rng.uniform(0.05, 0.3, D))


def make_chaotic(rng):
    return models.ChaoticRNNModel(W=rng.standard_normal((D, D)) / math.sqrt(D))


# ---------------------------------------------------------------------------
# Direct forms
# ---------------------------------------------------------------------------


def ref_log_density_cross(eta1, eta2, xs):
    quad = np.einsum("md,nde,me->nm", xs, eta2, xs)
    return eta1 @ xs.T + quad - gaussian.log_partition_batch(eta1, eta2)[:, None]


def ref_log_m_cross(model, xs_prev, xs_new):
    diff = xs_new[:, None, :] - models.transition_mean(model, xs_prev)[None, :, :]
    if isinstance(model, models.ResidualNonlinearSSM):
        q = model.q_diag
        return np.sum(-0.5 * (LOG_2PI + np.log(q)) - 0.5 * diff * diff / q, axis=-1)
    q = model.q_var
    return -0.5 * D * (LOG_2PI + math.log(q)) - 0.5 * np.sum(diff * diff, axis=-1) / q


def ref_vjp_params_cross(params, xs, cots):
    """sum_j d<cots[k, j], f(xs[j])>/d params by backpropagating (k, m, .) tensors."""
    _, acts = mlp.forward_cached(params, xs)
    k = cots.shape[0]
    grads = [None] * len(params.layers)
    delta = cots
    for i in range(len(params.layers) - 1, -1, -1):
        w, _ = params.layers[i]
        gw = np.einsum("kmo,mi->koi", delta, acts[i])
        grads[i] = (gw.reshape(k, -1), delta.sum(axis=1))
        if i > 0:
            delta = np.einsum("kmo,oi->kmi", delta, w) * (1.0 - acts[i] ** 2)[None, :, :]
    return np.concatenate([np.concatenate([gw, gb], axis=1) for gw, gb in grads], axis=1)


def ref_pair_contract(model, xs_prev, xs_new, y, coeff):
    n_new = xs_new.shape[0]
    lay = models.theta_layout(model)
    out = np.zeros((n_new, lay.total))
    row_sum = coeff.sum(axis=1)
    # the emission term is constant in j and has no pairwise form
    out += row_sum[:, None] * models.grad_theta_emission_batch(model, xs_new, y)
    if isinstance(model, models.LinearGaussianSSM):
        sx = coeff @ xs_prev
        sxx = np.einsum("ij,jd,je->ide", coeff, xs_prev, xs_prev)
        g_f = np.einsum("id,ie->ide", xs_new, sx) - np.einsum("de,ief->idf", model.F, sxx)
        f_spec = lay.by_name["F"]
        out[:, f_spec.offset:f_spec.offset + f_spec.size] = g_f.reshape(n_new, -1) / model.q_var
        return out
    resid = xs_new[:, None, :] - models.transition_mean(model, xs_prev)[None, :, :]
    f_spec = lay.by_name["f_net"]
    out[:, f_spec.offset:f_spec.offset + f_spec.size] = ref_vjp_params_cross(
        model.f_net, xs_prev, coeff[:, :, None] * resid / model.q_diag)
    q_spec = lay.by_name["log_q_diag"]
    out[:, q_spec.offset:q_spec.offset + q_spec.size] = np.einsum(
        "ij,ijd->id", coeff, -0.5 + 0.5 * resid * resid / model.q_diag)
    return out


def ref_update_statistics(cloud_prev, xi_new, model, runner, y, kernel, clip=None):
    """h, g and f of the full update; ``clip`` = (lo, hi) weights by the clamped
    potential, the bracket keeping the kernel log-density."""
    log_kernel = ref_log_density_cross(kernel.eta1, kernel.eta2, cloud_prev.xi)
    if clip is None:
        log_unnorm = log_kernel - cloud_prev.log_q_marginal[None, :]
    else:
        log_pot = (kernel.pot_eta1 @ cloud_prev.xi.T
                   + np.einsum("md,nde,me->nm", cloud_prev.xi, kernel.pot_eta2, cloud_prev.xi))
        log_unnorm = np.clip(log_pot, *clip)
    w = np.exp(log_unnorm - log_unnorm.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    h_tilde = (ref_log_m_cross(model, cloud_prev.xi, xi_new)
               + models.log_g_batch(model, xi_new, y)[:, None] - log_kernel)
    bracket = cloud_prev.h_stat[None, :] + h_tilde
    h_new = np.einsum("ij,ij->i", w, bracket)
    mean, second = gaussian.mean_params_batch(kernel.eta1, kernel.eta2)
    cw = w * bracket
    u1 = cw @ cloud_prev.xi - cw.sum(axis=1)[:, None] * mean
    u2 = (np.einsum("ij,jd,je->ide", cw, cloud_prev.xi, cloud_prev.xi)
          - cw.sum(axis=1)[:, None, None] * second)
    g_new = w @ cloud_prev.g_stat + reference.kernel_phi_rows(
        runner, u1, u2, kernel.pot_raw, kernel.pot_acts)
    f_new = w @ cloud_prev.f_stat + ref_pair_contract(model, cloud_prev.xi, xi_new, y, w)
    return h_new, g_new, f_new


# ---------------------------------------------------------------------------
# (a) update_statistics against the direct forms
# ---------------------------------------------------------------------------


def assert_close(got, want):
    # rtol 1e-10, with an absolute floor at 1e-10 of the array's largest entry
    # for entries that are zero up to rounding
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())


def assert_close_f32(got, want):
    # g stored in float32: rtol 1e-5, with an absolute floor at 1e-5 of the
    # array's largest entry
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5 * np.abs(want).max())


def check_update_statistics(make_model, n_prev, n_new, clip, steps_before,
                            g_dtype="float64"):
    rng = np.random.default_rng(50 + n_prev + 10 * n_new)
    model = make_model(rng)
    params = var.init_amortizer(rng, D, D, hidden=5, head_hidden=(5,), pot_hidden=(5,),
                                scale=0.6)
    runner = engine.AmortizedRunner(params, window=2)
    ys = rng.standard_normal((3, D))
    config = engine.EngineConfig(n_particles=n_prev, method="full", g_dtype=g_dtype)
    # with no step before, the update starts from the time-zero cloud, whose g
    # statistic is zero; one engine step first makes the carried g non-zero
    state = engine.init_state(model, runner, ys[0], config, rng)
    for y in ys[1:1 + steps_before]:
        state, _ = engine.step(state, y, model, config, rng)
    cloud = state.cloud
    y_t = ys[1 + steps_before]
    runner.begin_step(y_t)
    eta = runner.current_eta()
    xi_new = gaussian.sample(eta, rng, n_new)
    log_q_new = gaussian.log_density_cross(eta.eta1[None], eta.eta2[None], xi_new)[0]
    bounds = None
    if clip:
        # bounds at the potentials' quartiles, so both clamps bind where n_prev > 1
        pot = gaussian.inner_cross(*runner.potential_batch(xi_new)[:2], cloud.xi)
        lo, hi = np.quantile(pot, [0.25, 0.75])
        bounds = (lo, hi) if lo < hi else (lo - 1.0, lo + 1.0)
        config = engine.EngineConfig(n_particles=n_prev, method="full",
                                     clip_enabled=True, log_eps_minus=bounds[0],
                                     log_eps_plus=bounds[1], g_dtype=g_dtype)
    kernel = engine.build_kernel(runner, xi_new)
    got = engine.update_statistics(cloud, xi_new, model, runner, y_t, kernel, log_q_new,
                                   config)
    h_ref, g_ref, f_ref = ref_update_statistics(cloud, xi_new, model, runner, y_t, kernel,
                                                clip=bounds)
    assert cloud.t == steps_before and got.t == cloud.t + 1
    assert np.abs(cloud.f_stat).max() > 0.0
    assert (np.abs(cloud.g_stat).max() > 0.0) == (steps_before > 0)
    assert_close(got.h_stat, h_ref)
    assert got.g_stat.dtype == g_dtype
    (assert_close if g_dtype == "float64" else assert_close_f32)(got.g_stat, g_ref)
    assert_close(got.f_stat, f_ref)


@pytest.mark.parametrize("make_model", [make_lgssm, make_residual], ids=["lgssm", "residual"])
@pytest.mark.parametrize("n_prev,n_new", [(6, 4), (3, 5), (1, 1)])
@pytest.mark.parametrize("steps_before", [0, 1], ids=["first", "later"])
def test_update_statistics_matches_direct_forms(make_model, n_prev, n_new, steps_before):
    check_update_statistics(make_model, n_prev, n_new, False, steps_before)


@pytest.mark.parametrize("make_model", [make_lgssm, make_residual], ids=["lgssm", "residual"])
@pytest.mark.parametrize("n_prev,n_new", [(6, 4), (3, 5), (1, 1)])
@pytest.mark.parametrize("steps_before", [0, 1], ids=["first", "later"])
def test_clipped_update_statistics_matches_direct_forms(make_model, n_prev, n_new,
                                                        steps_before):
    # weights from the clamped potentials, the bracket from the kernel log-density
    check_update_statistics(make_model, n_prev, n_new, True, steps_before)


@pytest.mark.parametrize("make_model", [make_lgssm, make_residual], ids=["lgssm", "residual"])
@pytest.mark.parametrize("n_prev,n_new", [(6, 4), (3, 5), (1, 1)])
@pytest.mark.parametrize("steps_before", [0, 1], ids=["first", "later"])
@pytest.mark.parametrize("clip", [False, True], ids=["kernel", "clipped"])
def test_float32_update_statistics_matches_direct_forms(make_model, n_prev, n_new,
                                                        steps_before, clip):
    # h and f at the float64 tolerance; g, carried in float32, at its own
    check_update_statistics(make_model, n_prev, n_new, clip, steps_before,
                            g_dtype="float32")


def test_chaotic_pair_contract_matches_direct_form():
    rng = np.random.default_rng(60)
    model = make_chaotic(rng)
    xs_prev, xs_new = rng.standard_normal((6, D)), rng.standard_normal((4, D))
    coeff = rng.uniform(0.0, 1.0, (4, 6))
    got = models.grad_theta_pair_contract(model, xs_prev, xs_new, np.full(D, np.nan), 1,
                                          coeff)
    want = np.einsum("ij,ijp->ip", coeff, np.array(
        [[models.grad_theta_log_joint_pair(model, xp, xn, np.full(D, np.nan), 1)
          for xp in xs_prev] for xn in xs_new]))
    assert_close(got, want)


def test_vjp_params_cross_matches_direct_form():
    rng = np.random.default_rng(61)
    params = mlp.init_mlp(rng, [D, 6, D], scale=0.5)
    xs, b = rng.standard_normal((5, D)), rng.standard_normal((5, D))
    a = rng.standard_normal((3, D))
    coeff = rng.uniform(0.0, 1.0, (3, 5))
    got = mlp.vjp_params_cross(params, xs, coeff, a, b)
    cots = coeff[:, :, None] * (a[:, None, :] - b[None, :, :])
    assert_close(got, ref_vjp_params_cross(params, xs, cots))


# ---------------------------------------------------------------------------
# (b) cancellation in the expanded quadratic forms
# ---------------------------------------------------------------------------

SHIFT = 1e3


def cancellation_bound(x, mu, q):
    """1e-12 (1 + |x|^2 + |mu|^2) / q: what expanding |x - mu|^2 / q may lose."""
    return 1e-12 * (1.0 + x @ x + mu @ mu) / q


@pytest.mark.parametrize("make_model", [make_lgssm, make_chaotic, make_residual],
                         ids=["lgssm", "chaotic", "residual"])
def test_log_m_cross_on_shifted_cloud(make_model):
    rng = np.random.default_rng(70)
    model = make_model(rng)
    xs_prev = SHIFT + rng.standard_normal((5, D))
    means = models.transition_mean(model, xs_prev)
    q = (model.q_diag.min() if isinstance(model, models.ResidualNonlinearSSM)
         else model.q_var)
    # new particles next to the means, where the expansion cancels most
    xs_new = means[[1, 3, 0, 4]] + math.sqrt(q) * rng.standard_normal((4, D))
    got = models.log_m_cross(model, xs_prev, xs_new, 1)
    for i, x in enumerate(xs_new):
        for j, xp in enumerate(xs_prev):
            want = models.log_m(model, xp, x, 1)
            assert abs(got[i, j] - want) <= cancellation_bound(x, means[j], q)


def test_log_density_cross_on_shifted_cloud():
    rng = np.random.default_rng(71)
    etas = []
    for _ in range(4):
        a = rng.standard_normal((D, D))
        cov = a @ a.T + 0.05 * np.eye(D)
        mean = SHIFT + rng.standard_normal(D)
        etas.append((gaussian.from_moments(gaussian.GaussianMoments(mean=mean, cov=cov)),
                     mean, np.linalg.eigvalsh(cov)[0]))
    xs = np.concatenate([m + rng.standard_normal((2, D)) for _, m, _ in etas])
    got = gaussian.log_density_cross(np.stack([e.eta1 for e, _, _ in etas]),
                                     np.stack([e.eta2 for e, _, _ in etas]), xs)
    for i, (eta, mean, q) in enumerate(etas):
        for j, x in enumerate(xs):
            assert abs(got[i, j] - gaussian.log_density(eta, x)) <= cancellation_bound(
                x, mean, q)
