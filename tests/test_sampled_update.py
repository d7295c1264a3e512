"""The backward-sampling update against its gathered and dense direct forms.

The sampled route is the full update with a sparse weight matrix W, 1/M at
(i, idx[i, m]).  Its draws are reproduced from a copy of the generator, and
h, g and f are checked against two references built without the engine's
feature rows:

- the gathered forms: the transition log-density at the drawn pairs
  (``models.log_m_gathered``) plus log g minus the kernel log-density there,
  the kernel cotangents summed over the draws, and the per-pair transition
  and emission theta-gradients (``models.grad_theta_transition_pairs``,
  ``models.grad_theta_emission_batch``);
- the dense direct form with W: every pair's bracket from the scalar
  ``log_m``, ``log_g`` and ``gaussian.log_density``, and its theta-gradient
  from ``grad_theta_log_joint_pair``, with repeated draws adding up in W.
"""

import copy
import math

import numpy as np
import pytest

import reference
from streamvi import engine, gaussian, mlp, models, variational as var
from streamvi.gaussian import GaussianNatural

D = 2
N_PREV, N_NEW, M = 6, 5, 3


def make_lgssm(rng):
    f = 0.6 * np.eye(D) + 0.1 * rng.standard_normal((D, D))
    return models.LinearGaussianSSM(F=f, G=rng.standard_normal((D, D)), q_var=0.1,
                                    r_var=0.25)


def make_chaotic(rng):
    return models.ChaoticRNNModel(W=rng.standard_normal((D, D)) / math.sqrt(D))


def make_residual(rng):
    return models.ResidualNonlinearSSM(
        f_net=mlp.init_mlp(rng, [D, 6, D], scale=0.5),
        g_net=mlp.init_mlp(rng, [D, 6, D], scale=0.5),
        q_diag=rng.uniform(0.05, 0.3, D), r_diag=rng.uniform(0.05, 0.3, D))


def draw_indices(cloud, kernel, config, rng):
    """The draws ``backward_sample_update`` makes from ``rng``."""
    if config.method == "accept_reject":
        return engine._accept_reject_rows(cloud, kernel, config, M, rng)
    w = engine.weight_matrix(cloud, kernel, config).w
    return engine._categorical_rows(w, M, rng)


def kernel_cotangents(kernel, cw, xs):
    """u1, u2 of the kernel scores contracted with per-draw coefficients cw."""
    mean, second = gaussian.mean_params_batch(kernel.eta1, kernel.eta2)
    mass = cw.sum(axis=1)
    u1 = np.einsum("nm,nmd->nd", cw, xs) - mass[:, None] * mean
    u2 = np.einsum("nm,nmd,nme->nde", cw, xs, xs) - mass[:, None, None] * second
    return u1, u2


def gathered_reference(cloud, xi_new, model, runner, y, kernel, idx):
    """h, g and f from the forms gathered at the drawn pairs."""
    n_new, m_draws = idx.shape
    xs_j = cloud.xi[idx]
    log_m = models.log_m_gathered(model, models.transition_mean(model, cloud.xi), idx,
                                  xi_new)
    log_z = gaussian.log_partition_batch(kernel.eta1, kernel.eta2)
    log_kernel = (np.einsum("nd,nmd->nm", kernel.eta1, xs_j)
                  + np.einsum("nmd,nde,nme->nm", xs_j, kernel.eta2, xs_j) - log_z[:, None])
    bracket = (cloud.h_stat[idx] + log_m + models.log_g_batch(model, xi_new, y)[:, None]
               - log_kernel)
    h = bracket.mean(axis=1)
    u1, u2 = kernel_cotangents(kernel, (bracket - h[:, None]) / m_draws, xs_j)
    g = (cloud.g_stat.astype(np.float64)[idx].mean(axis=1)
         + reference.kernel_phi_rows(runner, u1, u2, kernel.pot_raw, kernel.pot_acts))
    trans = models.grad_theta_transition_pairs(model, xs_j.reshape(n_new * m_draws, D),
                                               np.repeat(xi_new, m_draws, axis=0))
    f = (cloud.f_stat[idx].mean(axis=1) + trans.reshape(n_new, m_draws, -1).mean(axis=1)
         + models.grad_theta_emission_batch(model, xi_new, y))
    return h, g, f


def dense_reference(cloud, xi_new, model, runner, y, kernel, idx):
    """h, g and f of the full update's direct form with W = 1/M at (i, idx[i, m])."""
    n_new, m_draws = idx.shape
    w = np.zeros((n_new, cloud.n))
    np.add.at(w, (np.repeat(np.arange(n_new), m_draws), idx.ravel()), 1.0 / m_draws)
    bracket = np.array([[cloud.h_stat[j] + models.log_m(model, xp, x, 1)
                         + models.log_g(model, x, y)
                         - gaussian.log_density(GaussianNatural(kernel.eta1[i], kernel.eta2[i]),
                                                xp)
                         for j, xp in enumerate(cloud.xi)] for i, x in enumerate(xi_new)])
    h = np.einsum("ij,ij->i", w, bracket)
    xs = np.broadcast_to(cloud.xi, (n_new, *cloud.xi.shape))
    u1, u2 = kernel_cotangents(kernel, w * (bracket - h[:, None]), xs)
    g = (w @ cloud.g_stat.astype(np.float64)
         + reference.kernel_phi_rows(runner, u1, u2, kernel.pot_raw, kernel.pot_acts))
    pair_grads = np.array([[models.grad_theta_log_joint_pair(model, xp, x, y, 1)
                            for xp in cloud.xi] for x in xi_new])
    f = w @ cloud.f_stat + np.einsum("ij,ijp->ip", w, pair_grads)
    return h, g, f


def assert_close(got, want, rtol):
    # an absolute floor at rtol of the array's largest entry, for entries
    # that are zero up to rounding
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())


@pytest.mark.parametrize("make_model", [make_lgssm, make_chaotic, make_residual],
                         ids=["lgssm", "chaotic", "residual"])
@pytest.mark.parametrize("method", ["categorical", "accept_reject"])
@pytest.mark.parametrize("steps_before", [0, 1], ids=["first", "later"])
@pytest.mark.parametrize("g_dtype", ["float64", "float32"])
def test_sampled_update_matches_gathered_and_dense_forms(make_model, method, steps_before,
                                                         g_dtype):
    rng = np.random.default_rng(80)
    model = make_model(rng)
    params = var.init_amortizer(rng, D, D, hidden=5, head_hidden=(5,), pot_hidden=(5,),
                                scale=0.6)
    runner = engine.AmortizedRunner(params, window=2)
    ys = rng.standard_normal((3, D))
    config = engine.EngineConfig(n_particles=N_PREV, method=method, m_backward=M,
                                 clip_enabled=method == "accept_reject", g_dtype=g_dtype)
    # with no step before, the update starts from the time-zero cloud, whose g
    # statistic is zero; one engine step first makes the carried g non-zero
    state = engine.init_state(model, runner, ys[0], config, rng)
    for y in ys[1:1 + steps_before]:
        state, _ = engine.step(state, y, model, config, rng)
    cloud = state.cloud
    y_t = ys[1 + steps_before]
    runner.begin_step(y_t)
    eta = runner.current_eta()
    xi_new = gaussian.sample(eta, rng, N_NEW)
    log_q_new = gaussian.log_density_cross(eta.eta1[None], eta.eta2[None], xi_new)[0]
    kernel = engine.build_kernel(runner, xi_new)

    rng_copy = copy.deepcopy(rng)
    got = engine.backward_sample_update(cloud, xi_new, rng, model, runner, y_t, kernel,
                                        log_q_new, config)
    idx = draw_indices(cloud, kernel, config, rng_copy)
    assert rng.bit_generator.state == rng_copy.bit_generator.state
    assert cloud.t == steps_before and got.t == cloud.t + 1
    # the time-zero f is the theta-gradient of log chi + log g_0, in which the
    # chaotic model's theta (W) does not appear
    assert ((np.abs(cloud.f_stat).max() > 0.0)
            == (steps_before > 0 or make_model is not make_chaotic))
    assert (np.abs(cloud.g_stat).max() > 0.0) == (steps_before > 0)
    assert got.g_stat.dtype == g_dtype

    g_rtol = 1e-12 if g_dtype == "float64" else 1e-5
    for reference in (gathered_reference, dense_reference):
        h, g, f = reference(cloud, xi_new, model, runner, y_t, kernel, idx)
        assert_close(got.h_stat, h, 1e-12)
        assert_close(got.g_stat, g, g_rtol)
        assert_close(got.f_stat, f, 1e-12)
