"""The one-product pair bracket, the carried f and the clamped weights.

On the full route ``pair_terms`` builds the whole bracket
h_prev_j + log m(x_j -> x_i) + log g(x_i) - log k_i(x_j) as one product of
feature rows, and ``grad_theta_pair_contract(..., carried=f)`` folds
w @ f into the model's own product with the weights.  The references are
the separate forms these replace: ``log_m_cross``, ``log_g_batch``,
``gaussian.log_density_cross`` and h_prev added one after another, and
w @ f as its own product.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from streamvi import engine, gaussian, mlp, models, variational as var
from streamvi.gaussian import GaussianNatural

KINDS = ["lgssm", "chaotic", "residual"]


def make_model(kind, d, rng):
    if kind == "lgssm":
        f = 0.6 * np.eye(d) + 0.1 * rng.standard_normal((d, d))
        return models.LinearGaussianSSM(F=f, G=rng.standard_normal((d, d)), q_var=0.1,
                                        r_var=0.25)
    if kind == "chaotic":
        return models.ChaoticRNNModel(W=rng.standard_normal((d, d)) / math.sqrt(d))
    return models.ResidualNonlinearSSM(
        f_net=mlp.init_mlp(rng, [d, 6, d], scale=0.5),
        g_net=mlp.init_mlp(rng, [d, 6, d], scale=0.5),
        q_diag=rng.uniform(0.05, 0.3, d), r_diag=rng.uniform(0.05, 0.3, d))


def min_noise(model):
    if isinstance(model, models.ResidualNonlinearSSM):
        return float(model.q_diag.min())
    return model.q_var


def random_kernels(rng, n, d, center):
    """n Gaussians with means near ``center``; their natural parameters,
    means and smallest covariance eigenvalues."""
    a = rng.standard_normal((n, d, d))
    cov = a @ np.swapaxes(a, 1, 2) + 0.05 * np.eye(d)
    prec = np.linalg.inv(cov)
    prec = 0.5 * (prec + np.swapaxes(prec, 1, 2))
    mean = center + rng.standard_normal((n, d))
    eta1 = np.einsum("nde,ne->nd", prec, mean)
    return eta1, -0.5 * prec, mean, np.linalg.eigvalsh(cov)[:, 0]


def sq(xs):
    return np.einsum("nd,nd->n", xs, xs)


# ---------------------------------------------------------------------------
# the bracket as one product
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(KINDS), d=st.integers(1, 3), n_prev=st.integers(1, 6),
       n_new=st.integers(1, 6), shift=st.floats(-1e3, 1e3), h_scale=st.floats(0.0, 1e5),
       seed=st.integers(0, 2**32 - 1))
@example(kind="lgssm", d=1, n_prev=1, n_new=1, shift=0.0, h_scale=0.0, seed=0)
@example(kind="chaotic", d=3, n_prev=1, n_new=1, shift=1e3, h_scale=1e5, seed=1)
@example(kind="residual", d=2, n_prev=1, n_new=1, shift=-1e3, h_scale=1e5, seed=2)
def test_pair_terms_matches_separate_forms(kind, d, n_prev, n_new, shift, h_scale, seed):
    rng = np.random.default_rng(seed)
    model = make_model(kind, d, rng)
    q = min_noise(model)
    xs_prev = shift + rng.standard_normal((n_prev, d))
    means = models.transition_mean(model, xs_prev)
    # new particles next to the transition means, where the expansion cancels most
    xs_new = means[rng.integers(0, n_prev, n_new)] + math.sqrt(q) * rng.standard_normal(
        (n_new, d))
    h_prev = h_scale * rng.uniform(-1.0, 1.0, n_prev)
    y = xs_new[0] + rng.standard_normal(d)
    eta1, eta2, k_mean, k_var = random_kernels(rng, n_new, d, shift)
    cloud = engine.ParticleCloud(xi=xs_prev, h_stat=h_prev, g_stat=None, f_stat=None,
                                 log_q_marginal=np.zeros(n_prev),
                                 eta=GaussianNatural(eta1=np.zeros(d), eta2=-0.5 * np.eye(d)),
                                 t=1)
    kernel = engine.KernelBatch(eta1=eta1, eta2=eta2, pot_eta1=eta1, pot_eta2=eta2,
                                pot_raw=None, pot_acts=None)
    left, right = engine.pair_terms(model, cloud, xs_new, y, kernel,
                                    gaussian.suff_stat_rows(xs_prev))
    got = left @ right.T

    log_g = models.log_g_batch(model, xs_new, y)
    want = (models.log_m_cross(model, xs_prev, xs_new, 2) + log_g[:, None]
            - gaussian.log_density_cross(eta1, eta2, xs_prev) + h_prev[None, :])
    # each expanded quadratic form may lose 1e-12 (1 + |x|^2 + |mu|^2) / var:
    # the transition one over (x_new_i, mean_j), the kernel one over
    # (x_prev_j, kernel mean_i); the added terms a few ulp of their size
    bound = (1e-12 * (1.0 + sq(xs_new)[:, None] + sq(means)[None, :]) / q
             + 1e-12 * (1.0 + sq(k_mean)[:, None] + sq(xs_prev)[None, :]) / k_var[:, None]
             + 4 * np.finfo(float).eps * (np.abs(h_prev)[None, :] + np.abs(log_g)[:, None]))
    assert got.shape == (n_new, n_prev)
    assert np.all(np.abs(got - want) <= bound)


# ---------------------------------------------------------------------------
# the carried f in the model's product
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n_prev,n_new", [(6, 4), (1, 1)])
@pytest.mark.parametrize("missing", [False, True], ids=["observed", "one_missing"])
def test_carried_f_folds_into_the_contraction(kind, n_prev, n_new, missing):
    d = 2
    rng = np.random.default_rng(90 + 10 * n_prev + n_new + 100 * missing)
    model = make_model(kind, d, rng)
    xs_prev, xs_new = rng.standard_normal((n_prev, d)), rng.standard_normal((n_new, d))
    y = rng.standard_normal(d)
    if missing:
        y[0] = np.nan
    w = rng.uniform(0.0, 1.0, (n_new, n_prev))
    w /= w.sum(axis=1, keepdims=True)
    f = rng.standard_normal((n_prev, models.theta_layout(model).total))
    got = models.grad_theta_pair_contract(model, xs_prev, xs_new, y, 1, w, carried=f)
    want = w @ f + models.grad_theta_pair_contract(model, xs_prev, xs_new, y, 1, w)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


# ---------------------------------------------------------------------------
# one cross per clipped kernel
# ---------------------------------------------------------------------------


def test_accept_reject_keep_weights_are_the_clamped_weights():
    d = 2
    lo, hi = -1.0, 0.05
    rng = np.random.default_rng(80)
    params = var.init_amortizer(rng, d, d, hidden=5, head_hidden=(5,), pot_hidden=(5,),
                                scale=0.6)
    runner = engine.AmortizedRunner(params, window=2)
    config = engine.EngineConfig(n_particles=40, method="accept_reject", clip_enabled=True,
                                 log_eps_minus=lo, log_eps_plus=hi)
    model = make_model("lgssm", d, rng)
    ys = rng.standard_normal((3, d))
    state = engine.init_state(model, runner, ys[0], config, rng)
    state, _ = engine.step(state, ys[1], model, config, rng)
    prev = state.cloud
    state, _ = engine.step(state, ys[2], model, config, rng, keep_weights=True)

    pot_eta1, pot_eta2, _, _ = runner.potential_batch(state.cloud.xi)
    pot = pot_eta1 @ prev.xi.T + np.einsum("md,nde,me->nm", prev.xi, pot_eta2, prev.xi)
    assert np.any(pot < lo) and np.any(pot > hi)      # both clamps bind
    want = np.exp(np.clip(pot, lo, hi))
    want /= want.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(state.last_wmat.w, want, rtol=1e-12, atol=0.0)
