"""Missing observations (NaN entries) end to end.

The Kalman filter skips missing entries and is checked against the dense
joint Gaussian with the missing rows and columns deleted.  On the exact
conjugate family the engine's ELBO then equals the Kalman log-likelihood at
every step, missing entries included, and an amortized stream with missing
entries stays finite on every route.
"""

import numpy as np
import pytest

import reference
from streamvi import engine, models, oracle, variational as var
from streamvi.gaussian import LOG_2PI

ROUTES = ["full", "categorical", "accept_reject"]


def make_lgssm():
    return models.LinearGaussianSSM(F=np.array([[0.7, 0.2], [-0.1, 0.6]]),
                                    G=np.array([[1.0, 0.3], [0.0, 0.8]]),
                                    q_var=0.1, r_var=0.25)


def observations(t_len, missing, seed=0):
    """A simulated stream of ``t_len`` observations with ``missing`` entries NaN."""
    _, ys = models.simulate(make_lgssm(), t_len - 1, np.random.default_rng(seed))
    for entry in missing:
        ys[entry] = np.nan
    return ys


def dense_observed_loglik(model, ys):
    """log p of the observed entries under the dense joint Gaussian."""
    joint = reference.dense_joint(model, ys.shape[0])
    obs = ~np.isnan(ys.ravel())
    resid = ys.ravel()[obs] - joint.mean_y[obs]
    cov = joint.cov_y[np.ix_(obs, obs)]
    _, logdet = np.linalg.slogdet(cov)
    return -0.5 * (obs.sum() * LOG_2PI + logdet + resid @ np.linalg.solve(cov, resid))


@pytest.mark.parametrize("missing", [[(1, 0)], [(2, slice(None))],
                                     [(0, 1), (3, slice(None)), (4, 0)]],
                         ids=["one_entry", "one_step", "mixed"])
def test_kalman_filter_matches_dense_joint_without_missing_entries(missing):
    model = make_lgssm()
    ys = observations(6, missing)
    filt = oracle.kalman_filter(model, ys)
    for t_len in range(1, 7):
        got = oracle.kalman_filter(model, ys[:t_len]).loglik
        assert got == pytest.approx(dense_observed_loglik(model, ys[:t_len]), abs=1e-10)
    for t in np.nonzero(np.isnan(ys).all(axis=1))[0]:
        # an all-missing step adds nothing and leaves the prediction as the filter
        assert filt.loglik_increments[t] == 0.0
        np.testing.assert_array_equal(filt.filt_mean[t], filt.pred_mean[t])
        np.testing.assert_array_equal(filt.filt_cov[t], filt.pred_cov[t])


@pytest.mark.parametrize("method", ROUTES)
def test_exact_family_elbo_is_the_kalman_loglik_with_missing_data(method):
    model = make_lgssm()
    ys = observations(9, [(3, 0), (6, slice(None))])
    filt = oracle.kalman_filter(model, ys)
    loglik = np.cumsum(filt.loglik_increments)
    family = var.exact_conjugate_mode(model, filt)
    config = engine.EngineConfig(n_particles=50, method=method,
                                 clip_enabled=method == "accept_reject")
    rng = np.random.default_rng(7)
    state = engine.init_state(model, engine.ConjugateRunner(family), ys[0], config, rng)
    assert engine.estimate(state.cloud).elbo == pytest.approx(loglik[0], abs=1e-9)
    for t in range(1, len(ys)):
        state, out = engine.step(state, ys[t], model, config, rng)
        assert out.elbo == pytest.approx(loglik[t], abs=1e-9), t


def test_missing_coordinates_enter_the_amortizer_as_zeros():
    rng = np.random.default_rng(8)
    params = var.init_amortizer(rng, 2, 3, hidden=4, head_hidden=(5,), pot_hidden=(5,))
    runner = engine.AmortizedRunner(params, window=2)
    runner.begin_step(rng.standard_normal(3))
    a_before = runner.a_live.copy()
    y = np.array([0.4, np.nan, -1.2])
    runner.begin_step(y)
    valid = ~np.isnan(y)
    want = np.tanh(params.W @ a_before + params.U[:, valid] @ y[valid] + params.b)
    np.testing.assert_allclose(runner.a_live, want, rtol=1e-15, atol=1e-15)
    assert np.isnan(y[1])     # the caller's array is left as it was


@pytest.mark.parametrize("method", ROUTES)
def test_amortized_stream_with_missing_data_stays_finite(method):
    model = make_lgssm()
    ys = observations(9, [(3, 0), (6, slice(None))], seed=5)
    rng = np.random.default_rng(9)
    params = var.init_amortizer(rng, 2, 2, hidden=6, head_hidden=(6,), pot_hidden=(6,),
                                scale=0.5)
    runner = engine.AmortizedRunner(params, window=2)
    config = engine.EngineConfig(n_particles=32, method=method,
                                 clip_enabled=method == "accept_reject")
    state = engine.init_state(model, runner, ys[0], config, rng)
    for y in ys[1:]:
        state, out = engine.step(state, y, model, config, rng)
        assert np.isfinite(out.elbo)
        assert np.all(np.isfinite(out.grad_phi)) and np.all(np.isfinite(out.grad_theta))
    assert np.all(np.isfinite(runner.a_live))
