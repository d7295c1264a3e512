"""The precision of the carried phi statistic g, ``EngineConfig.g_dtype``.

g is stored, gathered and multiplied in float32 by default.  h, f, the
weights and the ELBO never read g, so they are bit-identical across the
two settings; ``grad_phi`` may only drift by float32 rounding, and a g
entry beyond the float32 range is a typed error, not a silent inf.
"""

import numpy as np
import pytest

from streamvi import engine, gaussian, models, variational as var
from streamvi.errors import NonFiniteStatistic

D = 2


def make_model():
    return models.LinearGaussianSSM(F=0.7 * np.eye(D), G=np.eye(D), q_var=0.1, r_var=0.25)


def make_runner(seed, hidden):
    params = var.init_amortizer(np.random.default_rng(seed), D, D, hidden=hidden,
                                head_hidden=(hidden,), pot_hidden=(hidden,), scale=0.5)
    return engine.AmortizedRunner(params, window=2)


def test_unknown_g_dtype_raises():
    with pytest.raises(ValueError, match="g_dtype"):
        engine.EngineConfig(g_dtype="float16")
    assert engine.EngineConfig().g_dtype == "float32"


@pytest.mark.parametrize("g_dtype", ["float32", "float64"])
def test_g_is_carried_in_the_configured_dtype(g_dtype):
    model, rng = make_model(), np.random.default_rng(3)
    ys = rng.standard_normal((3, D))
    config = engine.EngineConfig(n_particles=5, method="full", g_dtype=g_dtype)
    state = engine.init_state(model, make_runner(4, hidden=5), ys[0], config, rng)
    assert state.cloud.g_stat.dtype == g_dtype
    for y in ys[1:]:
        state, out = engine.step(state, y, model, config, rng)
        assert state.cloud.g_stat.dtype == g_dtype
        assert out.grad_phi.dtype == np.float64


def run_stream(g_dtype, steps, n, seed):
    rng = np.random.default_rng(seed)
    model = make_model()
    ys = rng.standard_normal((steps + 1, D))
    config = engine.EngineConfig(n_particles=n, method="accept_reject", clip_enabled=True,
                                 g_dtype=g_dtype)
    state = engine.init_state(model, make_runner(seed + 1, hidden=8), ys[0], config, rng)
    outs = []
    for y in ys[1:]:
        state, out = engine.step(state, y, model, config, rng)
        outs.append(out)
    return outs


def test_float32_grad_phi_does_not_drift_over_a_long_stream():
    # 2000 accept-reject steps with dim_phi = 274, in about 13 s for both
    # streams; measured drift 3.5e-7 at most
    outs32 = run_stream("float32", 2000, 32, seed=70)
    outs64 = run_stream("float64", 2000, 32, seed=70)
    for t, (a, b) in enumerate(zip(outs32, outs64)):
        assert a.elbo == b.elbo, t
        np.testing.assert_array_equal(a.grad_theta, b.grad_theta, err_msg=str(t))
        rel = np.linalg.norm(a.grad_phi - b.grad_phi) / np.linalg.norm(b.grad_phi)
        assert rel <= 1e-5, (t, rel)


def far_particle_update(g_dtype):
    """``update_statistics`` arguments whose new particle 2 lies at 1e20."""
    model = make_model()
    ys = np.random.default_rng(80).standard_normal((3, D))
    rng = np.random.default_rng(82)
    runner = make_runner(81, hidden=5)
    config = engine.EngineConfig(n_particles=4, method="full", g_dtype=g_dtype)
    state = engine.init_state(model, runner, ys[0], config, rng)
    state, _ = engine.step(state, ys[1], model, config, rng)
    runner.begin_step(ys[2])
    eta = runner.current_eta()
    xi_new = gaussian.sample(eta, rng, 4)
    xi_new[2] = 1e20
    log_q_new = gaussian.log_density_cross(eta.eta1[None], eta.eta2[None], xi_new)[0]
    kernel = engine.build_kernel(runner, xi_new)
    return state.cloud, xi_new, model, runner, ys[2], kernel, log_q_new, config


def test_g_beyond_float32_range_names_the_particle():
    # the far particle's bracket, about -7e40, is finite in float64, so only
    # its g row leaves the float32 range
    f32_max = np.finfo(np.float32).max
    with np.errstate(over="ignore", invalid="ignore"):
        g64 = engine.update_statistics(*far_particle_update("float64")).g_stat
        with pytest.raises(NonFiniteStatistic, match="g statistic non-finite at particle 2,"):
            engine.update_statistics(*far_particle_update("float32"))
    assert np.abs(g64[2]).max() > f32_max
    assert np.abs(np.delete(g64, 2, axis=0)).max() < f32_max
