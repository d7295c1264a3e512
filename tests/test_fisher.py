"""The theta-gradient against the exact score, by the Fisher identity.

On the exact conjugate family q is the smoothing posterior p_theta(x | y),
so E[mean f_t] = E_q[grad_theta log p_theta(x_{0:t}, y_{0:t})] =
grad_theta log p_theta(y_{0:t}) (Poyiadjis, Doucet & Singh, Biometrika
2011).  The target is a central difference of the Kalman log-likelihood,
an oracle independent of the engine.  The per-step increments
mean f_t - mean f_{t-1} are checked against grad_theta log p(y_t | y_{0:t-1}),
the direction recursive maximum likelihood follows.

Each route runs over fixed seeds, and every component at every step must lie
within 4 standard errors of the seed mean.  Measured over these seeds the
largest |z| was 2.7 (full), 2.8 (categorical) and 2.7 (accept-reject);
self-normalized weights leave a bias of a few percent of |grad| at these N.
"""

import numpy as np
import pytest

from streamvi import engine, models, oracle, variational as var

T = 10
SEEDS = 30
H = 1e-5
# accept-reject falls back to exact rows for many draws on this family, so
# it runs at a smaller N to keep the test short
N = {"full": 300, "categorical": 300, "accept_reject": 100}


def make_problem():
    model = models.LinearGaussianSSM(F=np.array([[0.7, 0.2], [-0.1, 0.6]]),
                                     G=np.array([[1.0, 0.3], [0.0, 0.8]]),
                                     q_var=0.1, r_var=0.25)
    _, ys = models.simulate(model, T, np.random.default_rng(0))
    return model, np.asarray(ys)


def kalman_score_increments(model, ys):
    """grad_theta log p(y_t | y_{0:t-1}) per t by central differences; (T+1, p)."""
    theta = models.get_theta(model)

    def increments(th):
        return oracle.kalman_filter(models.with_theta(model, th), ys).loglik_increments

    return np.stack([(increments(theta + H * e) - increments(theta - H * e)) / (2 * H)
                     for e in np.eye(theta.size)], axis=1)


def engine_scores(model, ys, method, seed):
    """The engine's grad_theta estimate after each observation; (T+1, p)."""
    family = var.exact_conjugate_mode(model, oracle.kalman_filter(model, ys))
    config = engine.EngineConfig(n_particles=N[method], method=method,
                                 clip_enabled=method == "accept_reject")
    rng = np.random.default_rng(seed)
    state = engine.init_state(model, engine.ConjugateRunner(family), ys[0], config, rng)
    scores = [engine.estimate(state.cloud).grad_theta]
    for y in ys[1:]:
        state, out = engine.step(state, y, model, config, rng)
        scores.append(out.grad_theta)
    return np.array(scores)


def assert_within_4_stderr(samples, target):
    """Seed mean of ``samples`` (seeds, ...) within 4 standard errors of ``target``;
    the 1e-8 slack admits components that are exactly zero on both sides."""
    mean = samples.mean(axis=0)
    stderr = samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0])
    bad = np.abs(mean - target) > 4.0 * stderr + 1e-8
    assert not bad.any(), (np.argwhere(bad), mean[bad], target[bad], stderr[bad])


@pytest.mark.parametrize("method", ["full", "categorical", "accept_reject"])
def test_grad_theta_is_the_score_of_the_observations(method):
    model, ys = make_problem()
    increments = kalman_score_increments(model, ys)
    scores = np.stack([engine_scores(model, ys, method, seed=1000 + s)
                       for s in range(SEEDS)])
    # grad_theta log p(y_{0:t}) at every t, and its per-step increments
    assert_within_4_stderr(scores, np.cumsum(increments, axis=0))
    assert_within_4_stderr(np.diff(scores, axis=1, prepend=0.0), increments)
