import math

import numpy as np
import pytest

import reference
from streamvi import gaussian, models, oracle, variational as var


def make_lgssm(rng, d_x=2, d_y=2):
    f = 0.7 * np.eye(d_x) + 0.1 * rng.standard_normal((d_x, d_x))
    g = rng.standard_normal((d_y, d_x))
    return models.LinearGaussianSSM(F=f, G=g, q_var=0.1, r_var=0.25)


class TestKalmanFilter:
    def test_hand_shrinkage(self):
        # F=0, G=I, q=r=q0=1: filtering mean is y_t / 2 at every t
        m = models.LinearGaussianSSM(F=np.zeros((1, 1)), G=np.eye(1),
                                     q_var=1.0, r_var=1.0, q0_var=1.0)
        ys = np.array([[2.0], [-4.0], [1.0]])
        out = oracle.kalman_filter(m, ys)
        np.testing.assert_allclose(out.filt_mean, ys / 2.0, atol=1e-12)

    def test_zero_observations_symmetric(self):
        rng = np.random.default_rng(0)
        m = make_lgssm(rng)
        out = oracle.kalman_filter(m, np.zeros((10, 2)))
        np.testing.assert_allclose(out.filt_mean, 0.0, atol=1e-12)

    def test_loglik_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        for d in (1, 2):
            m = make_lgssm(rng, d_x=d, d_y=d)
            _, ys = models.simulate(m, 4, rng)  # T+1 = 5 steps
            filt = oracle.kalman_filter(m, ys)
            dense = reference.dense_loglik(m, ys)
            assert filt.loglik == pytest.approx(dense, abs=1e-8)

    def test_joseph_symmetry_long_stream(self):
        rng = np.random.default_rng(2)
        m = make_lgssm(rng)
        _, ys = models.simulate(m, 2000, rng)
        out = oracle.kalman_filter(m, ys)
        worst = max(np.max(np.abs(c - c.T)) for c in out.filt_cov)
        assert worst <= 1e-12


class TestKalmanSmoother:
    def test_last_smoothed_equals_last_filtered(self):
        rng = np.random.default_rng(3)
        m = make_lgssm(rng)
        _, ys = models.simulate(m, 20, rng)
        filt = oracle.kalman_filter(m, ys)
        sm = reference.kalman_smoother(m, filt)
        np.testing.assert_array_equal(sm.smooth_mean[-1], filt.filt_mean[-1])
        np.testing.assert_array_equal(sm.smooth_cov[-1], filt.filt_cov[-1])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        m = make_lgssm(rng, d_x=2, d_y=2)
        _, ys = models.simulate(m, 4, rng)
        filt = oracle.kalman_filter(m, ys)
        sm = reference.kalman_smoother(m, filt)
        mean, cov = reference.dense_smoother_moments(m, ys)
        d = m.d_x
        for t in range(5):
            np.testing.assert_allclose(sm.smooth_mean[t], mean[t * d:(t + 1) * d], atol=1e-8)
            np.testing.assert_allclose(sm.smooth_cov[t],
                                       cov[t * d:(t + 1) * d, t * d:(t + 1) * d], atol=1e-8)

    def test_f_zero_smoothed_equals_filtered(self):
        rng = np.random.default_rng(5)
        m = models.LinearGaussianSSM(F=np.zeros((2, 2)), G=np.eye(2))
        _, ys = models.simulate(m, 10, rng)
        filt = oracle.kalman_filter(m, ys)
        sm = reference.kalman_smoother(m, filt)
        np.testing.assert_allclose(sm.smooth_mean, filt.filt_mean, atol=1e-12)
        np.testing.assert_allclose(sm.smooth_cov, filt.filt_cov, atol=1e-12)


class TestExactBackwardKernel:
    def test_f_zero_kernel_is_filtering_marginal(self):
        rng = np.random.default_rng(6)
        m = models.LinearGaussianSSM(F=np.zeros((1, 1)), G=np.eye(1))
        _, ys = models.simulate(m, 5, rng)
        filt = oracle.kalman_filter(m, ys)
        a, b, cov = reference.exact_backward_kernel(m, filt, 3)
        np.testing.assert_allclose(a, 0.0, atol=1e-14)
        np.testing.assert_allclose(b, filt.filt_mean[2], atol=1e-12)
        np.testing.assert_allclose(cov, filt.filt_cov[2], atol=1e-12)

    def test_composition_reproduces_smoother(self):
        rng = np.random.default_rng(7)
        m = make_lgssm(rng, d_x=1, d_y=1)
        _, ys = models.simulate(m, 3, rng)
        filt = oracle.kalman_filter(m, ys)
        sm = reference.kalman_smoother(m, filt)
        for t in range(1, 4):
            a, b, cov = reference.exact_backward_kernel(m, filt, t)
            np.testing.assert_allclose(a @ sm.smooth_mean[t] + b, sm.smooth_mean[t - 1],
                                       atol=1e-10)
            np.testing.assert_allclose(a @ sm.smooth_cov[t], sm.pairwise_cov[t - 1],
                                       atol=1e-10)

    def test_matches_exact_conjugate_mode(self):
        rng = np.random.default_rng(8)
        m = make_lgssm(rng, d_x=2, d_y=2)
        _, ys = models.simulate(m, 5, rng)
        filt = oracle.kalman_filter(m, ys)
        family = var.exact_conjugate_mode(m, filt)
        for t in (1, 3, 5):
            a, b, cov = reference.exact_backward_kernel(m, filt, t)
            x_t = rng.standard_normal(2)
            eta = reference.add(family.etas[t - 1],
                                reference.eta_at(family.potentials[t - 1], x_t))
            mom = gaussian.to_moments(eta)
            np.testing.assert_allclose(mom.mean, a @ x_t + b, atol=1e-8)
            np.testing.assert_allclose(mom.cov, cov, atol=1e-8)


class TestExpectedH:
    def test_conjugate_elbo_equals_loglik(self):
        rng = np.random.default_rng(9)
        m = make_lgssm(rng, d_x=2, d_y=2)
        _, ys = models.simulate(m, 30, rng)
        filt = oracle.kalman_filter(m, ys)
        family = var.exact_conjugate_mode(m, filt)
        elbo = oracle.exact_elbo(m, family, ys)
        assert elbo == pytest.approx(filt.loglik, abs=1e-8)

    def test_inflated_cov_strictly_below(self):
        rng = np.random.default_rng(10)
        m = make_lgssm(rng, d_x=1, d_y=1)
        _, ys = models.simulate(m, 10, rng)
        filt = oracle.kalman_filter(m, ys)
        family = var.exact_conjugate_mode(m, filt)
        inflated = var.ConjugateSequence(
            etas=[reference.from_moments(gaussian.GaussianMoments(
                gaussian.to_moments(e).mean, 2.0 * gaussian.to_moments(e).cov))
                for e in family.etas],
            potentials=family.potentials,
        )
        elbo = oracle.exact_elbo(m, inflated, ys)
        assert elbo < filt.loglik - 1e-6

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(11)
        m = make_lgssm(rng, d_x=1, d_y=1)
        _, ys = models.simulate(m, 2, rng)  # indices t = 0, 1, 2
        filt = oracle.kalman_filter(m, ys)
        family = var.exact_conjugate_mode(m, filt)
        # perturb so the test is not the trivial zero-KL identity
        family = var.ConjugateSequence(
            etas=[reference.from_moments(gaussian.GaussianMoments(
                gaussian.to_moments(e).mean + 0.1, 1.5 * gaussian.to_moments(e).cov))
                for e in family.etas],
            potentials=family.potentials,
        )
        want = oracle.expected_H(m, family, ys)

        n = 2 * 10**6
        xs2 = gaussian.sample(family.etas[2], rng, n)
        h = np.zeros(n)
        xs_next = xs2
        for t in (2, 1):
            pot = family.potentials[t - 1]
            eta_prev = family.etas[t - 1]
            prec = -2.0 * (eta_prev.eta2 + pot.eta2)
            cov_k = np.linalg.inv(prec)
            a_k = cov_k @ pot.lin
            b_k = cov_k @ (eta_prev.eta1 + pot.const)
            mean_k = xs_next @ a_k.T + b_k
            xs_prev = mean_k + rng.standard_normal((n, 1)) @ np.linalg.cholesky(cov_k).T
            resid = xs_next - xs_prev * m.F[0, 0]
            log_mt = -0.5 * (math.log(2 * math.pi * m.q_var) + resid**2 / m.q_var)
            resid_y = ys[t] - xs_next * m.G[0, 0]
            log_gt = -0.5 * (math.log(2 * math.pi * m.r_var) + resid_y**2 / m.r_var)
            half = (xs_prev - mean_k) / math.sqrt(cov_k[0, 0])
            log_q = -0.5 * (math.log(2 * math.pi * cov_k[0, 0]) + half**2)
            h += (log_mt + log_gt - log_q).ravel()
            xs_next = xs_prev
        # base term at t=0
        log_chi = -0.5 * (np.log(2 * math.pi * m.q0_var) + xs_next**2 / m.q0_var)
        resid_y = ys[0] - xs_next * m.G[0, 0]
        log_g0 = -0.5 * (np.log(2 * math.pi * m.r_var) + resid_y**2 / m.r_var)
        h += (log_chi + log_g0).ravel()

        stderr = h.std(ddof=1) / math.sqrt(n)
        assert abs(h.mean() - want) < 3.0 * stderr
