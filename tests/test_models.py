import math

import numpy as np
import pytest
from scipy.linalg import solve_discrete_lyapunov

from streamvi import gaussian, mlp, models
from streamvi.gradients import fd_check


def make_lgssm(rng, d_x=2, d_y=2, q_var=0.1, r_var=0.25):
    f = 0.6 * np.eye(d_x) + 0.1 * rng.standard_normal((d_x, d_x))
    g = rng.standard_normal((d_y, d_x))
    return models.LinearGaussianSSM(F=f, G=g, q_var=q_var, r_var=r_var)


def make_chaotic(rng, d=3):
    w = rng.standard_normal((d, d)) / math.sqrt(d)
    return models.ChaoticRNNModel(W=w)


def make_residual(rng, d_x=2, d_y=2, hidden=6):
    return models.ResidualNonlinearSSM(
        f_net=mlp.init_mlp(rng, [d_x, hidden, d_x], scale=0.5),
        g_net=mlp.init_mlp(rng, [d_x, hidden, d_y], scale=0.5),
        q_diag=rng.uniform(0.05, 0.3, d_x),
        r_diag=rng.uniform(0.05, 0.3, d_y),
    )


class TestSimulate:
    def test_degenerate_f_pure_noise(self):
        rng = np.random.default_rng(0)
        m = models.LinearGaussianSSM(F=np.zeros((2, 2)), G=np.eye(2), q_var=0.3)
        xs, _ = models.simulate(m, 20000, rng)
        # beyond t=0 the states are i.i.d. N(0, q_var)
        v = xs[1:].var()
        assert v == pytest.approx(0.3, rel=0.05)

    def test_seed_determinism(self):
        m = make_lgssm(np.random.default_rng(1))
        xs1, ys1 = models.simulate(m, 50, np.random.default_rng(42))
        xs2, ys2 = models.simulate(m, 50, np.random.default_rng(42))
        np.testing.assert_array_equal(xs1, xs2)
        np.testing.assert_array_equal(ys1, ys2)

    def test_chaotic_gamma_zero_is_ar1(self):
        rng = np.random.default_rng(2)
        d = 1
        m = models.ChaoticRNNModel(W=np.eye(d), delta=0.001, rho=0.025,
                                   gamma=1e-300, q_var=0.01)
        xs, _ = models.simulate(m, 10**5, rng)
        x = xs[:, 0]
        x = x - x.mean()
        corr = (x[1:] @ x[:-1]) / (x @ x)
        assert corr == pytest.approx(1.0 - m.delta / m.rho, abs=0.01)

    def test_lgssm_stationary_variance_matches_lyapunov(self):
        rng = np.random.default_rng(3)
        f = np.array([[0.85, 0.1], [0.0, 0.7]])  # spectral radius <= 0.9
        m = models.LinearGaussianSSM(F=f, G=np.eye(2), q_var=0.1)
        xs, _ = models.simulate(m, 10**5, rng)
        target = solve_discrete_lyapunov(f, 0.1 * np.eye(2))
        emp = np.cov(xs[1000:].T)
        np.testing.assert_allclose(np.diag(emp), np.diag(target), rtol=0.05)


class TestLogDensities:
    def test_lgssm_hand_value(self):
        m = models.LinearGaussianSSM(F=np.eye(1), G=np.eye(1), q_var=1.0, r_var=1.0)
        assert models.log_m(m, np.zeros(1), np.zeros(1), 1) == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_lgssm_translation_structure(self):
        rng = np.random.default_rng(4)
        m = make_lgssm(rng)
        x_prev = rng.standard_normal(2)
        x = rng.standard_normal(2)
        shift = rng.standard_normal(2)
        # shifting x_prev by s and x by F s leaves the residual unchanged
        a = models.log_m(m, x_prev, x, 1)
        b = models.log_m(m, x_prev + shift, x + m.F @ shift, 1)
        assert a == pytest.approx(b, abs=1e-10)

    def test_chaotic_log_m_matches_gaussian_module(self):
        rng = np.random.default_rng(5)
        m = make_chaotic(rng)
        x_prev = rng.standard_normal(3)
        x = rng.standard_normal(3)
        eta = gaussian.from_moments(gaussian.GaussianMoments(
            mean=m.drift(x_prev), cov=m.q_var * np.eye(3)))
        assert models.log_m(m, x_prev, x, 1) == pytest.approx(
            gaussian.log_density(eta, x), abs=1e-10)

    def test_lgssm_log_g_matches_gaussian_module(self):
        rng = np.random.default_rng(6)
        m = make_lgssm(rng)
        x = rng.standard_normal(2)
        y = rng.standard_normal(2)
        eta = gaussian.from_moments(gaussian.GaussianMoments(
            mean=m.G @ x, cov=m.r_var * np.eye(2)))
        assert models.log_g(m, x, y, 1) == pytest.approx(
            gaussian.log_density(eta, y), abs=1e-10)

    def test_log_g_maximal_at_mean(self):
        rng = np.random.default_rng(7)
        m = make_lgssm(rng)
        x = rng.standard_normal(2)
        best = models.log_g(m, x, m.G @ x, 1)
        for _ in range(20):
            assert models.log_g(m, x, m.G @ x + 0.1 * rng.standard_normal(2), 1) <= best

    def test_student_t_gaussian_limit(self):
        rng = np.random.default_rng(8)
        d = 2
        m = models.ChaoticRNNModel(W=np.eye(d), t_dof=1e6, t_scale=0.3)
        x = rng.standard_normal(d)
        y = x + 0.2 * rng.standard_normal(d)
        gauss = models.LinearGaussianSSM(F=np.eye(d), G=np.eye(d), q_var=m.q_var,
                                         r_var=m.t_scale**2)
        assert models.log_g(m, x, y, 1) == pytest.approx(
            models.log_g(gauss, x, y, 1), abs=1e-3)

    def test_masked_coordinates_contribute_zero(self):
        rng = np.random.default_rng(9)
        for m in (make_lgssm(rng), make_chaotic(rng), make_residual(rng)):
            x = rng.standard_normal(m.d_x)
            y = rng.standard_normal(m.d_y)
            y_masked = y.copy()
            y_masked[0] = np.nan
            full = models.log_g(m, x, y, 1)
            part = models.log_g(m, x, y_masked, 1)
            # unmasking only coordinate 0 recovers the difference
            y_only0 = np.full(m.d_y, np.nan)
            y_only0[0] = y[0]
            only0 = models.log_g(m, x, y_only0, 1)
            assert full == pytest.approx(part + only0, abs=1e-10)
            assert models.log_g(m, x, np.full(m.d_y, np.nan), 1) == 0.0


class TestGradTheta:
    def test_lgssm_f_block_zero_at_origin(self):
        rng = np.random.default_rng(10)
        m = make_lgssm(rng)
        lay = models.theta_layout(m)
        g = models.grad_theta_log_joint_pair(m, np.zeros(2), rng.standard_normal(2),
                                             rng.standard_normal(2), 1)
        np.testing.assert_array_equal(lay.view(g, "F"), np.zeros((2, 2)))

    def test_lgssm_hand_value(self):
        m = models.LinearGaussianSSM(F=np.eye(1), G=np.eye(1), q_var=0.1, r_var=1.0)
        lay = models.theta_layout(m)
        g = models.grad_theta_log_joint_pair(
            m, np.array([1.0]), np.array([2.0]), np.array([np.nan]), 1)
        # d/dF log m = (x - F x_prev) x_prev / q = (2-1)*1/0.1 = 10
        assert lay.view(g, "F")[0, 0] == pytest.approx(10.0, abs=1e-12)

    @pytest.mark.parametrize("maker", [make_lgssm, make_chaotic, make_residual])
    def test_fd_agreement_random_instances(self, maker):
        rng = np.random.default_rng(11)
        n_inst = 100
        for k in range(n_inst):
            m = maker(rng)
            x_prev = rng.standard_normal(m.d_x)
            x = rng.standard_normal(m.d_x)
            y = rng.standard_normal(m.d_y)
            if k % 3 == 0:
                y[rng.integers(0, m.d_y)] = np.nan  # exercise masking
            t = 0 if k % 5 == 0 else 1
            theta0 = models.get_theta(m)
            analytic = models.grad_theta_log_joint_pair(m, x_prev, x, y, t)

            def f(th):
                mm = models.with_theta(m, th)
                return models.log_m(mm, x_prev, x, t) + models.log_g(mm, x, y, t)

            rep = fd_check(f, theta0, analytic, h=1e-6, tol=1e-5)
            assert rep.passed, f"instance {k}: max rel err {rep.max_rel_err:.2e}"


class TestBatchedVariants:
    def test_log_m_cross_matches_scalar(self):
        rng = np.random.default_rng(12)
        for m in (make_lgssm(rng), make_chaotic(rng), make_residual(rng)):
            xp = rng.standard_normal((4, m.d_x))
            xn = rng.standard_normal((3, m.d_x))
            cross = models.log_m_cross(m, xp, xn, 1)
            for i in range(3):
                for j in range(4):
                    assert cross[i, j] == pytest.approx(
                        models.log_m(m, xp[j], xn[i], 1), abs=1e-10)

    @pytest.mark.parametrize("t", [0, 1])
    def test_log_m_cross_matches_scalar_at_t(self, t):
        # at t=0 both are the initial density of the new state, whatever x_prev
        rng = np.random.default_rng(18 + t)
        for m in (make_lgssm(rng), make_chaotic(rng), make_residual(rng)):
            xp = rng.standard_normal((4, m.d_x))
            xn = rng.standard_normal((3, m.d_x))
            want = [[models.log_m(m, xp[j], xn[i], t) for j in range(4)] for i in range(3)]
            np.testing.assert_allclose(models.log_m_cross(m, xp, xn, t), want,
                                       rtol=1e-12, atol=1e-10)

    def test_log_g_batch_matches_scalar(self):
        rng = np.random.default_rng(13)
        for m in (make_lgssm(rng), make_chaotic(rng), make_residual(rng)):
            xs = rng.standard_normal((5, m.d_x))
            y = rng.standard_normal(m.d_y)
            y[0] = np.nan
            got = models.log_g_batch(m, xs, y)
            for i in range(5):
                assert got[i] == pytest.approx(models.log_g(m, xs[i], y, 1), abs=1e-10)

    def test_pair_contract_matches_loop(self):
        rng = np.random.default_rng(14)
        for m in (make_lgssm(rng), make_chaotic(rng), make_residual(rng)):
            n_new, n_prev = 3, 4
            xp = rng.standard_normal((n_prev, m.d_x))
            xn = rng.standard_normal((n_new, m.d_x))
            y = rng.standard_normal(m.d_y)
            y[-1] = np.nan
            coeff = rng.uniform(0.1, 1.0, (n_new, n_prev))
            coeff /= coeff.sum(axis=1, keepdims=True)
            got = models.grad_theta_pair_contract(m, xp, xn, y, 1, coeff)
            for i in range(n_new):
                want = sum(coeff[i, j] * models.grad_theta_log_joint_pair(m, xp[j], xn[i], y, 1)
                           for j in range(n_prev))
                np.testing.assert_allclose(got[i], want, rtol=1e-9, atol=1e-10)

    def test_init_batch_matches_loop(self):
        rng = np.random.default_rng(15)
        for m in (make_lgssm(rng), make_chaotic(rng), make_residual(rng)):
            xs = rng.standard_normal((4, m.d_x))
            y0 = rng.standard_normal(m.d_y)
            got = models.grad_theta_init_batch(m, xs, y0)
            for i in range(4):
                want = models.grad_theta_log_joint_pair(m, None, xs[i], y0, 0)
                np.testing.assert_allclose(got[i], want, rtol=1e-9, atol=1e-10)

    # an observation with every coordinate missing goes through the one
    # masking path that all three classes share

    @pytest.mark.parametrize("maker", [make_lgssm, make_chaotic, make_residual])
    def test_all_missing_log_g_batch_is_zero(self, maker):
        rng = np.random.default_rng(30)
        m = maker(rng)
        got = models.log_g_batch(m, rng.standard_normal((5, m.d_x)), np.full(m.d_y, np.nan))
        np.testing.assert_array_equal(got, np.zeros(5))

    @pytest.mark.parametrize("maker", [make_lgssm, make_chaotic, make_residual])
    def test_all_missing_init_batch_matches_loop(self, maker):
        rng = np.random.default_rng(31)
        m = maker(rng)
        xs = rng.standard_normal((4, m.d_x))
        y0 = np.full(m.d_y, np.nan)
        got = models.grad_theta_init_batch(m, xs, y0)
        for i in range(4):
            want = models.grad_theta_log_joint_pair(m, None, xs[i], y0, 0)
            np.testing.assert_allclose(got[i], want, rtol=1e-9, atol=1e-10)

    @pytest.mark.parametrize("maker", [make_lgssm, make_chaotic, make_residual])
    def test_all_missing_pair_contract_matches_loop(self, maker):
        rng = np.random.default_rng(32)
        m = maker(rng)
        n_new, n_prev = 3, 4
        xp = rng.standard_normal((n_prev, m.d_x))
        xn = rng.standard_normal((n_new, m.d_x))
        y = np.full(m.d_y, np.nan)
        coeff = rng.uniform(0.1, 1.0, (n_new, n_prev))
        coeff /= coeff.sum(axis=1, keepdims=True)
        got = models.grad_theta_pair_contract(m, xp, xn, y, 1, coeff)
        for i in range(n_new):
            want = sum(coeff[i, j] * models.grad_theta_log_joint_pair(m, xp[j], xn[i], y, 1)
                       for j in range(n_prev))
            np.testing.assert_allclose(got[i], want, rtol=1e-9, atol=1e-10)


class TestThetaViews:
    def test_round_trip(self):
        rng = np.random.default_rng(16)
        for m in (make_lgssm(rng), make_chaotic(rng), make_residual(rng)):
            th = models.get_theta(m)
            m2 = models.with_theta(m, th)
            np.testing.assert_allclose(models.get_theta(m2), th, rtol=0, atol=1e-15)

    def test_layout_partitions(self):
        rng = np.random.default_rng(17)
        m = make_residual(rng)
        lay = models.theta_layout(m)
        assert lay.total == models.get_theta(m).size
        covered = sum(e.size for e in lay.entries)
        assert covered == lay.total
