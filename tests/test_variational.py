import math

import numpy as np
import pytest
from scipy import integrate

import reference
from streamvi import gaussian, models, oracle, variational as var
from streamvi.errors import DimensionMismatch, ModelMismatch


def make_params(rng, d_x=2, d_y=2, hidden=6):
    return var.init_amortizer(rng, d_x, d_y, hidden=hidden, head_hidden=(8,),
                              pot_hidden=(8,), scale=0.8)


def zero_potential(params):
    return var.AmortizerParams(
        W=params.W, U=params.U, b=params.b, head_marginal=params.head_marginal,
        head_potential=params.head_potential.unpack(
            np.zeros(params.head_potential.n_params)),
        d_x=params.d_x)


class TestAdvance:
    def test_all_zero(self):
        rng = np.random.default_rng(0)
        p = make_params(rng)
        zeroed = var.AmortizerParams(W=np.zeros_like(p.W), U=np.zeros_like(p.U),
                                     b=np.zeros_like(p.b), head_marginal=p.head_marginal,
                                     head_potential=p.head_potential, d_x=p.d_x)
        out = var.advance(zeroed, var.AmortizerState(a=np.ones(6)), np.ones(2))
        np.testing.assert_array_equal(out.a, np.zeros(6))

    def test_contraction_rate(self):
        rng = np.random.default_rng(1)
        p = make_params(rng)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        p = var.AmortizerParams(W=0.5 * q, U=p.U, b=p.b, head_marginal=p.head_marginal,
                                head_potential=p.head_potential, d_x=p.d_x)
        a = var.AmortizerState(a=rng.standard_normal(6))
        a_tilde = var.AmortizerState(a=rng.standard_normal(6))
        base = np.linalg.norm(a.a - a_tilde.a)
        for t in range(1, 21):
            y = rng.standard_normal(2)
            a = var.advance(p, a, y)
            a_tilde = var.advance(p, a_tilde, y)
            assert np.linalg.norm(a.a - a_tilde.a) <= 0.5**t * base + 1e-12

    def test_determinism(self):
        rng = np.random.default_rng(2)
        p = make_params(rng)
        s = var.AmortizerState(a=rng.standard_normal(6))
        y = rng.standard_normal(2)
        np.testing.assert_array_equal(var.advance(p, s, y).a, var.advance(p, s, y).a)


class TestMarginalParams:
    def test_zero_head_closed_form(self):
        rng = np.random.default_rng(3)
        p = make_params(rng)
        zeroed = var.AmortizerParams(
            W=p.W, U=p.U, b=p.b,
            head_marginal=p.head_marginal.unpack(np.zeros(p.head_marginal.n_params)),
            head_potential=p.head_potential, d_x=p.d_x)
        eta = reference.marginal_params(zeroed, var.AmortizerState(a=rng.standard_normal(6)))
        sp0 = math.log(2.0)  # softplus(0)
        np.testing.assert_allclose(eta.eta1, 0.0, atol=1e-15)
        np.testing.assert_allclose(
            eta.eta2, -0.5 * sp0**2 * np.eye(2) - var.MARGINAL_EPS * np.eye(2), atol=1e-15)

    def test_validity_by_construction(self):
        rng = np.random.default_rng(4)
        count = 0
        for _ in range(100):
            p = make_params(rng)
            for _ in range(100):
                eta = reference.marginal_params(p, var.AmortizerState(
                    a=rng.standard_normal(6) * 3.0))
                eta.chol_precision()  # must not raise
                count += 1
        assert count == 10**4

    def test_continuity_probe(self):
        rng = np.random.default_rng(5)
        p = make_params(rng)
        a = rng.standard_normal(6) * 0.5
        eta0 = reference.marginal_params(p, var.AmortizerState(a=a))
        ratios = []
        for _ in range(50):
            delta = rng.standard_normal(6) * 1e-5
            eta1 = reference.marginal_params(p, var.AmortizerState(a=a + delta))
            num = (np.linalg.norm(eta1.eta1 - eta0.eta1)
                   + np.linalg.norm(eta1.eta2 - eta0.eta2))
            ratios.append(num / np.linalg.norm(delta))
        assert max(ratios) < 1e3  # bounded local Lipschitz ratio


class TestPotentialParams:
    def test_zero_net_identity_potential(self):
        rng = np.random.default_rng(6)
        p = zero_potential(make_params(rng))
        eta = reference.potential_params(p, rng.standard_normal(2))
        np.testing.assert_array_equal(eta.eta1, np.zeros(2))
        np.testing.assert_array_equal(eta.eta2, np.zeros((2, 2)))

    def test_kernel_validity_probes(self):
        rng = np.random.default_rng(7)
        count = 0
        for _ in range(100):
            p = make_params(rng)
            state = var.AmortizerState(a=rng.standard_normal(6))
            eta_prev = reference.marginal_params(p, state)
            for _ in range(100):
                kern = reference.backward_kernel(p, eta_prev, rng.standard_normal(2) * 2.0)
                kern.chol_precision()
                count += 1
        assert count == 10**4


class TestBackwardKernel:
    def test_zero_potential_equals_marginal(self):
        rng = np.random.default_rng(9)
        p = zero_potential(make_params(rng))
        eta_prev = reference.marginal_params(p, var.AmortizerState(a=rng.standard_normal(6)))
        kern = reference.backward_kernel(p, eta_prev, rng.standard_normal(2))
        np.testing.assert_array_equal(kern.eta1, eta_prev.eta1)
        np.testing.assert_array_equal(kern.eta2, eta_prev.eta2)

    def test_consistency_identity(self):
        # log q_{t-1|t}(x_t, x_prev) - log q_{t-1}(x_prev)
        #   = <eta~(x_t), T(x_prev)> - A(eta_sum) + A(eta_prev)
        rng = np.random.default_rng(10)
        p = make_params(rng)
        eta_prev = reference.marginal_params(p, var.AmortizerState(a=rng.standard_normal(6)))
        for _ in range(20):
            x_t = rng.standard_normal(2)
            x_prev = rng.standard_normal(2)
            kern = reference.backward_kernel(p, eta_prev, x_t)
            lhs = reference.log_density(kern, x_prev) - reference.log_density(eta_prev, x_prev)
            pot = reference.potential_params(p, x_t)
            rhs = (reference.inner(pot, reference.suff_stat(x_prev))
                   - reference.log_partition(kern) + reference.log_partition(eta_prev))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_quadrature_normalization_1d(self):
        rng = np.random.default_rng(11)
        p = var.init_amortizer(rng, 1, 1, hidden=4, head_hidden=(6,), pot_hidden=(6,),
                               scale=0.8)
        eta_prev = reference.marginal_params(p, var.AmortizerState(a=rng.standard_normal(4)))
        for _ in range(3):
            kern = reference.backward_kernel(p, eta_prev, rng.standard_normal(1))
            mom = gaussian.to_moments(kern)
            mu, sd = mom.mean[0], math.sqrt(mom.cov[0, 0])
            val, _ = integrate.quad(lambda x: math.exp(reference.log_density(kern, [x])),
                                    mu - 10 * sd, mu + 10 * sd, limit=200)
            assert val == pytest.approx(1.0, abs=1e-6)


class TestLogPotential:
    def test_hand_value_1d(self):
        # craft a head emitting raw = (2, sqrt(2)) so eta~ = (2, -1)
        head = var.mlp.MLPParams(layers=[(np.zeros((2, 1)), np.array([2.0, math.sqrt(2.0)]))])
        p = var.AmortizerParams(W=np.zeros((2, 2)), U=np.zeros((2, 1)), b=np.zeros(2),
                                head_marginal=var.mlp.init_mlp(
                                    np.random.default_rng(0), [2, 2], scale=0.1),
                                head_potential=head, d_x=1)
        pot = reference.potential_params(p, np.array([0.5]))
        np.testing.assert_allclose(pot.eta1, [2.0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(pot.eta2, [[-1.0]], rtol=0, atol=1e-12)
        got = reference.inner(pot, reference.suff_stat(np.array([3.0])))
        assert got == pytest.approx(2.0 * 3.0 - 1.0 * 9.0, abs=1e-12)

    def test_symmetrization_invariance(self):
        rng = np.random.default_rng(13)
        p = make_params(rng)
        x_prev, x_t = rng.standard_normal(2), rng.standard_normal(2)
        pot = reference.potential_params(p, x_t)
        t = reference.suff_stat(x_prev)
        sym = gaussian.GaussianNatural(eta1=pot.eta1, eta2=0.5 * (pot.eta2 + pot.eta2.T))
        assert reference.inner(pot, t) == pytest.approx(reference.inner(sym, t), abs=1e-12)


class TestSpectralProject:
    def test_scale_down(self):
        got = var.spectral_project(2.0 * np.eye(3), 0.9)
        np.testing.assert_allclose(got, 0.9 * np.eye(3), atol=1e-10)

    def test_feasible_untouched(self):
        w = 0.5 * np.eye(3)
        got = var.spectral_project(w, 0.9)
        assert got is w

    def test_postcondition_and_idempotence(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            w = rng.standard_normal((n, n)) * rng.uniform(0.1, 3.0)
            rho = rng.uniform(0.3, 0.95)
            p1 = var.spectral_project(w, rho)
            assert var.spectral_norm(p1) <= rho + 1e-10
            p2 = var.spectral_project(p1, rho)
            np.testing.assert_array_equal(p1, p2)

    def test_norm_against_svd(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            w = rng.standard_normal((5, 5))
            assert var.spectral_norm(w) == pytest.approx(
                np.linalg.svd(w, compute_uv=False)[0], rel=1e-8)


class TestExactConjugateMode:
    def test_requires_lgssm(self):
        rng = np.random.default_rng(16)
        m = models.ChaoticRNNModel(W=np.eye(2))
        with pytest.raises(ModelMismatch):
            var.exact_conjugate_mode(m, None)

    def test_f_zero_kernel_is_marginal(self):
        rng = np.random.default_rng(17)
        m = models.LinearGaussianSSM(F=np.zeros((1, 1)), G=np.eye(1))
        _, ys = models.simulate(m, 5, rng)
        filt = oracle.kalman_filter(m, ys)
        fam = var.exact_conjugate_mode(m, filt)
        x_t = rng.standard_normal(1)
        kern = reference.add(fam.etas[2], reference.eta_at(fam.potentials[2], x_t))
        np.testing.assert_allclose(kern.eta1, fam.etas[2].eta1, atol=1e-12)
        np.testing.assert_allclose(kern.eta2, fam.etas[2].eta2, atol=1e-12)

    def test_random_d2_matches_kalman_backward(self):
        rng = np.random.default_rng(18)
        f = 0.6 * np.eye(2) + 0.2 * rng.standard_normal((2, 2))
        m = models.LinearGaussianSSM(F=f, G=rng.standard_normal((2, 2)))
        _, ys = models.simulate(m, 6, rng)
        filt = oracle.kalman_filter(m, ys)
        fam = var.exact_conjugate_mode(m, filt)
        for t in (1, 4, 6):
            a, b, cov = reference.exact_backward_kernel(m, filt, t)
            x_t = rng.standard_normal(2)
            mom = gaussian.to_moments(
                reference.add(fam.etas[t - 1], reference.eta_at(fam.potentials[t - 1], x_t)))
            np.testing.assert_allclose(mom.mean, a @ x_t + b, atol=1e-8)
            np.testing.assert_allclose(mom.cov, cov, atol=1e-8)

    def test_joint_sampling_matches_smoother(self):
        rng = np.random.default_rng(19)
        m = models.LinearGaussianSSM(F=0.8 * np.eye(1), G=np.eye(1))
        _, ys = models.simulate(m, 5, rng)
        filt = oracle.kalman_filter(m, ys)
        sm = reference.kalman_smoother(m, filt)
        fam = var.exact_conjugate_mode(m, filt)
        n = 10**5
        xs = gaussian.sample(fam.etas[5], rng, n)
        means = [xs.mean(axis=0)]
        for t in range(5, 0, -1):
            pot = fam.potentials[t - 1]
            eta1 = xs @ pot.lin.T + pot.const + fam.etas[t - 1].eta1
            prec = -2.0 * (fam.etas[t - 1].eta2 + pot.eta2)
            cov_k = np.linalg.inv(prec)
            mean_k = eta1 @ cov_k.T
            xs = mean_k + rng.standard_normal((n, 1)) @ np.linalg.cholesky(cov_k).T
            means.append(xs.mean(axis=0))
        means = np.array(means[::-1])
        mc_err = 4.0 * np.sqrt(np.array([c[0, 0] for c in sm.smooth_cov]) / n)
        assert np.all(np.abs(means[:, 0] - sm.smooth_mean[:, 0]) < mc_err + 4e-2)


@pytest.mark.parametrize("extra", [2, 7, -1])
def test_wrong_length_parameter_vector_raises(extra):
    # extra or missing entries raise instead of being dropped or reshaped
    rng = np.random.default_rng(20)
    params = make_params(rng)
    phi = var.get_phi(params)
    with pytest.raises(DimensionMismatch):
        var.with_phi(params, np.resize(phi, phi.size + extra))
    head = params.head_marginal
    with pytest.raises(DimensionMismatch):
        head.unpack(np.resize(head.pack(), head.n_params + extra))
    for m in (models.LinearGaussianSSM(F=0.7 * np.eye(2), G=np.eye(2)),
              models.ResidualNonlinearSSM(f_net=var.mlp.init_mlp(rng, [2, 3, 2]),
                                          g_net=var.mlp.init_mlp(rng, [2, 3, 2]),
                                          q_diag=np.ones(2), r_diag=np.ones(2))):
        theta = models.get_theta(m)
        with pytest.raises(DimensionMismatch):
            models.with_theta(m, np.resize(theta, theta.size + extra))
