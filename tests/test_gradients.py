import math

import numpy as np
import pytest

import reference as ref
from reference import NonFiniteFunctionValue, log_density
from streamvi import gradients as gr
from streamvi import variational as var


def random_params(rng, d_x=2, d_y=2, hidden=4, head_hidden=(5,), pot_hidden=(5,)):
    return var.init_amortizer(rng, d_x, d_y, hidden=hidden, head_hidden=head_hidden,
                              pot_hidden=pot_hidden, scale=0.8)


class TestFDCheck:
    def test_quadratic_exact(self):
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal(5)
        rep = ref.fd_check(lambda x: 0.5 * float(x @ x), x0, x0, h=1e-6, tol=1e-9)
        assert rep.passed

    def test_exp_sum(self):
        rng = np.random.default_rng(1)
        x0 = 0.1 * rng.standard_normal(4)
        f = lambda x: math.exp(float(np.sum(x)))
        analytic = np.full(4, f(x0))
        rep = ref.fd_check(f, x0, analytic, h=1e-6, tol=1e-6)
        assert rep.passed

    def test_wrong_gradient_fails(self):
        x0 = np.ones(3)
        rep = ref.fd_check(lambda x: 0.5 * float(x @ x), x0, 2.0 * x0, h=1e-6, tol=1e-5)
        assert not rep.passed
        assert rep.max_rel_err > 0.4

    def test_nonfinite_raises(self):
        with pytest.raises(NonFiniteFunctionValue):
            ref.fd_check(lambda x: float("nan"), np.ones(2), np.ones(2))


class TestTapePrimitives:
    def fd_on_tape(self, build, x0, tol=1e-6, h=1e-6):
        """build(tape, leaf) -> scalar node; FD-checks tape gradient."""
        t = ref.Tape()
        leaf = t.leaf(x0)
        out = build(t, leaf)
        (analytic,) = t.gradient(out, [leaf])

        def f(x):
            t2 = ref.Tape()
            l2 = t2.leaf(x.reshape(x0.shape))
            return float(build(t2, l2).value)

        rep = ref.fd_check(lambda x: f(x), x0.ravel(), analytic.ravel(), h=h, tol=tol)
        assert rep.passed, f"max rel err {rep.max_rel_err:.2e}"

    def test_elementwise_chain(self):
        rng = np.random.default_rng(2)
        x0 = rng.standard_normal(6)

        def build(t, leaf):
            y = ref.tanh(leaf) * t.leaf(rng2) + ref.softplus(leaf)
            return ref.total(y * y)

        rng2 = np.random.default_rng(3).standard_normal(6)
        self.fd_on_tape(build, x0)

    def test_matmul_solve_cholesky_logdet(self):
        # scalar made from chol / tri_solve / logdet of an SPD assembled matrix
        rng = np.random.default_rng(4)
        m0 = rng.standard_normal((3, 3))
        v = rng.standard_normal(3)

        def build(t, leaf):
            spd = ref.matmul(leaf, ref.transpose(leaf)) + t.leaf(2.0 * np.eye(3))
            chol = ref.cholesky(spd)
            half = ref.tri_solve(chol, t.leaf(v))
            logdet = ref.total(ref.log(ref.extract_diag(chol)))
            return ref.dot(half, half) + logdet

        self.fd_on_tape(build, m0, tol=1e-6)

    def test_index_scatter(self):
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal(6)
        rows, cols = np.tril_indices(3)

        def build(t, leaf):
            low = ref.scatter_matrix(leaf, rows, cols, 3)
            picked = ref.index(leaf, np.array([0, 0, 2]))  # repeated index
            return ref.total(ref.matmul(low, ref.transpose(low))) + ref.total(picked)

        self.fd_on_tape(build, x0)

    def test_vector_seed_jacobian_row(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal((3, 3))
        x0 = rng.standard_normal(3)
        t = ref.Tape()
        leaf = t.leaf(x0)
        out = ref.tanh(t.leaf(w) @ leaf)
        # row 1 of the Jacobian via a one-hot seed
        (got,) = t.gradient(out, [leaf], seed=np.array([0.0, 1.0, 0.0]))
        z = np.tanh(w @ x0)
        want = (1 - z[1] ** 2) * w[1]
        np.testing.assert_allclose(got, want, rtol=1e-12)


class TestGradPhiLogMarginal:
    def test_window_zero_structural_zeros(self):
        rng = np.random.default_rng(7)
        params = random_params(rng)
        lay = var.var_layout(params)
        a_t = rng.standard_normal(params.hidden)
        x = rng.standard_normal(params.d_x)
        g = ref.grad_phi_log_marginal(params, a_t, [], x, 0)
        np.testing.assert_array_equal(lay.view(g, "amortizer.W"), 0.0)
        np.testing.assert_array_equal(lay.view(g, "amortizer.U"), 0.0)
        np.testing.assert_array_equal(lay.view(g, "amortizer.b"), 0.0)
        assert np.any(lay.view(g, "head_marginal") != 0.0)

    @pytest.mark.parametrize("window", [0, 1, 2])
    def test_fd_agreement(self, window):
        rng = np.random.default_rng(8 + window)
        params = random_params(rng, d_x=3, d_y=2, hidden=6)
        a0 = rng.standard_normal(params.hidden) * 0.3
        ys = [rng.standard_normal(2) for _ in range(window)]
        x = rng.standard_normal(3)
        analytic = ref.grad_phi_log_marginal(params, a0, ys, x, window)
        phi0 = var.get_phi(params)

        def f(phi):
            return ref.log_marginal_truncated(var.with_phi(params, phi), a0, ys, x)

        rep = ref.fd_check(f, phi0, analytic, h=1e-6, tol=1e-5)
        assert rep.passed, f"max rel err {rep.max_rel_err:.2e}"

    def test_score_identity_monte_carlo(self):
        rng = np.random.default_rng(11)
        params = random_params(rng, d_x=1, d_y=1, hidden=3, head_hidden=(4,))
        a0 = rng.standard_normal(3) * 0.5
        ys = [rng.standard_normal(1), rng.standard_normal(1)]
        chain = gr.marginal_chain(params, a0, ys, want_jacobian=True)
        from streamvi.gaussian import GaussianNatural, sample
        eta = GaussianNatural(eta1=chain.eta1, eta2=chain.eta2)
        n = 10**5
        xs = sample(eta, rng, n)
        scores = gr.marginal_scores_phi(chain, xs)
        mean = scores.mean(axis=0)
        stderr = scores.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(mean) < 4.0 * np.maximum(stderr, 1e-12))

    def test_fast_path_matches_tape(self):
        rng = np.random.default_rng(12)
        params = random_params(rng, d_x=2, d_y=2, hidden=5)
        a0 = rng.standard_normal(5) * 0.4
        ys = [rng.standard_normal(2) for _ in range(2)]
        chain = gr.marginal_chain(params, a0, ys, want_jacobian=True)
        xs = rng.standard_normal((7, 2))
        fast = gr.marginal_scores_phi(chain, xs)
        for i in range(7):
            slow = ref.grad_phi_log_marginal(params, a0, ys, xs[i], 2)
            np.testing.assert_allclose(fast[i], slow, rtol=1e-8, atol=1e-12)


class TestGradPhiLogBackward:
    def test_zero_potential_net_degenerates_to_marginal(self):
        rng = np.random.default_rng(13)
        params = random_params(rng)
        zero_pot = var.AmortizerParams(
            W=params.W, U=params.U, b=params.b,
            head_marginal=params.head_marginal,
            head_potential=params.head_potential.unpack(
                np.zeros(params.head_potential.n_params)),
            d_x=params.d_x)
        lay = var.var_layout(params)
        a0 = rng.standard_normal(params.hidden) * 0.3
        ys = [rng.standard_normal(2)]
        x_t = rng.standard_normal(2)
        x_prev = rng.standard_normal(2)
        g_back = ref.grad_phi_log_backward(zero_pot, a0, ys, x_t, x_prev, 1)
        g_marg = ref.grad_phi_log_marginal(zero_pot, a0, ys, x_prev, 1)
        for name in ("amortizer.W", "amortizer.U", "amortizer.b", "head_marginal"):
            np.testing.assert_allclose(lay.view(g_back, name), lay.view(g_marg, name),
                                       rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("window", [0, 2])
    def test_fd_agreement(self, window):
        rng = np.random.default_rng(14 + window)
        params = random_params(rng, d_x=2, d_y=3, hidden=5)
        a0 = rng.standard_normal(5) * 0.3
        ys = [rng.standard_normal(3) for _ in range(window)]
        x_t = rng.standard_normal(2)
        x_prev = rng.standard_normal(2)
        analytic = ref.grad_phi_log_backward(params, a0, ys, x_t, x_prev, window)
        phi0 = var.get_phi(params)

        def f(phi):
            return ref.log_backward_truncated(var.with_phi(params, phi), a0, ys, x_t, x_prev)

        rep = ref.fd_check(f, phi0, analytic, h=1e-6, tol=1e-5)
        assert rep.passed, f"max rel err {rep.max_rel_err:.2e}"

    def test_kernel_score_zero_mean(self):
        # E over x_prev ~ q_{t-1|t}(x_t, .) of the gradient is zero
        rng = np.random.default_rng(16)
        params = random_params(rng, d_x=1, d_y=1, hidden=3)
        a0 = rng.standard_normal(3) * 0.4
        ys = [rng.standard_normal(1)]
        x_t = rng.standard_normal(1)
        state = var.AmortizerState(a=a0)
        for y in ys:
            state = var.advance(params, state, y)
        eta_prev = ref.marginal_params(params, state)
        kernel = ref.backward_kernel(params, eta_prev, x_t)
        from streamvi.gaussian import sample
        n = 10**5
        xs = sample(kernel, rng, n)
        block = np.stack([ref.grad_phi_log_backward(params, a0, ys, x_t, xs[i], 1)
                          for i in range(0, n, 500)])  # subsample for runtime
        mean = block.mean(axis=0)
        stderr = block.std(axis=0, ddof=1) / math.sqrt(block.shape[0])
        assert np.all(np.abs(mean) < 4.0 * np.maximum(stderr, 1e-12))


class TestTruncatedValueConsistency:
    def test_value_matches_direct_evaluation(self):
        rng = np.random.default_rng(18)
        params = random_params(rng)
        a0 = rng.standard_normal(params.hidden) * 0.2
        ys = [rng.standard_normal(2) for _ in range(3)]
        x = rng.standard_normal(2)
        state = var.AmortizerState(a=a0)
        for y in ys:
            state = var.advance(params, state, y)
        want = log_density(ref.marginal_params(params, state), x)
        got = ref.log_marginal_truncated(params, a0, ys, x)
        assert got == pytest.approx(want, abs=1e-12)
