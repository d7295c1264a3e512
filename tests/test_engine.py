import dataclasses
import math

import numpy as np
import pytest
from scipy import stats as sstats

import reference
from streamvi import engine, gaussian, gradients, models, oracle, variational as var
from streamvi.errors import BadBounds, ConflictingSetting, DegenerateRow, MissingBound


def make_lgssm(rng, d=1):
    f = 0.7 * np.eye(d)
    g = np.eye(d)
    return models.LinearGaussianSSM(F=f, G=g, q_var=0.1, r_var=0.25)


def make_runner(rng, d_x=1, d_y=1, window=2, compute_grads=True, hidden=4):
    params = var.init_amortizer(rng, d_x, d_y, hidden=hidden, head_hidden=(5,),
                                pot_hidden=(5,), scale=0.6)
    return engine.AmortizedRunner(params, window=window, compute_grads=compute_grads)


class TestInitCloud:
    def test_g_stat_exactly_zero(self):
        rng = np.random.default_rng(0)
        m = make_lgssm(rng)
        runner = make_runner(rng)
        cloud = engine.init_cloud(m, runner, np.array([0.3]), engine.EngineConfig(n_particles=5),
                                  rng)
        np.testing.assert_array_equal(cloud.g_stat, 0.0)

    def test_h0_hand_value(self):
        rng = np.random.default_rng(1)
        m = make_lgssm(rng)
        runner = make_runner(rng)
        y0 = np.array([0.3])
        cloud = engine.init_cloud(m, runner, y0, engine.EngineConfig(n_particles=4), rng)
        for i in range(4):
            x = cloud.xi[i]
            want = (models.log_m(m, None, x, 0) + models.log_g(m, x, y0, 0))
            assert cloud.h_stat[i] == pytest.approx(want, abs=1e-12)

    def test_determinism_and_cache(self):
        rng1, rng2 = np.random.default_rng(2), np.random.default_rng(2)
        m = make_lgssm(np.random.default_rng(3))
        r1 = make_runner(np.random.default_rng(4))
        r2 = make_runner(np.random.default_rng(4))
        cfg = engine.EngineConfig(n_particles=6)
        c1 = engine.init_cloud(m, r1, np.array([0.1]), cfg, rng1)
        c2 = engine.init_cloud(m, r2, np.array([0.1]), cfg, rng2)
        np.testing.assert_array_equal(c1.xi, c2.xi)
        c1.validate()


class TestComputeWeights:
    def setup_pieces(self, rng, n_prev=4, n_new=3, zero_pot=False):
        m = make_lgssm(rng)
        runner = make_runner(rng)
        if zero_pot:
            p = runner.params
            runner.set_params(var.AmortizerParams(
                W=p.W, U=p.U, b=p.b, head_marginal=p.head_marginal,
                head_potential=p.head_potential.unpack(
                    np.zeros(p.head_potential.n_params)), d_x=p.d_x))
        cfg = engine.EngineConfig(n_particles=n_prev, compute_grads=False)
        cloud = engine.init_cloud(m, runner, np.array([0.2]), cfg, rng)
        runner.begin_step(np.array([-0.1]))
        xi_new = gaussian.sample(runner.current_eta(), rng, n_new)
        kernel = engine.build_kernel(runner, xi_new)
        return m, runner, cfg, cloud, xi_new, kernel

    def test_single_particle_row(self):
        rng = np.random.default_rng(5)
        _, _, cfg, cloud, _, kernel = self.setup_pieces(rng, n_prev=1, n_new=1)
        w = engine.weight_matrix(cloud, kernel, cfg)
        np.testing.assert_allclose(w.w, [[1.0]])

    def test_zero_potential_uniform(self):
        rng = np.random.default_rng(6)
        _, _, cfg, cloud, _, kernel = self.setup_pieces(rng, n_prev=5, n_new=3,
                                                        zero_pot=True)
        w = engine.weight_matrix(cloud, kernel, cfg)
        np.testing.assert_allclose(w.w, 1.0 / 5.0, atol=1e-12)

    def test_row_stochastic(self):
        rng = np.random.default_rng(7)
        _, _, cfg, cloud, _, kernel = self.setup_pieces(rng, n_prev=6, n_new=6)
        w = engine.weight_matrix(cloud, kernel, cfg)
        np.testing.assert_allclose(w.w.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(w.w >= 0.0)

    def test_kernel_ratio_equals_potential_route(self):
        # the two weight formulas agree after row normalization
        rng = np.random.default_rng(8)
        _, runner, cfg, cloud, xi_new, kernel = self.setup_pieces(rng, 4, 4)
        w_ratio = engine.weight_matrix(cloud, kernel, cfg)
        log_pot = gaussian.inner_cross(kernel.pot_eta1, kernel.pot_eta2, cloud.xi)
        shifted = np.exp(log_pot - log_pot.max(axis=1, keepdims=True))
        w_pot = shifted / shifted.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(w_ratio.w, w_pot, atol=1e-12)

    def test_degenerate_row_raises(self):
        with pytest.raises(DegenerateRow):
            engine.compute_weights(np.full((2, 3), -np.inf))


def run_engine(model, runner, ys, config, seed):
    rng = np.random.default_rng(seed)
    state = engine.init_state(model, runner, ys[0], config, rng)
    outs = [engine.estimate(state.cloud, use_control_variates=config.cv_grad_phi)]
    clouds = [state.cloud]
    for t in range(1, len(ys)):
        state, out = engine.step(state, ys[t], model, config, rng)
        outs.append(out)
        clouds.append(state.cloud)
    return state, outs, clouds


# float32 storage of g: rtol 1e-5, with an absolute floor at 1e-5 of the
# largest entry for entries that cancel to near zero
F32_RTOL = 1e-5


def g32_tol(want):
    return dict(rtol=F32_RTOL, atol=F32_RTOL * np.abs(want).max())


class TestEngineAgainstReferencePath:
    """Full manual replication of the recursion with tape gradients."""

    def test_full_update_matches_pair_by_pair_reference(self):
        self.check_full_update("float64", lambda want: dict(rtol=1e-8, atol=1e-9))

    def test_full_update_matches_pair_by_pair_reference_float32(self):
        self.check_full_update("float32", g32_tol)

    def check_full_update(self, g_dtype, g_tol):
        """The engine's h, g, f and outputs against the reference; ``g_tol``
        gives the tolerances of g and ``grad_phi`` from the wanted array."""
        rng = np.random.default_rng(10)
        d, window, n = 1, 2, 3
        m = make_lgssm(rng, d)
        runner = make_runner(np.random.default_rng(11), d, d, window=window)
        params = runner.params
        ys = [np.array([0.4]), np.array([-0.2]), np.array([0.8]), np.array([0.1])]
        cfg = engine.EngineConfig(n_particles=n, method="full", cv_grad_phi=False,
                                  truncation_window=window, g_dtype=g_dtype)
        state, outs, clouds = run_engine(m, runner, ys, cfg, seed=123)

        # manual reference: replicate the history bookkeeping
        hist = []
        a_live = np.zeros(params.hidden)
        lay = models.theta_layout(m)
        h_ref = g_ref = f_ref = None
        for t, y in enumerate(ys):
            hist.append((a_live.copy(), y))
            hist = hist[-(window + 1):]
            a_live = var.advance(params, var.AmortizerState(a=a_live), y).a
            k = min(window, len(hist))
            bound_cur, ys_cur = hist[-k][0], [yy for _, yy in hist[-k:]]
            chain_cur = gradients.marginal_chain(params, bound_cur, ys_cur)
            eta_cur = gaussian.GaussianNatural(chain_cur.eta1, chain_cur.eta2)
            xi = clouds[t].xi  # reuse the engine's draws
            if t == 0:
                h_ref = np.array([models.log_m(m, None, x, 0) + models.log_g(m, x, y, 0)
                                  for x in xi])
                g_ref = np.zeros((n, runner.dim_phi))
                f_ref = np.stack([models.grad_theta_log_joint_pair(m, None, x, y, 0)
                                  for x in xi])
            else:
                prev_hist = hist[:-1]
                kp = min(window, len(prev_hist))
                bound_prev, ys_prev = prev_hist[-kp][0], [yy for _, yy in prev_hist[-kp:]]
                chain_prev = gradients.marginal_chain(params, bound_prev, ys_prev)
                eta_prev = gaussian.GaussianNatural(chain_prev.eta1, chain_prev.eta2)
                h_new = np.empty(n)
                g_new = np.empty((n, runner.dim_phi))
                f_new = np.empty((n, lay.total))
                for i in range(n):
                    kern = var.backward_kernel(params, eta_prev, xi[i])
                    log_un = np.array([gaussian.log_density(kern, xj) - lqj
                                       for xj, lqj in zip(xi_prev, log_q_prev)])
                    w = np.exp(log_un - log_un.max())
                    w /= w.sum()
                    ht = np.array([
                        models.log_m(m, xj, xi[i], t) + models.log_g(m, xi[i], y, t)
                        - gaussian.log_density(kern, xj) for xj in xi_prev])
                    h_new[i] = w @ (h_ref + ht)
                    gacc = np.zeros(runner.dim_phi)
                    facc = np.zeros(lay.total)
                    for j in range(n):
                        score = reference.grad_phi_log_backward(
                            params, bound_prev, ys_prev, xi[i], xi_prev[j], window)
                        gacc += w[j] * (g_ref[j] + score * (h_ref[j] + ht[j]))
                        facc += w[j] * (f_ref[j] + models.grad_theta_log_joint_pair(
                            m, xi_prev[j], xi[i], y, t))
                    g_new[i] = gacc
                    f_new[i] = facc
                h_ref, g_ref, f_ref = h_new, g_new, f_new
            xi_prev = xi
            log_q_prev = np.array([gaussian.log_density(eta_cur, x) for x in xi])
            np.testing.assert_allclose(clouds[t].h_stat, h_ref, rtol=1e-9, atol=1e-10)
            np.testing.assert_allclose(clouds[t].f_stat, f_ref, rtol=1e-9, atol=1e-10)
            assert clouds[t].g_stat.dtype == g_dtype
            np.testing.assert_allclose(clouds[t].g_stat, g_ref, **g_tol(g_ref))
            # estimator pieces
            scores = np.stack([reference.grad_phi_log_marginal(
                params, bound_cur, ys_cur, x, window) for x in xi])
            want_phi = (scores * h_ref[:, None] + g_ref).mean(axis=0)
            assert outs[t].grad_phi.dtype == np.float64
            np.testing.assert_allclose(outs[t].grad_phi, want_phi, **g_tol(want_phi))
            want_elbo = float(np.mean(h_ref - log_q_prev))
            assert outs[t].elbo == pytest.approx(want_elbo, abs=1e-9)


class TestNDegeneracy:
    def test_single_particle_telescoping(self):
        rng = np.random.default_rng(12)
        m = make_lgssm(rng)
        runner = make_runner(np.random.default_rng(13))
        ys = [np.array([v]) for v in (0.5, -0.3, 0.2, 0.9, -0.7)]
        cfg = engine.EngineConfig(n_particles=1, method="full")
        state, outs, clouds = run_engine(m, runner, ys, cfg, seed=77)
        # direct single-path evaluation of the cumulative pair-terms
        params = runner.params
        total = None
        for t in range(len(ys)):
            x = clouds[t].xi[0]
            if t == 0:
                total = models.log_m(m, None, x, 0) + models.log_g(m, x, ys[0], 0)
            else:
                x_prev = clouds[t - 1].xi[0]
                eta_prev = clouds[t - 1].eta
                kern = var.backward_kernel(params, eta_prev, x)
                total += (models.log_m(m, x_prev, x, t) + models.log_g(m, x, ys[t], t)
                          - gaussian.log_density(kern, x_prev))
            assert clouds[t].h_stat[0] == pytest.approx(total, abs=1e-9)
            want_elbo = total - clouds[t].log_q_marginal[0]
            assert outs[t].elbo == pytest.approx(want_elbo, abs=1e-9)


class TestExactConjugateConsistency:
    def test_mean_h_matches_expected_h(self):
        rng = np.random.default_rng(14)
        f = 0.8 * np.eye(1)
        m = models.LinearGaussianSSM(F=f, G=np.eye(1), q_var=0.1, r_var=0.25)
        _, ys = models.simulate(m, 5, rng)
        filt = oracle.kalman_filter(m, ys)
        family = var.exact_conjugate_mode(m, filt)
        runner = engine.ConjugateRunner(family)
        cfg = engine.EngineConfig(n_particles=10**4, method="full", compute_grads=False)
        state, outs, clouds = run_engine(m, runner, list(ys), cfg, seed=15)
        want = oracle.expected_H(m, family, ys)
        got = clouds[-1].h_stat
        stderr = got.std(ddof=1) / math.sqrt(got.size)
        assert abs(got.mean() - want) < 3.0 * stderr

    def test_elbo_lower_bounds_loglik(self):
        rng = np.random.default_rng(16)
        for seed in range(3):
            m = make_lgssm(np.random.default_rng(seed), d=2)
            _, ys = models.simulate(m, 60, np.random.default_rng(100 + seed))
            runner = make_runner(np.random.default_rng(200 + seed), 2, 2,
                                 compute_grads=False)
            cfg = engine.EngineConfig(n_particles=2000, method="full",
                                      compute_grads=False)
            state, outs, clouds = run_engine(m, runner, list(ys), cfg, seed=seed)
            ll = oracle.kalman_filter(m, ys).loglik
            vals = clouds[-1].h_stat - clouds[-1].log_q_marginal
            stderr = vals.std(ddof=1) / math.sqrt(vals.size)
            assert outs[-1].elbo <= ll + 2.0 * stderr


class TestBackwardSampling:
    def make_step_pieces(self, rng, n=16):
        m = make_lgssm(rng)
        runner = make_runner(rng)
        cfg = engine.EngineConfig(n_particles=n, compute_grads=False)
        cloud = engine.init_cloud(m, runner, np.array([0.2]), cfg, rng)
        runner.begin_step(np.array([0.5]))
        xi_new = gaussian.sample(runner.current_eta(), rng, n)
        log_q_new = gaussian.log_density_cross(
            runner.current_eta().eta1[None], runner.current_eta().eta2[None], xi_new)[0]
        kernel = engine.build_kernel(runner, xi_new)
        return m, runner, cfg, cloud, xi_new, log_q_new, kernel

    def test_conditionally_unbiased_given_weights(self):
        rng = np.random.default_rng(17)
        m, runner, cfg, cloud, xi_new, log_q_new, kernel = self.make_step_pieces(rng)
        full = engine.update_statistics(cloud, xi_new, m, runner,
                                        np.array([0.5]), kernel, log_q_new, cfg)
        cfg = dataclasses.replace(cfg, method="categorical")
        reps = 10**4
        acc = np.zeros((reps, cloud.n))
        for r in range(reps):
            sampled = engine.backward_sample_update(
                cloud, xi_new, rng, m, runner, np.array([0.5]), kernel, log_q_new, cfg)
            acc[r] = sampled.h_stat
        mean = acc.mean(axis=0)
        stderr = acc.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(mean - full.h_stat) < 3.0 * np.maximum(stderr, 1e-12))

    def test_accept_reject_matches_categorical_distribution(self):
        rng = np.random.default_rng(18)
        m, runner, cfg, cloud, xi_new, log_q_new, kernel = self.make_step_pieces(rng, n=8)
        cfg = engine.EngineConfig(n_particles=8, compute_grads=False, clip_enabled=True,
                                  log_eps_minus=-50.0, log_eps_plus=8.0)
        kernel = engine.build_kernel(runner, xi_new)
        wmat = engine.weight_matrix(cloud, kernel, cfg)
        draws = 10**5
        idx = engine._accept_reject_rows(cloud, kernel, cfg, draws, rng)
        for i in range(2):  # a couple of rows is plenty
            counts = np.bincount(idx[i], minlength=8)
            expected = wmat.w[i] * draws
            keep = expected > 5
            res = sstats.chisquare(counts[keep], expected[keep] * counts[keep].sum()
                                   / expected[keep].sum())
            assert res.pvalue > 0.01

    def test_accept_reject_needs_bound(self):
        # replace re-runs the config's checks
        cfg = engine.EngineConfig(n_particles=16, compute_grads=False)
        with pytest.raises(MissingBound):
            dataclasses.replace(cfg, method="accept_reject")

    def test_accept_reject_without_clipping_fails_at_construction(self):
        # not at every step, after the runner has already advanced
        with pytest.raises(MissingBound):
            engine.EngineConfig(method="accept_reject", clip_enabled=False)
        assert engine.EngineConfig(method="accept_reject", clip_enabled=True).clip_enabled

    def test_default_m_is_two(self):
        assert engine.EngineConfig().m_backward == 2

    @pytest.mark.parametrize("field", ["n_particles", "m_backward"])
    @pytest.mark.parametrize("value", [16.0, 2.5, "16", None, 0, -3])
    def test_particle_counts_must_be_positive_integers(self, field, value):
        # not later, as a TypeError inside gaussian.sample or the draws
        with pytest.raises(ValueError, match=field):
            engine.EngineConfig(method="categorical", **{field: value})
        assert getattr(engine.EngineConfig(**{field: np.int64(3)}), field) == 3

    @pytest.mark.parametrize("lo,hi", [(5.0, 1.0), (2.0, 2.0), (float("nan"), 1.0)])
    def test_inverted_clip_bounds_raise(self, lo, hi):
        # np.clip with lo > hi would map every potential to hi: uniform rows
        with pytest.raises(BadBounds):
            engine.EngineConfig(clip_enabled=True, log_eps_minus=lo, log_eps_plus=hi)

    def test_sampled_update_matches_reference_stats(self):
        # with m draws forced to a single index row the update telescopes
        rng = np.random.default_rng(20)
        m, runner, cfg2, cloud, xi_new, log_q_new, kernel = self.make_step_pieces(rng, n=1)
        cfg = engine.EngineConfig(n_particles=1, compute_grads=False)
        sampled = engine.backward_sample_update(
            cloud, xi_new, rng, m, runner, np.array([0.5]), kernel, log_q_new,
            dataclasses.replace(cfg, method="categorical", m_backward=3))
        full = engine.update_statistics(cloud, xi_new, m, runner,
                                        np.array([0.5]), kernel, log_q_new, cfg)
        np.testing.assert_allclose(sampled.h_stat, full.h_stat, rtol=1e-12)


class TestEstimate:
    def test_t0_single_particle_exact(self):
        rng = np.random.default_rng(21)
        m = make_lgssm(rng)
        runner = make_runner(rng)
        cloud = engine.init_cloud(m, runner, np.array([0.3]), engine.EngineConfig(n_particles=1),
                                  rng)
        out = engine.estimate(cloud, use_control_variates=False)
        assert out.elbo == pytest.approx(
            float(cloud.h_stat[0] - cloud.log_q_marginal[0]), abs=1e-12)

    def test_control_variate_neutral_in_expectation(self):
        rng = np.random.default_rng(22)
        runner = make_runner(rng, d_x=1, d_y=1)
        runner.begin_step(np.array([0.4]))
        chain = runner.chain_cur
        eta = runner.current_eta()
        n = 8
        h_fixed = np.random.default_rng(23).standard_normal(n) * 2.0
        g_fixed = np.zeros((n, runner.dim_phi))
        reps = 10**3
        diffs = np.empty((reps, runner.dim_phi))
        means_on = np.empty((reps, runner.dim_phi))
        means_off = np.empty((reps, runner.dim_phi))
        for r in range(reps):
            xi = gaussian.sample(eta, rng, n)
            lq = gaussian.log_density_cross(eta.eta1[None], eta.eta2[None], xi)[0]
            cloud = engine.ParticleCloud(xi=xi, h_stat=h_fixed, g_stat=g_fixed,
                                         f_stat=None, log_q_marginal=lq, eta=eta,
                                         t=0, chain=chain)
            means_on[r] = engine.estimate(cloud, use_control_variates=True).grad_phi
            means_off[r] = engine.estimate(cloud, use_control_variates=False).grad_phi
        se = np.sqrt(means_on.var(axis=0, ddof=1) / reps
                     + means_off.var(axis=0, ddof=1) / reps)
        gap = np.abs(means_on.mean(axis=0) - means_off.mean(axis=0))
        assert np.all(gap < 4.0 * np.maximum(se, 1e-12))


class TestStep:
    def test_zero_learning_rate_equals_eval_run(self):
        # stepping twice without touching parameters gives identical estimates
        rng = np.random.default_rng(24)
        m = make_lgssm(rng)
        ys = [np.array([v]) for v in (0.2, -0.1, 0.4)]
        r1 = make_runner(np.random.default_rng(25))
        r2 = make_runner(np.random.default_rng(25))
        cfg = engine.EngineConfig(n_particles=6)
        _, outs1, _ = run_engine(m, r1, ys, cfg, seed=5)
        _, outs2, _ = run_engine(m, r2, ys, cfg, seed=5)
        for a, b in zip(outs1, outs2):
            assert a.elbo == b.elbo
            np.testing.assert_array_equal(a.grad_phi, b.grad_phi)
            np.testing.assert_array_equal(a.grad_theta, b.grad_theta)

    def test_runner_window_must_match_config(self):
        # the engine reads the window from the runner only, so a different
        # EngineConfig.truncation_window would be ignored without the check
        rng = np.random.default_rng(27)
        m = make_lgssm(rng)
        cfg = engine.EngineConfig(n_particles=3, truncation_window=2)
        with pytest.raises(ConflictingSetting):
            engine.init_state(m, make_runner(rng, window=1), np.array([0.1]), cfg, rng)
        state = engine.init_state(m, make_runner(rng, window=2), np.array([0.1]), cfg, rng)
        assert state.cloud.t == 0

    def test_conjugate_runner_has_no_window_to_check(self):
        rng = np.random.default_rng(28)
        m = make_lgssm(rng)
        _, ys = models.simulate(m, 2, rng)
        runner = engine.ConjugateRunner(var.exact_conjugate_mode(m, oracle.kalman_filter(m, ys)))
        cfg = engine.EngineConfig(n_particles=3, truncation_window=5, compute_grads=False)
        state = engine.init_state(m, runner, ys[0], cfg, rng)
        assert state.cloud.t == 0

    @pytest.mark.parametrize("method", ["full", "accept_reject"])
    def test_reused_observation_buffer_gives_the_same_stream(self, method):
        # the runner re-runs its window over past observations, so it must
        # keep copies, not views of a buffer the caller overwrites
        m = make_lgssm(np.random.default_rng(5), d=2)
        ys = np.random.default_rng(6).standard_normal((11, 2))
        cfg = engine.EngineConfig(n_particles=8, method=method,
                                  clip_enabled=method == "accept_reject")
        _, direct, _ = run_engine(m, make_runner(np.random.default_rng(7), 2, 2), ys, cfg,
                                  seed=8)
        rng = np.random.default_rng(8)
        buf = ys[0].copy()
        state = engine.init_state(m, make_runner(np.random.default_rng(7), 2, 2), buf, cfg,
                                  rng)
        for t in range(1, len(ys)):
            buf[:] = ys[t]
            state, out = engine.step(state, buf, m, cfg, rng)
            assert out.elbo == direct[t].elbo, t
            np.testing.assert_array_equal(out.grad_phi, direct[t].grad_phi)
            np.testing.assert_array_equal(out.grad_theta, direct[t].grad_theta)


class TestRunnerWindow:
    @pytest.mark.parametrize("method", ["full", "categorical", "accept_reject"])
    @pytest.mark.parametrize("window", [0, 1, 2])
    def test_chain_prev_is_the_previous_chain_cur(self, window, method):
        # with unchanged params the kernel's marginal is the previous step's
        # marginal: for window 0, the head at a_{t-1} with no observations
        rng = np.random.default_rng(29)
        m = make_lgssm(rng)
        runner = make_runner(rng, window=window)
        cfg = engine.EngineConfig(n_particles=5, method=method, truncation_window=window,
                                  clip_enabled=method == "accept_reject")
        ys = rng.standard_normal((5, 1))
        state = engine.init_state(m, runner, ys[0], cfg, rng)
        assert runner.chain_prev is None
        for t in range(1, len(ys)):
            before = runner.chain_cur
            state, out = engine.step(state, ys[t], m, cfg, rng)
            assert np.isfinite(out.elbo), t
            assert np.all(np.isfinite(out.grad_phi)) and np.all(np.isfinite(out.grad_theta))
            after = runner.chain_prev
            assert len(runner.hist) == min(window + 1, t + 1)
            for name in ("raw", "eta1", "eta2", "jac", "nat_jac"):
                np.testing.assert_array_equal(getattr(after, name), getattr(before, name),
                                              err_msg=f"{name} at t={t}")

    def test_negative_window_raises(self):
        params = var.init_amortizer(np.random.default_rng(30), 1, 1, hidden=3,
                                    head_hidden=(3,), pot_hidden=(3,))
        with pytest.raises(ValueError, match="window"):
            engine.AmortizedRunner(params, window=-1)
