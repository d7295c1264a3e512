"""Accept-reject backward index draws: the per-row bound, the capped exact
fallback on the clamped potential, and the vectorized categorical draws."""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sstats

import reference
from streamvi import engine, gaussian
from streamvi.gaussian import GaussianNatural


class CountingGenerator(np.random.Generator):
    """Counts the integers drawn, i.e. the accept-reject proposals, and the
    calls that drew them, one per round of proposals."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.drawn = 0
        self.calls = 0

    def integers(self, low, high=None, size=None, **kwargs):
        self.drawn += 1 if size is None else int(np.prod(size))
        self.calls += 1
        return super().integers(low, high, size=size, **kwargs)


class RecordingGenerator(CountingGenerator):
    """Also notes the generator's state before each call of ``random``."""

    def __init__(self, seed):
        super().__init__(seed)
        self.states = []

    def random(self, *args, **kwargs):
        self.states.append(self.bit_generator.state)
        return super().random(*args, **kwargs)


class FixedPotentialRunner:
    """Given potentials per new particle; kernel marginal N(0, I)."""

    def __init__(self, pot_eta1, pot_eta2):
        self.pot_eta1 = pot_eta1
        self.pot_eta2 = pot_eta2

    def potential_batch(self, xs):
        return self.pot_eta1, self.pot_eta2, None, None

    def kernel_marginal(self):
        d = self.pot_eta1.shape[1]
        return GaussianNatural(eta1=np.zeros(d), eta2=-0.5 * np.eye(d))


def make_cloud(xs):
    n = xs.shape[0]
    return engine.ParticleCloud(xi=xs, h_stat=np.zeros(n), g_stat=None, f_stat=None,
                                log_q_marginal=np.zeros(n), t=0)


def diagonal_kernel(n_prev, slopes, log_eps_minus, t_max, deltas):
    """Particles (t_j, -t_j + delta_j), t in [-t_max, t_max] and delta over
    ``deltas`` in reverse order; potentials slope * (x1 + x2), about slope * delta_j."""
    t = np.linspace(-t_max, t_max, n_prev)
    delta = np.linspace(*deltas, n_prev)[::-1]
    xs = np.stack([t, -t + delta], axis=1)
    pot_eta1 = np.outer(slopes, [1.0, 1.0])
    pot_eta2 = np.broadcast_to(-0.01 * np.eye(2), (len(slopes), 2, 2)).copy()
    cfg = engine.EngineConfig(n_particles=n_prev, compute_grads=False, clip_enabled=True,
                              log_eps_minus=log_eps_minus)
    cloud = make_cloud(xs)
    kernel = engine.build_kernel(FixedPotentialRunner(pot_eta1, pot_eta2),
                                 np.zeros((len(slopes), 2)))
    return cfg, cloud, kernel


def hard_kernel(n_prev, slopes, log_eps_minus):
    """Particles on the anti-diagonal, potentials along the diagonal.

    Every potential is about slope * delta_j, a few units from zero, while
    the bounding-box bound is about 2 * slope, or eps+ = 30 where that is
    lower: for slopes >= 14 acceptance is below e^-27 and every draw
    reaches the fallback.  The lower clamp binds on the most negative deltas.
    """
    return diagonal_kernel(n_prev, slopes, log_eps_minus, 1.0, (-0.2, 0.05))


def spread_kernel():
    """N = 32, potentials s * delta_j in [-4 s, 0.5 s] for s in (0.8, 1.0, 1.3),
    clamped below at -2, and bounds 1.2 s to 1.5 s: a proposal is accepted
    with probability 0.06-0.13, so first acceptances land in every block
    of 1, 2, 4, 8 and 16 proposals, and 1-16% of the draws fall back."""
    return diagonal_kernel(32, [0.8, 1.0, 1.3], -2.0, 0.5, (-4.0, 0.5))


def chi_square_pvalues(idx, w):
    """Per-row chi-square p-values of the index draws ``idx`` against the rows of ``w``."""
    pvalues = []
    for i in range(w.shape[0]):
        counts = np.bincount(idx[i], minlength=w.shape[1])
        expected = w[i] * idx.shape[1]
        keep = expected > 5
        pvalues.append(sstats.chisquare(counts[keep], expected[keep] * counts[keep].sum()
                                        / expected[keep].sum()).pvalue)
    return np.array(pvalues)


def spread_draws(cfg, cloud, kernel, rng, calls=8, m_draws=1500):
    """``calls`` sampler calls of ``m_draws`` draws per row, side by side."""
    stats = gaussian.suff_stat_rows(cloud.xi)
    return np.concatenate([engine._accept_reject_rows(cloud, kernel, cfg, m_draws, rng, stats)
                           for _ in range(calls)], axis=1)


class TestCategoricalRows:
    @pytest.mark.parametrize("n_new,n_prev,m_draws", [
        (1, 1, 1), (1, 1, 4), (3, 1, 2), (2, 5, 9), (40, 33, 2), (300, 300, 2)])
    def test_matches_per_row_loop(self, n_new, n_prev, m_draws):
        rng = np.random.default_rng(n_new * 1000 + n_prev)
        log_w = 4.0 * rng.normal(size=(n_new, n_prev))
        if n_prev > 2:
            log_w[:, 1] = -np.inf       # a zero-weight column
        w = np.exp(log_w - log_w.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        u = np.random.default_rng(7).random((n_new, m_draws))
        want = reference.categorical_draws(w, u)
        got = engine._categorical_rows(w.copy(), u)
        np.testing.assert_array_equal(got, want)


class TestPotentialBound:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), d=st.integers(1, 3), n_prev=st.integers(1, 6),
           n_new=st.integers(1, 3), indefinite=st.booleans(),
           eps_minus=st.floats(-40.0, 5.0), width=st.floats(0.01, 60.0))
    def test_bound_dominates_clamped_potential(self, data, d, n_prev, n_new,
                                               indefinite, eps_minus, width):
        coords = st.floats(-3.0, 3.0, allow_nan=False)

        def array(*shape, elements=coords):
            flat = data.draw(st.lists(elements, min_size=int(np.prod(shape)),
                                      max_size=int(np.prod(shape))))
            return np.array(flat, dtype=np.float64).reshape(shape)

        xs = array(n_prev, d)
        pot_eta1 = array(n_new, d, elements=st.floats(-10.0, 10.0))
        a = array(n_new, d, d)
        if indefinite:
            pot_eta2 = 0.5 * (a + np.swapaxes(a, 1, 2))
        else:
            pot_eta2 = -np.einsum("nij,nkj->nik", a, a)   # negative semi-definite
        eps_plus = eps_minus + width
        bound = engine._potential_bound(pot_eta1, pot_eta2, xs, eps_minus, eps_plus)
        pot = np.clip(gaussian.inner_cross(pot_eta1, pot_eta2, xs), eps_minus, eps_plus)
        # rounding of the two evaluations
        scale = (1.0 + np.abs(pot_eta1) @ np.abs(xs).max(axis=0)
                 + np.abs(pot_eta2).sum(axis=(1, 2)) * np.max(xs**2))
        assert bound.shape == (n_new,)
        assert np.all(bound >= pot.max(axis=1) - 1e-12 * scale)
        assert np.all((bound >= eps_minus) & (bound <= eps_plus))

    def test_single_particle_linear_potential_is_tight(self):
        xs = np.array([[0.3, -1.2]])
        pot_eta1 = np.array([[2.0, 0.5], [-1.0, 4.0]])
        pot_eta2 = np.zeros((2, 2, 2))
        bound = engine._potential_bound(pot_eta1, pot_eta2, xs, -30.0, 30.0)
        np.testing.assert_allclose(bound, pot_eta1 @ xs[0], rtol=1e-15)


class TestAcceptRejectRows:
    def test_fallback_samples_clamped_potential(self):
        cfg, cloud, kernel = hard_kernel(8, slopes=[20.0, 14.0, 25.0], log_eps_minus=-1.5)
        pot = np.clip(gaussian.inner_cross(kernel.pot_eta1, kernel.pot_eta2, cloud.xi),
                      cfg.log_eps_minus, cfg.log_eps_plus)
        assert np.any(pot == cfg.log_eps_minus)   # the clamp binds
        wmat = reference.weight_matrix(cloud, kernel, cfg)
        draws = 20000
        rng = CountingGenerator(3)
        idx = engine._accept_reject_rows(cloud, kernel, cfg, draws, rng,
                                         gaussian.suff_stat_rows(cloud.xi))
        # every draw used its N proposals, then the fallback
        assert rng.drawn == cloud.n * len(kernel.pot_eta1) * draws
        assert np.all(chi_square_pvalues(idx, wmat.w) > 0.01)

    def test_blocked_fallback_equals_per_row_loop(self, monkeypatch):
        # every draw falls back, and the 16 fallback rows come in 6 blocks of
        # at most 3: the draws are those of the dense clamped rows (the lower
        # clamp binds, as in the test above) at the fallback's uniforms, the
        # last ones drawn, and the generator ends where one draw of all of
        # them leaves it
        cfg, cloud, kernel = hard_kernel(64, slopes=np.linspace(16.0, 40.0, 16),
                                         log_eps_minus=-1.5)
        n_new, m_draws = len(kernel.pot_eta1), 3
        monkeypatch.setattr(engine, "ROW_BLOCK_BYTES", 8 * cloud.n * 3)
        assert len(engine.row_blocks(n_new, cloud.n)) == 6
        rng = RecordingGenerator(4)
        idx = engine._accept_reject_rows(cloud, kernel, cfg, m_draws, rng,
                                         gaussian.suff_stat_rows(cloud.xi))
        assert rng.drawn == cloud.n * n_new * m_draws
        ref = np.random.Generator(np.random.PCG64())
        ref.bit_generator.state = rng.states[-1]
        u = ref.random((n_new, m_draws))
        w = reference.weight_matrix(cloud, kernel, cfg).w
        np.testing.assert_array_equal(idx, reference.categorical_draws(w, u))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_proposals_capped_at_n_per_draw(self):
        cfg, cloud, kernel = hard_kernel(64, slopes=np.linspace(16.0, 40.0, 16),
                                         log_eps_minus=-30.0)
        m_draws = 3
        rng = CountingGenerator(4)
        idx = engine._accept_reject_rows(cloud, kernel, cfg, m_draws, rng,
                                         gaussian.suff_stat_rows(cloud.xi))
        # every draw falls back: exactly N proposals each, in doubling blocks
        assert rng.drawn == cloud.n * len(kernel.pot_eta1) * m_draws
        assert rng.calls <= math.ceil(math.log2(cloud.n + 1))
        assert idx.shape == (16, m_draws)
        assert np.all((idx >= 0) & (idx < cloud.n))

    def test_spread_kernel_reaches_every_block_and_the_fallback(self):
        cfg, cloud, kernel = spread_kernel()
        pot = np.clip(gaussian.inner_cross(kernel.pot_eta1, kernel.pot_eta2, cloud.xi),
                      cfg.log_eps_minus, cfg.log_eps_plus)
        assert np.any(pot == cfg.log_eps_minus, axis=1).all()   # the clamp binds
        bound = engine._potential_bound(kernel.pot_eta1, kernel.pot_eta2, cloud.xi,
                                        cfg.log_eps_minus, cfg.log_eps_plus)
        reject = 1.0 - np.exp(pot - bound[:, None]).mean(axis=1)
        ends = np.array([0, 1, 3, 7, 15, 31])        # proposals drawn at each block's ends
        in_block = reject[:, None] ** ends[:-1] - reject[:, None] ** ends[1:]
        assert np.all(in_block > 0.05)
        assert np.all(reject ** cloud.n > 0.01)

    @pytest.mark.parametrize("limit_binds", [False, True])
    def test_blocked_draws_sample_clamped_potential(self, monkeypatch, limit_binds):
        cfg, cloud, kernel = spread_kernel()
        n_new, calls, m_draws = len(kernel.pot_eta1), 8, 1500
        if limit_binds:
            # room for two proposals per draw, more as draws accept
            monkeypatch.setattr(engine, "ROW_BLOCK_BYTES", 2 * 8 * 6 * n_new * m_draws)
        rng = CountingGenerator(5)
        idx = spread_draws(cfg, cloud, kernel, rng, calls, m_draws)
        assert np.all(chi_square_pvalues(idx, reference.weight_matrix(cloud, kernel, cfg).w)
                      > 0.01)
        assert rng.drawn <= cloud.n * n_new * m_draws * calls
        rounds = rng.calls / calls
        assert (rounds > math.ceil(math.log2(cloud.n + 1))) == limit_binds

    def test_chi_square_rejects_the_unclamped_potential(self):
        """The test above has the power to tell a sampler that ignores the
        lower clamp from the right one on the spread kernel."""
        cfg, cloud, kernel = spread_kernel()
        unclamped = dataclasses.replace(cfg, log_eps_minus=-30.0)
        idx = spread_draws(unclamped, cloud, kernel, np.random.default_rng(5))
        assert np.all(chi_square_pvalues(idx, reference.weight_matrix(cloud, kernel, cfg).w)
                      < 0.01)

    @settings(max_examples=50, deadline=None)
    @given(n_prev=st.integers(1, 3), extra=st.integers(1, 5), n_new=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_more_draws_than_particles(self, n_prev, extra, n_new, seed):
        rng = CountingGenerator(seed)
        xs = rng.normal(size=(n_prev, 2))
        pot_eta1 = 3.0 * rng.normal(size=(n_new, 2))
        a = rng.normal(size=(n_new, 2, 2))
        pot_eta2 = -np.einsum("nij,nkj->nik", a, a)
        cfg = engine.EngineConfig(n_particles=n_prev, compute_grads=False,
                                  clip_enabled=True, log_eps_minus=-5.0, log_eps_plus=5.0)
        cloud = make_cloud(xs)
        kernel = engine.build_kernel(FixedPotentialRunner(pot_eta1, pot_eta2),
                                     np.zeros((n_new, 2)))
        m_draws = n_prev + extra
        rng.drawn = 0
        idx = engine._accept_reject_rows(cloud, kernel, cfg, m_draws, rng,
                                         gaussian.suff_stat_rows(xs))
        assert idx.shape == (n_new, m_draws)
        assert np.all((idx >= 0) & (idx < n_prev))
        assert rng.drawn <= n_prev * n_new * m_draws
        if n_prev == 1:
            assert np.all(idx == 0)


def test_stream_does_not_import_scipy():
    code = """
import sys
import numpy as np
from streamvi import engine, models, variational as var
rng = np.random.default_rng(0)
m = models.LinearGaussianSSM(F=0.7 * np.eye(2), G=np.eye(2), q_var=0.1, r_var=0.25)
runner = engine.AmortizedRunner(var.init_amortizer(rng, 2, 2, hidden=4, head_hidden=(5,),
                                                   pot_hidden=(5,), scale=0.6))
cfg = engine.EngineConfig(n_particles=16, method="accept_reject", clip_enabled=True)
state = engine.init_state(m, runner, np.zeros(2), cfg, rng)
for y in rng.normal(size=(3, 2)):
    state, out = engine.step(state, y, m, cfg, rng)
assert out.grad_phi is not None and out.grad_theta is not None
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": ":".join(sys.path)})
    assert out.stdout.strip() == "[]"
