import math

import numpy as np
import pytest
from scipy import integrate

import reference as ref
from streamvi import gaussian as g
from streamvi.errors import DimensionMismatch, NotNegativeDefinite


def std_normal(d):
    return g.GaussianNatural(eta1=np.zeros(d), eta2=-0.5 * np.eye(d))


def random_spd(rng, d, cond_max=1e6):
    """Random SPD matrix with condition number bounded by cond_max."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    log_cond = rng.uniform(0.0, math.log(cond_max))
    eigs = np.exp(np.linspace(0.0, log_cond, d))
    eigs /= eigs[-1] ** 0.5  # spread around 1
    return q @ np.diag(eigs) @ q.T


class TestToMoments:
    def test_standard_normal(self):
        m = g.to_moments(std_normal(3))
        np.testing.assert_allclose(m.mean, np.zeros(3), atol=1e-14)
        np.testing.assert_allclose(m.cov, np.eye(3), atol=1e-14)

    def test_hand_1d(self):
        # eta2 = -1 -> cov = -1/(2*eta2) = 0.5; mean = cov*eta1 = 0.5*2 = 1
        m = g.to_moments(g.GaussianNatural(eta1=np.array([2.0]), eta2=np.array([[-1.0]])))
        assert m.mean[0] == pytest.approx(1.0, abs=1e-14)
        assert m.cov[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_wrong_sign_raises(self):
        eta = g.GaussianNatural(eta1=np.zeros(2), eta2=+0.5 * np.eye(2))
        with pytest.raises(NotNegativeDefinite):
            g.to_moments(eta)

    def test_round_trip_random_spd(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(1, 9))
            cov = random_spd(rng, d)
            mean = rng.standard_normal(d)
            eta = ref.from_moments(g.GaussianMoments(mean=mean, cov=cov))
            back = g.to_moments(eta)
            np.testing.assert_allclose(back.mean, mean, rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(back.cov, cov, rtol=1e-10, atol=1e-10)


class TestAdd:
    def test_additive_identity(self):
        rng = np.random.default_rng(1)
        eta = ref.from_moments(g.GaussianMoments(rng.standard_normal(3), random_spd(rng, 3, 10)))
        zero = g.GaussianNatural(eta1=np.zeros(3), eta2=np.zeros((3, 3)))
        s = ref.add(eta, zero)
        np.testing.assert_array_equal(s.eta1, eta.eta1)
        np.testing.assert_array_equal(s.eta2, eta.eta2)

    def test_hand_1d(self):
        a = g.GaussianNatural(eta1=np.array([1.0]), eta2=np.array([[-1.0]]))
        s = ref.add(a, a)
        assert s.eta1[0] == 2.0 and s.eta2[0, 0] == -2.0
        m = g.to_moments(s)
        assert m.cov[0, 0] == pytest.approx(0.25, abs=1e-14)
        assert m.mean[0] == pytest.approx(0.5, abs=1e-14)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ref.add(std_normal(2), std_normal(3))

    def test_density_product_constant_offset(self):
        # log p_{a+b}(x) - log p_a(x) - log p_b(x) must be constant in x
        rng = np.random.default_rng(2)
        for _ in range(5):
            d = int(rng.integers(1, 5))
            a = ref.from_moments(g.GaussianMoments(rng.standard_normal(d),
                                                   random_spd(rng, d, 100)))
            b = ref.from_moments(g.GaussianMoments(rng.standard_normal(d),
                                                   random_spd(rng, d, 100)))
            s = ref.add(a, b)
            offs = []
            for _ in range(10):
                x = rng.standard_normal(d)
                offs.append(ref.log_density(s, x) - ref.log_density(a, x) - ref.log_density(b, x))
            assert max(offs) - min(offs) <= 1e-8


class TestLogDensity:
    def test_standard_normal_at_zero(self):
        expected = -0.5 * math.log(2.0 * math.pi)  # = -0.91893853...
        assert ref.log_density(std_normal(1), [0.0]) == pytest.approx(expected, abs=1e-12)

    def test_translation_symmetry(self):
        rng = np.random.default_rng(3)
        d = 3
        cov = random_spd(rng, d, 50)
        mean = rng.standard_normal(d)
        eta = ref.from_moments(g.GaussianMoments(mean, cov))
        at_mean = ref.log_density(eta, mean)
        _, logdet = np.linalg.slogdet(2.0 * math.pi * cov)
        assert at_mean == pytest.approx(-0.5 * logdet, abs=1e-10)

    def test_hand_2d_det_one(self):
        cov = np.diag([0.5, 2.0])  # det = 1
        eta = ref.from_moments(g.GaussianMoments(np.zeros(2), cov))
        expected = -0.5 * math.log((2.0 * math.pi) ** 2)  # = -1.8378770...
        assert ref.log_density(eta, np.zeros(2)) == pytest.approx(expected, abs=1e-12)

    def test_quadrature_normalization_1d(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            mean = rng.uniform(-3, 3)
            var = rng.uniform(0.1, 4.0)
            eta = ref.from_moments(g.GaussianMoments([mean], [[var]]))
            sd = math.sqrt(var)
            val, _ = integrate.quad(
                lambda x: math.exp(ref.log_density(eta, [x])),
                mean - 10 * sd, mean + 10 * sd, limit=200,
            )
            assert val == pytest.approx(1.0, abs=1e-6)


class TestSample:
    def test_seed_determinism(self):
        eta = std_normal(2)
        a = g.sample(eta, np.random.default_rng(7), 3)
        b = g.sample(eta, np.random.default_rng(7), 3)
        np.testing.assert_array_equal(a, b)

    def test_clt_mean_bound(self):
        n = 10**5
        xs = g.sample(std_normal(3), np.random.default_rng(8), n)
        assert np.all(np.abs(xs.mean(axis=0)) < 4.0 / math.sqrt(n))

    def test_singular_eta2_raises(self):
        eta = g.GaussianNatural(eta1=np.zeros(2), eta2=np.diag([-1.0, 0.0]))
        with pytest.raises(NotNegativeDefinite):
            g.sample(eta, np.random.default_rng(9), 1)


class TestSuffStat:
    def test_zero(self):
        t = ref.suff_stat(np.zeros(3))
        np.testing.assert_array_equal(t.t1, np.zeros(3))
        np.testing.assert_array_equal(t.t2, np.zeros((3, 3)))

    def test_outer(self):
        t = ref.suff_stat([1.0, 2.0])
        np.testing.assert_array_equal(t.t2, np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_symmetry_exact(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(6)
        t = ref.suff_stat(x)
        np.testing.assert_array_equal(t.t2, t.t2.T)


class TestInner:
    def test_zero_eta(self):
        eta = g.GaussianNatural(eta1=np.zeros(2), eta2=np.zeros((2, 2)))
        assert ref.inner(eta, ref.suff_stat([1.0, -2.0])) == 0.0

    def test_hand_1d(self):
        eta = g.GaussianNatural(eta1=np.array([2.0]), eta2=np.array([[-1.0]]))
        assert ref.inner(eta, ref.suff_stat([3.0])) == pytest.approx(-3.0, abs=1e-14)

    def test_bilinearity(self):
        rng = np.random.default_rng(11)
        d = 4
        a = g.GaussianNatural(rng.standard_normal(d), g._symmetrize(rng.standard_normal((d, d))))
        b = g.GaussianNatural(rng.standard_normal(d), g._symmetrize(rng.standard_normal((d, d))))
        t = ref.suff_stat(rng.standard_normal(d))
        lhs = ref.inner(ref.add(a, b), t)
        rhs = ref.inner(a, t) + ref.inner(b, t)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestBatchedHelpers:
    def test_cross_matches_scalar(self):
        rng = np.random.default_rng(12)
        d, n, m = 3, 4, 5
        etas = [
            ref.from_moments(g.GaussianMoments(rng.standard_normal(d), random_spd(rng, d, 30)))
            for _ in range(n)
        ]
        xs = rng.standard_normal((m, d))
        eta1 = np.stack([e.eta1 for e in etas])
        eta2 = np.stack([e.eta2 for e in etas])
        got = g.log_density_cross(eta1, eta2, xs)
        for i in range(n):
            for j in range(m):
                assert got[i, j] == pytest.approx(ref.log_density(etas[i], xs[j]), abs=1e-10)

    def test_mean_params_batch_matches_scalar(self):
        rng = np.random.default_rng(13)
        d = 3
        etas = [
            ref.from_moments(g.GaussianMoments(rng.standard_normal(d), random_spd(rng, d, 30)))
            for _ in range(4)
        ]
        eta1 = np.stack([e.eta1 for e in etas])
        eta2 = np.stack([e.eta2 for e in etas])
        m1, m2 = g.mean_params_batch(eta1, eta2)
        for i, e in enumerate(etas):
            sm1, sm2 = ref.mean_params(e)
            np.testing.assert_allclose(m1[i], sm1, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(m2[i], sm2, rtol=1e-10, atol=1e-12)

    def test_log_partition_matches_scalar(self):
        rng = np.random.default_rng(14)
        d = 2
        e = ref.from_moments(g.GaussianMoments(rng.standard_normal(d), random_spd(rng, d, 10)))
        got = g.log_partition_batch(e.eta1[None], e.eta2[None])[0]
        assert got == pytest.approx(ref.log_partition(e), abs=1e-12)
