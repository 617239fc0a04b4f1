import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import log_density, log_density_ratio
from irec.errors import UsageError
from irec.gauss import STD_FLOOR, DiagGaussian, kl_divergence, whiten


def g(mean, std):
    return DiagGaussian(np.atleast_1d(np.asarray(mean, dtype=float)),
                        np.atleast_1d(np.asarray(std, dtype=float)))


class TestDiagGaussian:
    def test_std_floor_applied(self):
        d = g(0.0, 0.0)
        assert d.std[0] == STD_FLOOR

    def test_rejects_shape_mismatch(self):
        with pytest.raises(UsageError):
            DiagGaussian(np.zeros(2), np.ones(3))

    def test_rejects_non_finite(self):
        with pytest.raises(UsageError):
            g(np.nan, 1.0)

    def test_rejects_empty(self):
        with pytest.raises(UsageError):
            DiagGaussian(np.zeros(0), np.ones(0))

    def test_arrays_read_only(self):
        d = g([1.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            d.mean[0] = 5.0

    def test_standard(self):
        d = DiagGaussian.standard(3)
        assert np.all(d.mean == 0) and np.all(d.std == 1)


class TestKLDivergence:
    def test_identical_is_zero(self):
        assert kl_divergence(g(0, 1), g(0, 1)) == 0.0

    def test_unit_mean_shift(self):
        assert kl_divergence(g(1, 1), g(0, 1)) == pytest.approx(0.5, abs=1e-12)

    def test_mean_and_scale(self):
        # 0.5 * (0.64 + 0.25 - 1 - ln 0.64)
        assert kl_divergence(g(0.5, 0.8), g(0, 1)) == pytest.approx(0.16815, abs=1e-4)

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            kl_divergence(DiagGaussian.standard(2), DiagGaussian.standard(3))

    @given(
        mean=st.floats(-5, 5),
        std=st.floats(0.1, 5),
        pmean=st.floats(-5, 5),
        pstd=st.floats(0.1, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_nonnegative(self, mean, std, pmean, pstd):
        kl = kl_divergence(g(mean, std), g(pmean, pstd))
        assert kl >= 0.0
        if abs(mean - pmean) < 1e-13 and abs(std - pstd) < 1e-13:
            assert kl <= 1e-12

    def test_additive_over_dimensions(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            qm, qs = rng.normal(size=4), rng.uniform(0.2, 3, size=4)
            pm, ps = rng.normal(size=4), rng.uniform(0.2, 3, size=4)
            total = kl_divergence(DiagGaussian(qm, qs), DiagGaussian(pm, ps))
            parts = sum(
                kl_divergence(g(qm[i], qs[i]), g(pm[i], ps[i])) for i in range(4)
            )
            assert total == pytest.approx(parts, abs=1e-12)

    @pytest.mark.parametrize("dims", range(1, 41))
    def test_sums_dims_in_index_order(self, dims):
        # The per-dimension terms added for i = 0..D-1 in pure Python.
        rng = np.random.default_rng(dims)
        q = DiagGaussian(rng.normal(0.0, 3.0, dims), 10.0 ** rng.uniform(-3.0, 1.0, dims))
        p = DiagGaussian(rng.normal(size=dims), rng.uniform(0.2, 3.0, dims))
        ratio = q.var / p.var
        delta = (q.mean - p.mean) / p.std
        total = 0.0
        for r, d, log_r in zip(ratio.tolist(), delta.tolist(), np.log(ratio).tolist()):
            total += r + d * d - 1.0 - log_r
        assert kl_divergence(q, p).tobytes() == np.float64(0.5 * total).tobytes()

    def test_monte_carlo_consistency(self):
        # E_q[log q/p] is the KL divergence.
        rng = np.random.default_rng(3)
        q, p = g([1.2, -0.3], [0.7, 1.4]), g([0.0, 0.5], [1.0, 0.9])
        n = 100_000
        z = rng.normal(q.mean, q.std, size=(n, 2))
        vals = np.array([log_density_ratio(q, p, zi) for zi in z[:20_000]])
        kl = kl_divergence(q, p)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - kl) <= 3 * se


class TestLogDensityRatio:
    def test_equal_distributions(self):
        assert log_density_ratio(g(2, 3), g(2, 3), np.array([1.0])) == 0.0

    def test_symmetry_midpoint(self):
        r = log_density_ratio(g(1, 1), g(0, 1), np.array([0.5]))
        assert r == pytest.approx(0.0, abs=1e-12)

    def test_at_target_mean(self):
        r = log_density_ratio(g(1, 1), g(0, 1), np.array([1.0]))
        assert r == pytest.approx(0.5, abs=1e-12)

    def test_matches_log_densities(self):
        q, p = g([0.4], [0.6]), g([-1.0], [2.0])
        z = np.array([0.25])
        expect = log_density(q, z) - log_density(p, z)
        assert log_density_ratio(q, p, z) == pytest.approx(expect, abs=1e-12)

    def test_point_dimension_mismatch(self):
        with pytest.raises(UsageError):
            log_density_ratio(g(0, 1), g(0, 1), np.zeros(2))


class TestWhiten:
    def test_identity(self):
        q_std = whiten(DiagGaussian.standard(2), DiagGaussian.standard(2))
        assert np.all(q_std.mean == 0) and np.all(q_std.std == 1)

    def test_affine_example(self):
        q_std = whiten(g(2, 1), g(2, 2))
        assert q_std.mean[0] == 0.0
        assert q_std.std[0] == 0.5

    def test_kl_invariance(self):
        rng = np.random.default_rng(11)
        prior = DiagGaussian.standard(5)
        for _ in range(1000):
            q = DiagGaussian(rng.normal(size=5), rng.uniform(0.2, 3, size=5))
            p = DiagGaussian(rng.normal(size=5), rng.uniform(0.2, 3, size=5))
            q_std = whiten(q, p)
            assert abs(kl_divergence(q, p) - kl_divergence(q_std, prior)) <= 1e-9

    def test_inverse_map_recovers_moments(self):
        q, p = g([3.0, -1.0], [0.5, 2.0]), g([1.0, 1.0], [2.0, 4.0])
        q_std = whiten(q, p)
        assert np.allclose(p.std * q_std.mean + p.mean, q.mean)
        assert np.allclose(p.std * q_std.std, q.std)


class TestBatch:
    def test_shapes(self):
        q = DiagGaussian(np.zeros((4, 3, 2)), np.ones(2))
        assert q.dim == 2 and q.mean.shape == (4, 3, 2) and q.std.shape == (2,)
        # One std per row: a std shaped like the mean.
        q = DiagGaussian(np.zeros((4, 2)), np.ones((4, 2)))
        assert q.dim == 2 and q.std.shape == (4, 2)
        for mean, std in [
            (np.zeros((4, 2)), np.ones(3)),
            (np.zeros((4, 2)), np.ones((4, 1))),
            (np.zeros((4, 2)), np.ones((1, 2))),
            (np.zeros((4, 3, 2)), np.ones((3, 2))),
            (np.zeros((0, 2)), np.ones(2)),
            (np.zeros((0, 2)), np.ones((0, 2))),
            (np.float64(0.0), np.float64(1.0)),
            (np.zeros(2), np.ones((1, 2))),
        ]:
            with pytest.raises(UsageError):
                DiagGaussian(mean, std)

    def test_row_stds_give_row_kls(self):
        rng = np.random.default_rng(5)
        mean, std = rng.normal(size=(6, 3)), rng.uniform(0.2, 3, size=(6, 3))
        p = DiagGaussian.standard(3)
        kls = kl_divergence(DiagGaussian(mean, std), p)
        for k in range(6):
            assert kls[k].tobytes() == kl_divergence(DiagGaussian(mean[k], std[k]), p).tobytes()

    @pytest.mark.parametrize("dims", [1, 3, 8, 9, 16, 17, 40])
    def test_rows_equal_single_gaussians(self, dims):
        # A row-wise sum over the contiguous last axis is the 1-D sum, bit for bit.
        rng = np.random.default_rng(dims)
        mean, std = rng.normal(size=(256, dims)), rng.uniform(0.2, 3, size=dims)
        p = DiagGaussian(rng.normal(size=dims), rng.uniform(0.2, 3, size=dims))
        batch = DiagGaussian(mean, std)
        kls = kl_divergence(batch, p)
        white = whiten(batch, p)
        assert kls.shape == (256,)
        for k in (0, 1, 100, 255):
            alone = DiagGaussian(mean[k], std)
            assert kls[k].tobytes() == kl_divergence(alone, p).tobytes()
            assert white.mean[k].tobytes() == whiten(alone, p).mean.tobytes()
        assert white.std.tobytes() == whiten(DiagGaussian(mean[0], std), p).std.tobytes()
