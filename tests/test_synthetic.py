import numpy as np
import pytest
from scipy import stats

from irec.synthetic import ks_statistic


class TestKsStatistic:
    @pytest.mark.parametrize("n_a,n_b", [(1, 1), (5, 9), (200, 150), (1000, 1000)])
    def test_matches_scipy_on_random_samples(self, n_a, n_b):
        rng = np.random.default_rng(n_a + n_b)
        for _ in range(20):
            a = rng.normal(0.0, 1.0, n_a)
            b = rng.normal(float(rng.uniform(-0.5, 0.5)), 1.0, n_b)
            assert ks_statistic(a, b) == pytest.approx(
                stats.ks_2samp(a, b).statistic, abs=1e-12
            )

    def test_matches_scipy_on_tied_samples(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.integers(0, 5, int(rng.integers(1, 40))).astype(np.float64)
            b = rng.integers(0, 5, int(rng.integers(1, 40))).astype(np.float64)
            assert ks_statistic(a, b) == pytest.approx(
                stats.ks_2samp(a, b).statistic, abs=1e-12
            )

    def test_extremes(self):
        assert ks_statistic([1.0, 2.0], [2.0, 1.0]) == 0.0
        assert ks_statistic([0.0, 0.0], [1.0]) == 1.0
