import numpy as np
import pytest
from scipy import stats

from irec import chain, synthetic
from irec.chain import AuxSchedule, build_schedule
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


def _moment_problem(rng):
    q = synthetic.synthetic_target(4, 12.0, rng)
    schedule = build_schedule(12.0, 3.0, 0.2, q.var)
    return q, schedule, int(rng.integers(0, schedule.K))


class TestOraclePower:
    """Each shared check passes on the chain and fails on a known fault."""

    def test_moment_check_fails_on_a_scaled_target_mean(self, monkeypatch):
        def check():
            rng = np.random.default_rng(0)
            return synthetic.check_target_moments(rng, _moment_problem, 3, 20_000)

        assert check().passed
        kernel = chain.target_moments

        def scaled(*args):
            mean, var = kernel(*args)
            return 1.05 * mean, var

        monkeypatch.setattr(chain, "target_moments", scaled)
        result = check()
        assert not result.passed and result.value > result.bound == synthetic.MOMENT_BOUND

    def test_chain_rule_check_fails_when_step_kls_miss_the_total(self):
        q = synthetic.synthetic_target(2, 9.0, np.random.default_rng(0))
        schedule = build_schedule(9.0, 3.0, 0.2, q.var)
        assert synthetic.check_chain_rule([(q, schedule, 0)], trials=20_000).passed
        # Step variances summing to 1.2: the constructor refuses them.
        bad = object.__new__(AuxSchedule)
        bad.__dict__.update(vars(schedule), sigma_sq=1.2 * schedule.sigma_sq)
        result = synthetic.check_chain_rule([(q, bad, 0)], trials=20_000)
        assert not result.passed and result.value > result.bound == synthetic.CHAIN_RULE_BOUND
