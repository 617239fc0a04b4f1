import numpy as np
import pytest
from scipy import stats

from irec import chain, codec, synthetic
from irec.chain import AuxSchedule, build_schedule
from irec.codec import RecConfig
from irec.errors import UsageError
from irec.gauss import DiagGaussian, kl_divergence
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


@pytest.mark.parametrize("dims", [0, -1])
def test_synthetic_target_rejects_nonpositive_dims(dims):
    # dims = 0 used to double the bisection bracket forever.
    with pytest.raises(UsageError, match="dims"):
        synthetic.synthetic_target(dims, 5.0, np.random.default_rng(0))


@pytest.mark.parametrize("total_kl", [0.0, -1.0, float("nan"), float("inf")])
def test_synthetic_target_rejects_nonpositive_kl(total_kl):
    with pytest.raises(UsageError, match="total_kl"):
        synthetic.synthetic_target(4, total_kl, np.random.default_rng(0))


def test_problem_set_rejects_a_nan_kl():
    with pytest.raises(UsageError, match="total_kl"):
        synthetic.problem_set(4, float("nan"), 30, 0)


def test_synthetic_target_rejects_a_kl_below_its_variance_floor():
    # 64 dims of std in [e^-1, 1] carry at least a few nats through the variances alone.
    with pytest.raises(UsageError, match="variance-only floor"):
        synthetic.synthetic_target(64, 0.01, np.random.default_rng(0))


@pytest.mark.parametrize("grids", [([], [0.2], [1]), ([3.0], [], [1]), ([3.0], [0.2], [])])
def test_sweep_rejects_an_empty_grid(grids):
    with pytest.raises(UsageError, match="nonempty"):
        synthetic.sweep(*grids, trials=30)


def test_sweep_counts_a_refused_configuration_as_a_failure():
    # omega 30 needs e^36 > 2^32 samples per step, so RecConfig raises ConfigError.
    bad, good = synthetic.sweep([30.0, 3.0], [0.2], [1], trials=30, kl_target=6.0, dims=2)
    assert (bad.omega, bad.failures) == (30.0, 1)
    assert np.isnan(bad.overhead_ratio)
    assert good.failures == 0 and np.isfinite(good.overhead_ratio)


def _moment_check():
    return synthetic.check_target_moments(np.random.default_rng(0), synthetic.moment_problem, 10)


def _scaled_target(mean_scale, var_scale, kernel=chain.target_moments):
    def scaled(*args):
        mean, var = kernel(*args)
        return mean_scale * mean, var_scale * var

    return scaled


class TestOraclePower:
    """Each shared check passes on the chain and fails on a known fault."""

    def test_moment_check_fails_on_a_scaled_target_mean(self, monkeypatch):
        assert _moment_check().passed
        # The exact check reads about 0.13 and 0.052 target SDs.
        for scale in (1.05, 1.02):
            monkeypatch.setattr(chain, "target_moments", _scaled_target(scale, 1.0))
            result = _moment_check()
            assert not result.passed and result.value > 0.04
            assert result.bound == synthetic.IDENTITY_BOUND

    def test_moment_check_fails_on_a_scaled_target_variance(self, monkeypatch):
        # Within 3 SE of a 100,000-sample estimate; only an exact check sees it.
        monkeypatch.setattr(chain, "target_moments", _scaled_target(1.0, 1.001))
        result = _moment_check()
        assert not result.passed
        assert result.value == pytest.approx(0.001 / 1.001, rel=1e-6)

    def test_chain_rule_check_fails_when_step_kls_miss_the_total(self):
        q = synthetic.synthetic_target(2, 9.0, np.random.default_rng(0))
        schedule = build_schedule(9.0, 3.0, 0.2, q.var)
        assert synthetic.check_chain_rule([(q, schedule)]).passed
        # Step variances summing to 1.2: the constructor refuses them.
        steps = schedule.steps.copy()
        steps[1] *= 1.2
        bad = object.__new__(AuxSchedule)
        bad.__dict__.update(vars(schedule), steps=steps)
        result = synthetic.check_chain_rule([(q, bad)])
        assert not result.passed and result.value > result.bound == synthetic.IDENTITY_BOUND


@pytest.mark.parametrize("seed", range(30))
def test_exact_oracles_pass_on_validate_draws(seed):
    # Working code passes at every seed; a sampled bound would fail some by chance.
    moments = synthetic.check_target_moments(
        np.random.default_rng(seed), synthetic.moment_problem, 10
    )
    assert moments.passed, moments.detail
    rng = np.random.default_rng(seed)
    problems = [synthetic.moment_problem(rng)[:2] for _ in range(10)]
    chain_rule = synthetic.check_chain_rule(problems)
    assert chain_rule.passed, chain_rule.detail


class TestStudiesMatchLoneEncodes:
    """The studies encode all their problems in one call; each value must be
    that of encoding its problem alone, one codec.encode call per seed."""

    @pytest.mark.parametrize("beams", [1, 5])
    def test_log_ratios(self, beams):
        cfg = RecConfig(beams=beams)
        problems = synthetic.problem_set(8, 12.0, 30, seed=4)
        expected = np.array([
            codec.encode(q, build_schedule(12.0, cfg.omega, cfg.epsilon, q.var), cfg, seed, 0)[2]
            for q, seed in problems
        ])
        assert synthetic.log_ratios(problems, 12.0, cfg).tobytes() == expected.tobytes()

    def test_stochastic_ks_decodes(self, monkeypatch):
        # Seeds 2^63 - 100 .. 2^63 + 99 straddle the int64 limit.
        q, seed, samples = DiagGaussian(np.array([0.5]), np.array([0.8])), 2**63 - 100, 200
        cfg = RecConfig(omega=3.0, epsilon=0.0, beams=1, stochastic_final=True)
        schedule = build_schedule(kl_divergence(q, DiagGaussian.standard(1)), 3.0, 0.0, q.var)
        expected = np.array([
            codec.encode(q, schedule, cfg, seed + i, 0)[1][0] for i in range(samples)
        ])
        seen = []
        monkeypatch.setattr(synthetic, "ks_statistic", lambda a, b: seen.append(a) or 0.0)
        synthetic.check_stochastic_ks(q, samples, seed)
        assert np.asarray(seen[0]).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [-1, 2**64 - 9])
    def test_stochastic_ks_rejects_seeds_past_u64(self, seed):
        q = DiagGaussian(np.array([0.5]), np.array([0.8]))
        with pytest.raises(UsageError, match="seed"):
            synthetic.check_stochastic_ks(q, 10, seed)
