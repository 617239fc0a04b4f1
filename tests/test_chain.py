import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import irec.chain
from conftest import log_density, log_density_ratio
from irec.chain import (
    K_MAX,
    AuxSchedule,
    build_schedule,
    chain_kl_profile,
    conditional_prior,
    posterior_moments,
    samples_per_step,
    schedule_from_steps,
    target_moments,
)
from irec.errors import ConfigError, UsageError
from irec.gauss import DiagGaussian, kl_divergence
from irec.synthetic import check_chain_rule, check_target_moments, synthetic_target


def uni(mean, std):
    return DiagGaussian(np.array([float(mean)]), np.array([float(std)]))


class TestSamplesPerStep:
    def test_published_settings(self):
        assert samples_per_step(3.0, 0.2) == 37  # ceil(e^3.6)
        assert samples_per_step(3.0, 0.0) == 21  # ceil(e^3)

    def test_rejects_bad_omega(self):
        with pytest.raises(UsageError):
            samples_per_step(0.0, 0.2)
        with pytest.raises(UsageError):
            samples_per_step(3.0, -0.1)
        with pytest.raises(UsageError):
            samples_per_step(math.nan, 0.2)
        with pytest.raises(UsageError):
            samples_per_step(3.0, math.nan)

    def test_index_width_overflow(self):
        with pytest.raises(ConfigError):
            samples_per_step(30.0, 0.0)

    def test_rejects_single_candidate(self):
        # Denormal omega rounds exp() to exactly 1; a one-candidate step
        # would make zero-width index payloads.
        with pytest.raises(ConfigError):
            samples_per_step(1e-308, 0.0)


class TestSchedule:
    def test_single_step_takes_all_variance(self):
        s = build_schedule(3.0, 3.0, 0.2)
        assert s.K == 1
        assert s.sigma_sq[0] == 1.0
        assert s.M == 37

    def test_power_law_four_steps(self):
        s = build_schedule(10.0, 3.0, 0.2)
        assert s.K == 4
        assert np.allclose(s.sigma_sq, [0.3345, 0.2794, 0.2233, 0.1628], atol=1e-4)
        assert abs(float(s.sigma_sq.sum()) - 1.0) <= 1e-12

    def test_zero_kl_floor(self):
        s = build_schedule(0.0, 3.0, 0.0)
        assert s.K == 1
        assert s.sigma_sq[0] == 1.0
        assert s.M == 21

    def test_steps_table(self):
        # A power-law (v1) and an equal-KL (v2, v3) schedule.
        for variances in (None, np.array([0.04, 0.3, 1.0])):
            s = build_schedule(30.0, 3.0, 0.2, variances)
            steps = s.steps
            assert steps.shape == (4, s.K) and s.K > 1
            assert steps[2, 0] == 1.0
            assert steps[3, s.K - 1] == 0.0
            assert steps[0].tobytes() == np.sqrt(s.sigma_sq).tobytes()
            assert steps[1].tobytes() == s.sigma_sq.tobytes()
            # The tail after step k is the tail before step k + 1; tails fall.
            assert steps[3, :-1].tobytes() == steps[2, 1:].tobytes()
            assert np.all(np.diff(steps[2]) < 0)
            # Computed once per schedule and shared by every caller.
            assert not steps.flags.writeable
            with pytest.raises(ValueError):
                steps[0, 0] = 2.0

    def test_decoder_side_rebuild_matches(self):
        enc = build_schedule(17.0, 3.0, 0.2)
        dec = schedule_from_steps(enc.K, 3.0, 0.2)
        assert np.array_equal(enc.sigma_sq, dec.sigma_sq)

    @given(k=st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_any_step_count_sums_to_one(self, k):
        s = schedule_from_steps(k, 3.0, 0.2)
        assert abs(float(s.sigma_sq.sum()) - 1.0) <= 1e-12
        assert np.all(s.sigma_sq > 0)

    def test_rejects_invalid(self):
        with pytest.raises(UsageError):
            schedule_from_steps(0, 3.0, 0.2)
        with pytest.raises(UsageError):
            AuxSchedule(sigma_sq=np.array([0.5, 0.6]), omega=3.0, epsilon=0.2)
        with pytest.raises(UsageError):
            build_schedule(-1.0, 3.0, 0.2)

    def test_k_and_m_are_derived(self):
        s = AuxSchedule(sigma_sq=np.array([0.5, 0.5]), omega=3.0, epsilon=0.2)
        assert (s.K, s.M) == (2, 37) and type(s.K) is int
        # No schedule can claim a K or an M that its variances, omega and epsilon do not give.
        for claimed in ({"K": 2}, {"M": 5}):
            with pytest.raises(TypeError):
                AuxSchedule(sigma_sq=np.array([0.5, 0.5]), omega=3.0, epsilon=0.2, **claimed)
        for bad in (np.array([]), np.array([[0.5, 0.5]])):
            with pytest.raises(UsageError):
                AuxSchedule(sigma_sq=bad, omega=3.0, epsilon=0.2)

    def test_schedule_cache_cannot_alias(self):
        irec.chain._cached_schedule.cache_clear()
        with pytest.raises(UsageError, match="K"):
            schedule_from_steps(2.0, 3.0, 0.2)
        s = schedule_from_steps(np.int64(2), 3.0, 0.2)
        assert type(s.K) is int
        assert schedule_from_steps(2, 3.0, 0.2) is s
        with pytest.raises(UsageError, match="K"):
            schedule_from_steps(2.0, 3.0, 0.2)

    def test_rejects_nan_omega(self):
        with pytest.raises(UsageError):
            build_schedule(3.0, math.nan, 0.2)

    def test_step_cap_refuses_before_any_schedule_work(self, monkeypatch):
        calls = []
        monkeypatch.setattr(irec.chain, "_equal_kl", lambda *args: calls.append(args))
        monkeypatch.setattr(irec.chain, "_power_law", lambda *args: calls.append(args))
        s_sq = np.full(8, 0.5)
        cases = [
            lambda: schedule_from_steps(K_MAX + 1, 3.0, 0.2),
            lambda: schedule_from_steps(K_MAX + 1, 3.0, 0.2, s_sq),
            lambda: build_schedule(2.5e38, 3.0, 0.2, s_sq),  # K = 8.3e37
            # A 30-nat block of a good model under a tiny omega: M = 2, K = 30,000.
            lambda: build_schedule(30.0, 0.001, 0.2, s_sq),
        ]
        for case in cases:
            with pytest.raises(ConfigError, match="K_MAX"):
                case()
        assert calls == []
        assert samples_per_step(0.001, 0.2) == 2

    @pytest.mark.parametrize("omega, epsilon", [(0.0, 0.2), (math.nan, 0.2), (3.0, -0.1),
                                                (3.0, math.nan)])
    def test_build_schedule_refuses_omega_and_epsilon_before_any_schedule_work(
        self, omega, epsilon, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(irec.chain, "_equal_kl", lambda *args: calls.append(args))
        with pytest.raises(UsageError, match="omega|epsilon"):
            build_schedule(3000.0, omega, epsilon, np.full(8, 0.5))
        assert calls == []

    def test_schedule_from_steps_refuses_omega_and_epsilon_before_any_schedule_work(
        self, equal_kl_calls
    ):
        with pytest.raises(UsageError, match="epsilon"):
            schedule_from_steps(4096, 3.0, -1.0, np.full(16, 0.5))
        assert equal_kl_calls == []

    def test_step_cap_itself_is_allowed(self):
        assert schedule_from_steps(K_MAX, 3.0, 0.2).K == K_MAX


class TestEqualKLSchedule:
    @given(
        k=st.integers(1, 40),
        variances=st.lists(st.floats(1e-6, 4.0), min_size=1, max_size=16),
        omega=st.sampled_from([1.0, 3.0, 5.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_positive_and_sums_to_one(self, k, variances, omega):
        s = schedule_from_steps(k, omega, 0.2, np.array(variances))
        assert s.K == k
        assert np.all(s.sigma_sq > 0)
        assert abs(float(s.sigma_sq.sum()) - 1.0) <= 1e-12

    def test_decoder_side_rebuild_matches(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            var = rng.uniform(0.01, 1.0, size=int(rng.integers(1, 17)))
            enc = build_schedule(float(rng.uniform(0.0, 60.0)), 3.0, 0.2, var)
            dec = schedule_from_steps(enc.K, 3.0, 0.2, var.copy())
            assert np.array_equal(enc.sigma_sq, dec.sigma_sq)

    def test_unit_variances_split_equally(self):
        # s_j^2 = 1 makes the cumulative KL linear in t.
        s = schedule_from_steps(6, 3.0, 0.2, np.ones(8))
        assert np.allclose(s.sigma_sq, 1.0 / 6.0, rtol=1e-12)

    @pytest.mark.parametrize("dims,kl", [(1, 6.0), (16, 30.0)])
    def test_every_step_carries_omega(self, dims, kl):
        rng = np.random.default_rng(dims)
        q = synthetic_target(dims, kl, rng)
        s = build_schedule(kl, 3.0, 0.2, q.var)
        assert s.K * 3.0 == kl
        assert np.allclose(chain_kl_profile(q, s), 3.0, rtol=0, atol=1e-9)

    def test_rejects_bad_variances(self):
        for bad in ([], [0.5, -1.0], [np.nan], [np.inf], [[0.5]]):
            with pytest.raises(UsageError):
                schedule_from_steps(3, 3.0, 0.2, np.array(bad, dtype=np.float64))


def step_vars(s, k):
    """(sigma_k^2, tail variance before step k, tail variance after it)."""
    return tuple(s.steps[1:, k].tolist())


def start(q):
    """Chain state before the first step: (nu, rho_sq, b)."""
    return q.mean, q.var, np.zeros(q.dim)


class TestAuxTarget:
    def test_single_step_target_is_q(self):
        q = DiagGaussian(np.array([1.5, -0.5]), np.array([0.7, 1.2]))
        s = build_schedule(0.5, 3.0, 0.2)
        mean, var = target_moments(*start(q), *step_vars(s, 0))
        assert np.allclose(mean, q.mean)
        assert np.allclose(var, q.var)

    def test_exhausted_posterior_reverts_to_coding(self):
        s = schedule_from_steps(3, 3.0, 0.2)
        mean, var = target_moments(
            np.array([0.8]), np.array([1e-30]), np.array([0.8]), *step_vars(s, 1)
        )
        assert mean[0] == pytest.approx(0.0, abs=1e-12)
        sig_sq, s_prev, s_next = step_vars(s, 1)
        expect_var = s_next * sig_sq / s_prev
        assert var[0] == pytest.approx(expect_var, rel=1e-9)

    def test_matches_marginal_of_conditional_prior(self):
        # z ~ q, a1 ~ p(a1 | z) must marginalize to the closed form.
        q = uni(3.0, math.sqrt(0.1))
        s = build_schedule(kl_divergence(q, DiagGaussian.standard(1)), 3.0, 0.2)
        assert s.K == 2
        rng = np.random.default_rng(5)
        assert check_target_moments(rng, lambda rng: (q, s, 0), 1).passed


class TestConditionalPrior:
    def test_equal_split_two_steps(self):
        s = AuxSchedule(sigma_sq=np.array([0.5, 0.5]), omega=3.0, epsilon=0.2)
        mean, var = conditional_prior(np.array([2.0]), np.zeros(1), *step_vars(s, 0))
        assert mean[0] == pytest.approx(1.0, abs=1e-12)
        assert var == pytest.approx(0.25, abs=1e-12)

    def test_matches_sum_split_formula(self):
        # X ~ N(0, vx), Y ~ N(0, vy): p(x | x + y = z) = N(z vx/(vx+vy), vx vy/(vx+vy)).
        s = schedule_from_steps(2, 3.0, 0.2)
        vx, vy = float(s.sigma_sq[0]), float(s.sigma_sq[1])
        z = 1.7
        mean, var = conditional_prior(np.array([z]), np.zeros(1), *step_vars(s, 0))
        assert mean[0] == pytest.approx(z * vx / (vx + vy), rel=1e-12)
        assert var == pytest.approx(vx * vy / (vx + vy), rel=1e-9)

    def test_zero_gap_zero_mean(self):
        s = AuxSchedule(sigma_sq=np.array([0.5, 0.5]), omega=3.0, epsilon=0.2)
        b = np.array([0.6])
        mean, _ = conditional_prior(b, b, *step_vars(s, 0))
        assert mean[0] == 0.0


class TestKernelsAreAffine:
    """The exact oracles rest on this: target mean, posterior nu and b, and
    the conditional prior mean are affine in (nu, b, a, z), and no variance
    depends on them."""

    def test_convex_combination_commutes_with_kernels(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = int(rng.integers(1, 6))
            s = schedule_from_steps(int(rng.integers(1, 8)), 3.0, 0.2)
            step = step_vars(s, int(rng.integers(0, s.K)))
            rho_sq = rng.uniform(0.01, 1.0, d)

            def kernels(nu, b, a, z):
                mean, var = target_moments(nu, rho_sq, b, *step)
                nu_new, rho_new, b_new = posterior_moments(nu, rho_sq, b, a, *step)
                prior_mean, prior_var = conditional_prior(z, b, *step)
                affine = np.stack([mean, nu_new, b_new, prior_mean])
                return affine, np.stack([var, rho_new, np.broadcast_to(prior_var, d)])

            x, y = rng.normal(size=(2, 4, d))
            lam = float(rng.uniform())
            fx, vx = kernels(*x)
            fy, vy = kernels(*y)
            fm, vm = kernels(*(lam * x + (1.0 - lam) * y))
            np.testing.assert_allclose(fm, lam * fx + (1.0 - lam) * fy, rtol=1e-12)
            assert np.array_equal(vm, vx) and np.array_equal(vm, vy)


class TestPosteriorUpdate:
    def test_single_step_degenerates(self):
        q = DiagGaussian(np.array([0.4]), np.array([0.9]))
        s = build_schedule(0.1, 3.0, 0.2)
        a1 = np.array([0.77])
        nu, rho_sq, b = posterior_moments(*start(q), a1, *step_vars(s, 0))
        assert nu[0] == pytest.approx(0.77, abs=1e-9)
        assert b[0] == 0.77
        assert rho_sq[0] <= 1e-9

    def test_full_chain_reconstruction(self):
        rng = np.random.default_rng(2)
        q = DiagGaussian(rng.normal(size=3), rng.uniform(0.3, 1.0, size=3))
        s = schedule_from_steps(4, 3.0, 0.2)
        nu, rho_sq, b = start(q)
        total = np.zeros(3)
        for k in range(s.K):
            mean, var = target_moments(nu, rho_sq, b, *step_vars(s, k))
            a = rng.normal(mean, np.sqrt(var))
            total += a
            nu, rho_sq, b = posterior_moments(nu, rho_sq, b, a, *step_vars(s, k))
        assert np.allclose(b, total)
        assert np.all(rho_sq <= 1e-9)

    def test_prior_target_matches_marginal_each_step(self):
        # q == coding prior: every conditional target is the step marginal.
        rng = np.random.default_rng(3)
        q = DiagGaussian.standard(2)
        s = schedule_from_steps(5, 3.0, 0.2)
        nu, rho_sq, b = start(q)
        for k in range(s.K):
            mean, var = target_moments(nu, rho_sq, b, *step_vars(s, k))
            assert np.allclose(mean, 0.0, atol=1e-9)
            assert np.allclose(var, s.sigma_sq[k], atol=1e-9)
            a = rng.normal(0, math.sqrt(s.sigma_sq[k]), 2)
            nu, rho_sq, b = posterior_moments(nu, rho_sq, b, a, *step_vars(s, k))

    def test_marginalization_recovers_q(self):
        # Ancestral chain samples are distributed as q.
        rng = np.random.default_rng(4)
        q = uni(1.3, 0.6)
        s = schedule_from_steps(3, 3.0, 0.2)
        n = 100_000
        nu = np.full(n, q.mean[0])
        rho_sq = np.full(n, q.var[0])
        b = np.zeros(n)
        for k in range(s.K):
            mean, var = target_moments(nu, rho_sq, b, *step_vars(s, k))
            a = rng.normal(mean, np.sqrt(var))
            nu, rho_sq, b = posterior_moments(nu, rho_sq, b, a, *step_vars(s, k))
        se_mean = q.std[0] / math.sqrt(n)
        assert abs(b.mean() - q.mean[0]) <= 3 * se_mean
        se_var = q.var[0] * math.sqrt(2.0 / n)
        assert abs(b.var() - q.var[0]) <= 3 * se_var

    def test_telescoping_log_weight_identity(self):
        # Cumulative step log-weights equal the final log q(z)/p(z) exactly.
        rng = np.random.default_rng(9)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            q = DiagGaussian(rng.normal(size=d), rng.uniform(0.3, 1.5, size=d))
            s = schedule_from_steps(int(rng.integers(1, 7)), 3.0, 0.2)
            nu, rho_sq, b = start(q)
            cum = 0.0
            for k in range(s.K):
                mean, var = target_moments(nu, rho_sq, b, *step_vars(s, k))
                t = DiagGaussian(mean, np.sqrt(var))
                a = rng.normal(t.mean, t.std)
                step_prior = DiagGaussian(
                    np.zeros(d), np.full(d, math.sqrt(float(s.sigma_sq[k])))
                )
                cum += log_density(t, a) - log_density(step_prior, a)
                nu, rho_sq, b = posterior_moments(nu, rho_sq, b, a, *step_vars(s, k))
            final = log_density_ratio(q, DiagGaussian.standard(d), b)
            assert cum == pytest.approx(final, abs=1e-9)


class TestKLProfile:
    def test_prior_target_all_zero(self):
        s = schedule_from_steps(4, 3.0, 0.2)
        profile = chain_kl_profile(DiagGaussian.standard(2), s)
        assert np.allclose(profile, 0.0, atol=1e-12)

    def test_sums_to_total_kl(self):
        q = uni(3.0, math.sqrt(0.1))
        kl = kl_divergence(q, DiagGaussian.standard(1))
        assert kl == pytest.approx(5.2013, abs=1e-4)
        s = build_schedule(kl, 3.0, 0.2)
        assert check_chain_rule([(q, s)]).passed
