"""Synthetic benchmark targets and the validation/study harness.

The benchmark target generator draws means ~ N(0, (0.5 * scale)^2) and
log-stds ~ U[-1, 0], then bisects on the mean scale until the total KL to the
standard normal hits the requested value, so study numbers are reproducible
from a seed alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import codec, container, stream
from .chain import build_schedule, chain_kl_profile, samples_per_step
from .codec import RecConfig
from .errors import ConfigError, IrecError, UsageError
from .gauss import DiagGaussian, kl_divergence

_LN2 = math.log(2.0)


def synthetic_target(dims: int, total_kl: float, rng: np.random.Generator) -> DiagGaussian:
    """Random whitened target with an exact analytic KL to N(0, I)."""
    if total_kl <= 0:
        raise UsageError("total_kl must be positive")
    unit_mean = rng.normal(size=dims)
    std = np.exp(rng.uniform(-1.0, 0.0, size=dims))
    var = std * std
    base = 0.5 * float(np.sum(var - 1.0 - np.log(var)))
    if base >= total_kl:
        raise UsageError(
            f"requested KL {total_kl} below the variance-only floor {base:.3f}"
        )

    def kl_at(scale: float) -> float:
        mean = 0.5 * scale * unit_mean
        return base + 0.5 * float(np.sum(mean * mean))

    lo, hi = 0.0, 1.0
    while kl_at(hi) < total_kl:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kl_at(mid) < total_kl:
            lo = mid
        else:
            hi = mid
    return DiagGaussian(0.5 * hi * unit_mean, std)


@dataclass
class BiasRow:
    beams: int
    mean_log_ratio: float
    stderr: float
    kl: float


def bias_study(
    beam_list,
    kl_target: float,
    dims: int,
    trials: int,
    seed: int,
    omega: float = 3.0,
    epsilon: float = 0.2,
) -> list[BiasRow]:
    """Mean final log q(z)/p(z) per beam count over a fixed problem set."""
    if trials < 30:
        raise UsageError("trials must be >= 30")
    rng = np.random.default_rng(seed)
    problems = [
        (synthetic_target(dims, kl_target, rng), int(rng.integers(0, 2**63)))
        for _ in range(trials)
    ]
    rows = []
    for beams in beam_list:
        cfg = RecConfig(omega=omega, epsilon=epsilon, beams=beams)
        ratios = np.empty(trials)
        for t, (q, s) in enumerate(problems):
            schedule = build_schedule(kl_target, omega, epsilon, q.var)
            _, _, ratios[t] = codec.encode(q, schedule, cfg, s, block=0)
        rows.append(
            BiasRow(
                beams=beams,
                mean_log_ratio=float(ratios.mean()),
                stderr=float(ratios.std(ddof=1) / math.sqrt(trials)),
                kl=kl_target,
            )
        )
    return rows


@dataclass
class SweepCell:
    omega: float
    epsilon: float
    beams: int
    overhead_ratio: float
    seconds: float
    failures: int


def sweep(
    omega_grid,
    epsilon_grid,
    beam_grid,
    trials: int,
    kl_target: float = 30.0,
    dims: int = 16,
    seed: int = 0,
) -> list[SweepCell]:
    """Grid study of codelength overhead vs the ideal KL bits.

    Overhead per trial is (index bits + varint bits + bias penalty) / ideal
    bits, where the bias penalty max(0, KL - log q(z)/p(z)) / ln 2 charges the
    information the selected sample failed to carry (it reappears as residual
    cost in a full pipeline). Configuration rejections count as failures.
    """
    if trials < 30:
        raise UsageError("trials must be >= 30")
    if not (omega_grid and epsilon_grid and beam_grid):
        raise UsageError("grids must be nonempty")
    cells = []
    for omega in omega_grid:
        for epsilon in epsilon_grid:
            for beams in beam_grid:
                rng = np.random.default_rng(seed)
                problems = [
                    (synthetic_target(dims, kl_target, rng), int(rng.integers(0, 2**63)))
                    for _ in range(trials)
                ]
                t0 = time.perf_counter()
                failures = 0
                overheads = []
                try:
                    cfg = RecConfig(omega=omega, epsilon=epsilon, beams=beams)
                    ideal = kl_target / _LN2
                    for q, s in problems:
                        schedule = build_schedule(kl_target, omega, epsilon, q.var)
                        _, _, ratio = codec.encode(q, schedule, cfg, s, block=0)
                        bits = (
                            container.index_bits(schedule.K, schedule.M)
                            + 8 * len(container.write_varint(schedule.K))
                            + max(0.0, kl_target - ratio) / _LN2
                        )
                        overheads.append(bits / ideal)
                except ConfigError:
                    failures += 1
                cells.append(
                    SweepCell(
                        omega=omega,
                        epsilon=epsilon,
                        beams=beams,
                        overhead_ratio=float(np.mean(overheads)) if overheads else math.nan,
                        seconds=time.perf_counter() - t0,
                        failures=failures,
                    )
                )
    return cells


def ks_statistic(a, b) -> float:
    """Exact two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|.

    Both empirical CDFs are evaluated at every pooled sample, where the
    supremum is attained; tied samples step both CDFs together.
    """
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def stochastic_fidelity_ks(
    n_seeds: int = 10_000,
    mean: float = 0.5,
    std: float = 0.8,
    omega: float = 3.0,
    seed: int = 1,
) -> float:
    """KS distance between stochastically decoded samples and direct q draws."""
    q = DiagGaussian(np.array([mean]), np.array([std]))
    kl = kl_divergence(q, DiagGaussian.standard(1))
    cfg = RecConfig(omega=omega, epsilon=0.0, beams=1, stochastic_final=True)
    schedule = build_schedule(kl, omega, 0.0, q.var)
    decoded = np.empty(n_seeds)
    for i in range(n_seeds):
        _, z, _ = codec.encode(q, schedule, cfg, seed=seed + i, block=0)
        decoded[i] = z[0]
    rng = np.random.default_rng(seed)
    direct = rng.normal(mean, std, size=n_seeds)
    return ks_statistic(decoded, direct)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_chain_rule(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for dims, kl in [(1, 5.0), (16, 30.0)]:
        q = synthetic_target(dims, kl, rng)
        schedule = build_schedule(kl, 3.0, 0.2, q.var)
        profile = chain_kl_profile(q, schedule, trials=100_000, seed=seed)
        rel = abs(float(profile.sum()) - kl) / kl
        worst = max(worst, rel)
    return CheckResult(
        "chain-rule-identity", worst <= 0.02, f"worst relative error {worst:.4f}"
    )


def _check_target_moments(seed: int) -> CheckResult:
    # MC oracle: a_k sampled via the conditional prior with z ~ q(z | a_1:k-1)
    # must match the closed-form step target moments.
    from . import chain as chain_mod

    rng = np.random.default_rng(seed)
    n = 100_000
    worst = 0.0
    for _ in range(10):
        q = synthetic_target(4, 12.0, rng)
        schedule = build_schedule(12.0, 3.0, 0.2, q.var)
        state = chain_mod.ChainState.initial(q)
        steps = int(rng.integers(0, schedule.K - 1))
        for _ in range(steps):
            t = chain_mod.aux_target(state, schedule)
            state = chain_mod.posterior_update(state, schedule, rng.normal(t.mean, t.std))
        target = chain_mod.aux_target(state, schedule)
        z = rng.normal(state.nu, np.sqrt(state.rho_sq), size=(n, q.dim))
        tails = schedule.tail_var()
        sig_sq = float(schedule.sigma_sq[state.k])
        s_prev, s_next = float(tails[state.k]), float(tails[state.k + 1])
        cond_mean = (z - state.b) * (sig_sq / s_prev)
        cond_std = math.sqrt(max(s_next * sig_sq / s_prev, 1e-12))
        a_samples = rng.normal(cond_mean, cond_std)
        se_mean = target.std / math.sqrt(n)
        dev = np.abs(a_samples.mean(axis=0) - target.mean) / se_mean
        worst = max(worst, float(dev.max()))
    return CheckResult(
        "aux-target-moments", worst <= 3.0, f"worst mean deviation {worst:.2f} SE"
    )


def _check_ks(seed: int) -> CheckResult:
    d = stochastic_fidelity_ks(n_seeds=10_000, seed=seed)
    return CheckResult("stochastic-ks", d <= 0.05, f"KS distance {d:.4f}")


def _check_step_kl(seed: int, csv_path=None) -> CheckResult:
    rng = np.random.default_rng(seed)
    omega, epsilon = 3.0, 0.2
    runs = []
    for _ in range(20):
        q = synthetic_target(16, 30.0, rng)
        schedule = build_schedule(30.0, omega, epsilon, q.var)
        runs.append(chain_kl_profile(q, schedule, trials=2_000, seed=int(rng.integers(2**31))))
    profiles = np.mean(runs, axis=0)
    if csv_path is not None:
        with open(csv_path, "w") as fh:
            fh.write("step,mean_kl_nats,omega\n")
            for k, v in enumerate(profiles):
                fh.write(f"{k},{v:.6f},{omega}\n")
    frac = float(np.mean(profiles <= omega * (1.0 + epsilon)))
    return CheckResult(
        "per-step-kl", frac >= 0.8, f"{frac:.0%} of steps at or below omega*(1+eps)"
    )


def _check_determinism(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    q = synthetic_target(8, 12.0, rng)
    schedule = build_schedule(12.0, 3.0, 0.2, q.var)
    cfg = RecConfig(omega=3.0, epsilon=0.2, beams=5)
    first = codec.encode(q, schedule, cfg, seed=7, block=3)
    second = codec.encode(q, schedule, cfg, seed=7, block=3)
    same = first[0] == second[0] and np.array_equal(first[1], second[1])
    return CheckResult("encode-determinism", bool(same), "repeat encode identical")


def run_validation(seed: int = 0, csv_path=None) -> list[CheckResult]:
    """The full oracle suite behind the validate command."""
    return [
        _check_chain_rule(seed),
        _check_target_moments(seed),
        _check_ks(seed),
        _check_step_kl(seed, csv_path=csv_path),
        _check_determinism(seed),
    ]
