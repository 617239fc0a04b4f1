"""Synthetic benchmark targets and the validation/study harness.

The benchmark target generator draws means ~ N(0, (0.5 * scale)^2) and
log-stds ~ U[-1, 0], then bisects on the mean scale until the total KL to the
standard normal hits the requested value, so study numbers are reproducible
from a seed alone; every study draws its problems with problem_set.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import chain, codec, container
from .chain import build_schedule
from .codec import RecConfig
from .errors import ConfigError, UsageError
from .gauss import DiagGaussian, kl_divergence
from .stream import check_int

_LN2 = math.log(2.0)


def synthetic_target(dims: int, total_kl: float, rng: np.random.Generator) -> DiagGaussian:
    """Random whitened target with an exact analytic KL to N(0, I)."""
    dims = check_int("dims", dims, 1)
    if not 0 < total_kl < math.inf:  # NaN too
        raise UsageError(f"total_kl must be positive and finite, got {total_kl}")
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


def _seed_rng(seed: int) -> np.random.Generator:
    """The generator of a study seed, a nonnegative integer (check_int)."""
    return np.random.default_rng(check_int("seed", seed))


def problem_set(dims: int, kl: float, trials: int, seed: int) -> list[tuple[DiagGaussian, int]]:
    """The studies' problems: `trials` (target, encoder seed) pairs from seed."""
    trials = check_int("trials", trials, 30)
    rng = _seed_rng(seed)
    return [
        (synthetic_target(dims, kl, rng), int(rng.integers(0, 2**63)))
        for _ in range(trials)
    ]


def log_ratios(problems, kl: float, cfg: RecConfig) -> np.ndarray:
    """Final log q(z)/p(z) of each problem, encoded as block 0 under its own
    seed with the equal-KL schedule of its own variances, as the pipeline
    schedules a block."""
    qs, seeds = zip(*problems)
    schedules = [build_schedule(kl, cfg.omega, cfg.epsilon, q.var) for q in qs]
    mean, std = np.array([q.mean for q in qs]), np.array([q.std for q in qs])
    return codec.encode_blocks(mean, std, schedules, cfg, seeds, [0] * len(qs))[2]


@dataclass
class BiasRow:
    beams: int
    mean_log_ratio: float
    stderr: float
    kl: float


def bias_study(
    beam_list, kl_target: float, dims: int, trials: int, seed: int
) -> list[BiasRow]:
    """Mean final log q(z)/p(z) per beam count over a fixed problem set.

    Runs at the published omega = 3 and epsilon = 0.2 (RecConfig's defaults).
    """
    problems = problem_set(dims, kl_target, trials, seed)
    rows = []
    for beams in beam_list:
        ratios = log_ratios(problems, kl_target, RecConfig(beams=beams))
        stderr = float(ratios.std(ddof=1) / math.sqrt(trials))
        rows.append(BiasRow(beams, float(ratios.mean()), stderr, kl_target))
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

    Overhead per trial is (index bits + K-field bits + bias penalty) / ideal
    bits, where the bias penalty max(0, KL - log q(z)/p(z)) / ln 2 charges the
    information the selected sample failed to carry (it reappears as residual
    cost in a full pipeline). Configuration rejections count as failures.
    """
    if not (omega_grid and epsilon_grid and beam_grid):
        raise UsageError("grids must be nonempty")
    for name, value in [("omega", v) for v in omega_grid] + [("epsilon", v) for v in epsilon_grid]:
        container.thousandths(name, value)  # the values a container can hold
    problems = problem_set(dims, kl_target, trials, seed)
    ideal = kl_target / _LN2
    cells = []
    for omega, epsilon, beams in itertools.product(omega_grid, epsilon_grid, beam_grid):
        t0 = time.perf_counter()
        overhead, failures = math.nan, 0
        try:
            cfg = RecConfig(omega=omega, epsilon=epsilon, beams=beams)
            ratios = log_ratios(problems, kl_target, cfg)
            # K and M do not depend on the variances, so every problem is a block
            # of one container with one K: its K field takes 0 bits.
            schedule = build_schedule(kl_target, omega, epsilon)
            framing = container.index_bits(schedule.K, schedule.M)
            bits = framing + np.maximum(0.0, kl_target - ratios) / _LN2
            overhead = float(np.mean(bits / ideal))
        except ConfigError:
            failures = 1
        cells.append(
            SweepCell(
                omega=omega,
                epsilon=epsilon,
                beams=beams,
                overhead_ratio=overhead,
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


# Bounds of the oracles behind `irec validate`; acceptance criteria 4-7 run
# the same checks, so they hold the same bounds. The chain-rule and moment
# checks are closed form, so their bound is rounding error.
IDENTITY_BOUND = 1e-9  # relative error of a closed-form identity
STEP_KL_SHARE = 0.8  # least share of steps whose mean KL fits omega(1 + eps)
KS_BOUND = 0.05  # two-sample KS distance


@dataclass(frozen=True)
class CheckResult:
    """One oracle's outcome: the measured value against its bound."""

    name: str
    value: float
    bound: float
    passed: bool
    detail: str  # the value next to the bound, for a report line


def check_chain_rule(problems) -> CheckResult:
    """The per-step KLs sum to KL(q || N(0, I)): worst relative error.

    problems holds (q, schedule) pairs.
    """
    worst = 0.0
    for q, schedule in problems:
        kl = kl_divergence(q, DiagGaussian.standard(q.dim))
        worst = max(worst, abs(float(chain.chain_kl_profile(q, schedule).sum()) - kl) / kl)
    detail = f"worst relative error {worst:.1e}, bound <= {IDENTITY_BOUND:g}"
    passed = worst <= IDENTITY_BOUND
    return CheckResult("chain-rule-identity", worst, IDENTITY_BOUND, passed, detail)


def check_target_moments(rng, draw_problem, configs: int) -> CheckResult:
    """The closed-form step target is the marginal of the conditional prior.

    For each of `configs` problems, draw_problem(rng) gives (q, schedule, k).
    The check walks k steps with the encoder's kernels, each a_j drawn from
    its step target, leaving z ~ N(nu, rho_sq). The conditional prior is
    affine in z, so the law of total variance at z = nu +- sqrt(rho_sq) gives
    its marginal exactly. The value is the worst deviation from
    target_moments: of the mean in target SDs, of the variance relative.
    """
    worst_mean = worst_var = 0.0
    for _ in range(configs):
        q, schedule, steps = draw_problem(rng)
        nu, rho_sq, b = q.mean, q.var, np.zeros(q.dim)
        for k in range(steps + 1):
            step = schedule.steps[1:, k].tolist()
            mean, var = chain.target_moments(nu, rho_sq, b, *step)
            if k < steps:
                a = rng.normal(mean, np.sqrt(var))
                nu, rho_sq, b = chain.posterior_moments(nu, rho_sq, b, a, *step)
        sd = np.sqrt(rho_sq)
        hi, prior_var = chain.conditional_prior(nu + sd, b, *step)
        lo, _ = chain.conditional_prior(nu - sd, b, *step)
        half = 0.5 * (hi - lo)
        marginal_mean, marginal_var = 0.5 * (hi + lo), prior_var + half * half
        worst_mean = max(worst_mean, float(np.max(np.abs(marginal_mean - mean) / np.sqrt(var))))
        worst_var = max(worst_var, float(np.max(np.abs(marginal_var - var) / var)))
    worst = max(worst_mean, worst_var)
    detail = (
        f"worst mean dev {worst_mean:.1e} SD, var dev {worst_var:.1e} relative, "
        f"bound <= {IDENTITY_BOUND:g}"
    )
    passed = worst <= IDENTITY_BOUND
    return CheckResult("aux-target-moments", worst, IDENTITY_BOUND, passed, detail)


def check_step_kl(problems, csv_path=None) -> CheckResult:
    """Share of steps whose mean KL fits the budget omega * (1 + epsilon).

    problems holds (q, schedule) pairs whose schedules share K, omega and
    epsilon; their exact per-step profiles are averaged and, given csv_path,
    written as CSV.
    """
    schedule = problems[0][1]
    budget = schedule.omega * (1.0 + schedule.epsilon)
    mean_kl = np.mean([chain.chain_kl_profile(q, s) for q, s in problems], axis=0)
    if csv_path is not None:
        with open(csv_path, "w") as fh:
            fh.write("step,mean_kl_nats,omega\n")
            for k, v in enumerate(mean_kl):
                fh.write(f"{k},{v:.6f},{schedule.omega}\n")
    share = float(np.mean(mean_kl <= budget))
    detail = (
        f"mean step KLs {mean_kl.min():.3f}-{mean_kl.max():.3f} nats, {share:.0%} of "
        f"steps at or below omega*(1+eps) = {budget:g}, bound >= {STEP_KL_SHARE:.0%}"
    )
    return CheckResult("per-step-kl", share, STEP_KL_SHARE, share >= STEP_KL_SHARE, detail)


def check_stochastic_ks(q: DiagGaussian, samples: int, seed: int) -> CheckResult:
    """Stochastic decoding samples q: KS distance of decodes to direct draws.

    Encodes the one-dimensional q with seeds seed .. seed + samples - 1
    (omega 3, epsilon 0, one beam, stochastic final step) and compares the
    decoded values with as many draws from q seeded by seed.
    """
    kl = kl_divergence(q, DiagGaussian.standard(1))
    cfg = RecConfig(omega=3.0, epsilon=0.0, beams=1, stochastic_final=True)
    schedule = build_schedule(kl, 3.0, 0.0, q.var)
    samples = check_int("samples", samples, 1)
    seed = check_int("seed", seed, 0, 2**64 - samples)  # seeds seed .. seed + samples - 1 are u64
    seeds = np.array(range(seed, seed + samples), dtype=np.uint64)
    decoded = codec.encode_blocks(
        np.tile(q.mean, (samples, 1)), q.std, [schedule] * samples, cfg, seeds, [0] * samples
    )[1][:, 0]
    direct = _seed_rng(seed).normal(q.mean[0], q.std[0], size=samples)
    d = ks_statistic(decoded, direct)
    detail = f"KS distance {d:.4f}, bound <= {KS_BOUND}"
    return CheckResult("stochastic-ks", d, KS_BOUND, d <= KS_BOUND, detail)


def _check_determinism(seed: int) -> CheckResult:
    q = synthetic_target(8, 12.0, _seed_rng(seed))
    schedule = build_schedule(12.0, 3.0, 0.2, q.var)
    cfg = RecConfig(omega=3.0, epsilon=0.2, beams=5)
    twice = np.stack([q.mean] * 2)
    indices, zs, _ = codec.encode_blocks(twice, q.std, [schedule] * 2, cfg, 7, [3, 3])
    differ = int(not (indices[0] == indices[1] and np.array_equal(zs[0], zs[1])))
    detail = f"{differ} of 1 repeat encodes differ, bound <= 0"
    return CheckResult("encode-determinism", differ, 0, differ == 0, detail)


def _problem(dims: int, kl: float, rng):
    q = synthetic_target(dims, kl, rng)
    return q, build_schedule(kl, 3.0, 0.2, q.var)


def moment_problem(rng):
    """run_validation's moment-check draw: (q, schedule, k) for a 4-dim,
    12-nat target and a step k before the last."""
    q, schedule = _problem(4, 12.0, rng)
    return q, schedule, int(rng.integers(0, schedule.K - 1))


def run_validation(seed: int = 0, csv_path=None) -> list[CheckResult]:
    """The full oracle suite behind the validate command."""
    rng = _seed_rng(seed)
    chain_rule = [_problem(dims, kl, rng) for dims, kl in [(1, 5.0), (16, 30.0)]]
    rng = _seed_rng(seed)
    step_kl = [_problem(16, 30.0, rng) for _ in range(20)]
    return [
        check_chain_rule(chain_rule),
        check_target_moments(_seed_rng(seed), moment_problem, 10),
        check_stochastic_ks(DiagGaussian(np.array([0.5]), np.array([0.8])), 10_000, seed),
        check_step_kl(step_kl, csv_path=csv_path),
        _check_determinism(seed),
    ]
