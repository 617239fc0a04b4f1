"""Auxiliary-variable decomposition of a whitened latent: z = sum_k a_k.

Two step-variance schedules exist (FORMAT.md §5):

* container version 1, power law: with remaining variance r (starting at
  1), step k of K takes r * (K + 1 - k)^-0.79, and the last step absorbs
  the rest.
* versions 2 to 5, equal KL: built from K, omega and the target's posterior variances
  s_j^2. If the target's KL is K * omega, the first steps of total variance
  t carry C(t) = (t * (2 K omega + sum ln s_j^2)
  - sum log1p(t (s_j^2 - 1))) / 2 nats in expectation. The cumulative
  variance after step k solves C(t_k) = k * omega by bisection, so every
  step carries omega nats; the last step takes the remaining variance.

The block rules of schedules and containers live here: check_steps caps K at
K_MAX, and check_code checks a code. Schedules are cached per (variances, K,
omega, epsilon), and each carries its step constants (AuxSchedule.steps), which
the encoder, the decoder and the oracles read rather than derive again. The
step target (target_moments), the step prior given z (conditional_prior) and
the posterior update (posterior_moments) are the closed-form Gaussian-sum
conditionals; they are univariate formulas applied elementwise to each latent
dimension, on arrays with any batched leading axes. Per step the encoder calls
only their beam parts, target_mean and posterior_mean (its tables hold the rest).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, UsageError
from .gauss import STD_FLOOR, DiagGaussian
from .stream import check_int

POWER_LAW_EXPONENT = -0.79
EQUAL_KL_ITERATIONS = 64
# The step cap of FORMAT.md §5. An equal-KL schedule of K steps costs about
# K * 64 * L log1p calls, so the cap bounds the work one block can ask for.
K_MAX = 4096

_VAR_FLOOR = STD_FLOOR * STD_FLOOR
_MAX_INDEX = 1 << 32


@functools.lru_cache(maxsize=64)  # every header and schedule asks, with a few pairs
def samples_per_step(omega: float, epsilon: float) -> int:
    """Number of shared draws per step, ceil(exp(omega * (1 + epsilon)))."""
    # Negated comparisons so that NaN fails them too.
    if not omega > 0:
        raise UsageError("omega must be positive")
    if not epsilon >= 0:
        raise UsageError("epsilon must be nonnegative")
    exponent = omega * (1.0 + epsilon)
    if exponent > math.log(_MAX_INDEX):
        raise ConfigError("samples per step exceeds index width (2^32)")
    m = math.ceil(math.exp(exponent))
    if m < 2:
        # A single-candidate step carries no information and would make the
        # packed index width zero, which breaks payload bounds downstream.
        raise ConfigError("omega too small: need at least 2 samples per step")
    if m > _MAX_INDEX:
        raise ConfigError(f"samples per step {m} exceeds index width (2^32)")
    return m


def check_steps(k: int, error) -> None:
    """The step-count rule of every block: 1 <= K <= K_MAX, else error."""
    if k < 1:
        raise error("block step count must be >= 1")
    if k > K_MAX:
        raise error(f"block step count {k} exceeds K_MAX = {K_MAX}")


def check_code(code, m: int, error) -> tuple[int, ...]:
    """A code as a tuple of 1..K_MAX ints in [0, m); a non-integer index is a UsageError."""
    try:
        code = tuple(map(operator.index, code))
    except TypeError as exc:
        raise UsageError(f"block indices must be integers: {exc}") from None
    check_steps(len(code), error)
    if not 0 <= min(code) <= max(code) < m:
        raise error(f"index {min(code) if min(code) < 0 else max(code)} overflows radix {m}")
    return code


@dataclass(frozen=True)
class AuxSchedule:
    """Per-step variances and sampling parameters for one coded block.

    K (the number of step variances), M = samples_per_step(omega, epsilon) and
    steps are derived. steps, read-only (4, K): column k is sigma_k, sigma_k^2
    and the tail variances before and after step k (exactly 1 and 0 at the ends).
    """

    sigma_sq: np.ndarray
    omega: float
    epsilon: float
    K: int = field(init=False)
    M: int = field(init=False)

    def __post_init__(self):
        sigma_sq = np.asarray(self.sigma_sq, dtype=np.float64)
        sigma_sq.setflags(write=False)
        object.__setattr__(self, "sigma_sq", sigma_sq)
        object.__setattr__(self, "K", sigma_sq.size)
        object.__setattr__(self, "M", samples_per_step(self.omega, self.epsilon))
        if sigma_sq.ndim != 1 or np.any(sigma_sq <= 0):
            raise UsageError("step variances must be a vector of positive values")
        if abs(float(sigma_sq.sum()) - 1.0) > 1e-12:
            raise UsageError("step variances must sum to 1")
        steps = np.zeros((4, self.K))
        steps[0], steps[1], steps[2, 0] = np.sqrt(sigma_sq), sigma_sq, 1.0
        steps[2, 1:] = steps[3, :-1] = np.cumsum(sigma_sq[::-1])[::-1][1:]
        steps.setflags(write=False)
        object.__setattr__(self, "steps", steps)


def _power_law(K: int) -> np.ndarray:
    sigma_sq = np.empty(K)
    remaining = 1.0
    for k in range(1, K + 1):
        ratio = float(K + 1 - k) ** POWER_LAW_EXPONENT
        take = remaining if k == K else remaining * ratio
        sigma_sq[k - 1] = take
        remaining -= take
    return sigma_sq


def _equal_kl(K: int, omega: float, s_sq: list[float]) -> np.ndarray:
    """Step variances that give each step omega nats (FORMAT.md §5, v2).

    Scalar binary64 arithmetic in the order the format fixes: sums run over
    the dimensions in index order.
    """
    slope = 0.0
    for v in s_sq:
        slope += math.log(v)
    slope = 2 * K * omega + slope

    def cumulative_kl(t: float) -> float:
        logs = 0.0
        for v in s_sq:
            logs += math.log1p(t * (v - 1.0))
        return 0.5 * (t * slope - logs)

    # C is convex with C(0) = 0 < goal < C(1) = K * omega, so the set
    # {t : C(t) < goal} is an interval that starts at 0, and bisection on
    # [0, 1] converges to its end.
    bounds = [0.0]
    for k in range(1, K):
        goal = k * omega
        lo, hi = 0.0, 1.0
        for _ in range(EQUAL_KL_ITERATIONS):
            mid = 0.5 * (lo + hi)
            if cumulative_kl(mid) < goal:
                lo = mid
            else:
                hi = mid
        bounds.append(hi)
    bounds.append(1.0)
    return np.diff(bounds)


@functools.lru_cache(maxsize=1024)
def _cached_schedule(K: int, omega: float, epsilon: float, variances: bytes | None):
    if variances is None:
        sigma_sq = _power_law(K)
    else:
        s_sq = np.maximum(np.frombuffer(variances), _VAR_FLOOR).tolist()
        sigma_sq = _equal_kl(K, omega, s_sq)
    return AuxSchedule(sigma_sq, omega, epsilon)


def schedule_from_steps(
    K: int, omega: float, epsilon: float, variances=None
) -> AuxSchedule:
    """Build the variance schedule for a known step count (decoder side).

    Without variances this is the v1 power-law schedule. With the target's
    posterior variances it is the v2 equal-KL schedule. K > K_MAX, or a bad
    omega or epsilon, raises before any schedule work.
    """
    K = check_int("K", K, 1)
    check_steps(K, ConfigError)
    samples_per_step(omega, epsilon)
    key = None
    if variances is not None:
        variances = np.asarray(variances, dtype=np.float64)
        if variances.ndim != 1 or variances.size < 1:
            raise UsageError("variances must be a nonempty vector")
        if not np.all(np.isfinite(variances) & (variances >= 0)):
            raise UsageError("variances must be finite and nonnegative")
        key = variances.tobytes()
    return _cached_schedule(K, omega, epsilon, key)


def build_schedule(
    total_kl: float, omega: float, epsilon: float, variances=None
) -> AuxSchedule:
    """Schedule for a target with the given total KL to the whitened prior.

    K = max(1, ceil(total_kl / omega)); see schedule_from_steps for the
    meaning of variances.
    """
    if total_kl < 0 or not math.isfinite(total_kl):
        raise UsageError("total_kl must be finite and nonnegative")
    samples_per_step(omega, epsilon)  # before omega divides
    k = max(1, math.ceil(total_kl / omega))
    return schedule_from_steps(k, omega, epsilon, variances)


def target_mean(nu, b, scale):
    """The beam part of target_moments."""
    return (nu - b) * scale


def target_moments(nu, rho_sq, b, sig_sq: float, s_prev_sq: float, s_next_sq: float):
    """Mean/variance of the conditional step target q(a_k | a_1:k-1).

    Elementwise over trailing dimensions; batched leading axes allowed.
    """
    scale = sig_sq / s_prev_sq
    var = s_next_sq * scale + rho_sq * scale * scale
    return target_mean(nu, b, scale), np.maximum(var, _VAR_FLOOR)


def posterior_denom(rho_sq, sig_sq: float, s_prev_sq: float, s_next_sq: float):
    """The schedule-only part of posterior_moments, the divisor of its updates."""
    return np.maximum(sig_sq * rho_sq + s_prev_sq * s_next_sq, 1e-300)


def posterior_mean(nu, rho_sq, b, a, denom, sig_sq: float, s_prev_sq: float, s_next_sq: float):
    """The beam part of posterior_moments: the new (nu, b)."""
    nu_new = a * rho_sq * s_prev_sq + b * sig_sq * rho_sq + nu * s_next_sq * s_prev_sq
    return nu_new / denom, b + a


def posterior_moments(nu, rho_sq, b, a, sig_sq: float, s_prev_sq: float, s_next_sq: float):
    """Updated (nu, rho_sq, b) after observing step value a."""
    denom = posterior_denom(rho_sq, sig_sq, s_prev_sq, s_next_sq)
    nu_new, b_new = posterior_mean(nu, rho_sq, b, a, denom, sig_sq, s_prev_sq, s_next_sq)
    return nu_new, rho_sq * s_prev_sq * s_next_sq / denom, b_new


def conditional_prior(z, b, sig_sq: float, s_prev_sq: float, s_next_sq: float):
    """Mean/variance of the step prior p(a_k | z, a_1:k-1).

    Given the full latent z and the partial sum b, a_k is the sigma_k^2 share
    of the remaining gap z - b. Elementwise; batched leading axes allowed.
    """
    mean = (z - b) * (sig_sq / s_prev_sq)
    return mean, np.maximum(s_next_sq * sig_sq / s_prev_sq, _VAR_FLOOR)


def chain_kl_profile(q: DiagGaussian, schedule: AuxSchedule) -> np.ndarray:
    """Exact per-step expected KL of the conditional targets to N(0, sigma_k^2).

    Across chains the gap e = nu - b is Gaussian per dimension and the kernels
    are linear in (e, a), with rho_sq free of both. So three rows pushed
    through them (the mean of e, its SD, the step's SD) carry e's mean and
    variance exactly. The result sums to KL(q || standard normal).
    """
    zero = np.zeros(q.dim)
    e = np.stack([q.mean, zero, zero])
    rho_sq = np.broadcast_to(q.var, e.shape)
    profile = np.empty(schedule.K)
    for k, step in enumerate(schedule.steps[1:].T.tolist()):
        sig_sq = step[0]
        mean, var = target_moments(e, rho_sq, 0.0, *step)
        ratio = var[0] / sig_sq
        mean_sq = mean[0] * mean[0] + mean[1] * mean[1]
        profile[k] = 0.5 * float(np.sum(ratio + mean_sq / sig_sq - 1.0 - np.log(ratio)))
        a = np.stack([mean[0], mean[1], np.sqrt(var[0])])
        nu, rho_sq, b = posterior_moments(e, rho_sq, 0.0, a, *step)
        gap = nu - b
        e = np.stack([gap[0], np.hypot(gap[1], gap[2]), zero])
    return profile
