"""Index-coding encoder and decoder over the shared sample stream.

The encoder runs a beam search over the per-step shared draws: at step k it
scores every (beam, sample) pair by the cumulative log importance weight
sum_j log q(a_j | a_1:j-1) / p(a_j) and keeps the top B. Ties are broken
toward the lexicographically smallest index tuple, which keeps the output
independent of evaluation order; the B best are found in linear time
(top_b), not by sorting. Blocks that share a schedule run each step together,
as one array operation over a block axis; a block's code is the same as when
it is encoded alone. The decoder only replays the chosen draws and never sees
the target distribution.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import stream
from .chain import AuxSchedule, posterior_moments, samples_per_step, target_moments
from .errors import ConfigError, CorruptStreamError, NumericError, UsageError
from .gauss import DiagGaussian

# Candidate arrays are B x M x D floats per step; reject configs beyond this.
MAX_CANDIDATE_FLOATS = 1 << 24
# Blocks encoded together score G x B x M x D candidate floats per step, in
# one buffer that is reused for every step and chunk; G is the largest count
# whose buffer fits this many floats, and at least 1.
MAX_CHUNK_FLOATS = 1 << 17


@dataclass(frozen=True)
class RecConfig:
    """Encoder knobs. Only omega and epsilon affect the wire format."""

    omega: float = 3.0
    epsilon: float = 0.2
    beams: int = 20
    stochastic_final: bool = False

    def __post_init__(self):
        if self.beams < 1:
            raise UsageError("beams must be >= 1")
        if self.stochastic_final and self.beams != 1:
            raise UsageError("stochastic_final needs a single beam")
        samples_per_step(self.omega, self.epsilon)  # validates omega/epsilon/M


def importance_select(weights: np.ndarray, u: float) -> int:
    """Pick a sample index with probability proportional to its weight.

    The caller supplies the uniform u in [0, 1), so selection stays
    reproducible; an index of zero weight is never returned.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.size == 0 or np.any(np.isnan(weights)) or np.any(weights < 0):
        raise NumericError("weights must be nonnegative and NaN-free")
    total = float(weights.sum())
    if total <= 0 or not np.isfinite(total):
        raise NumericError("weights sum to zero or overflow")
    if not 0.0 <= u < 1.0:
        raise UsageError("u must lie in [0, 1)")
    cdf = np.cumsum(weights)
    pick = int(np.searchsorted(cdf, u * total, side="right"))
    # u * total (a pairwise sum) can reach past cdf[-1] (a running sum);
    # such a draw belongs to the last index with any weight.
    return min(pick, int(np.flatnonzero(weights)[-1]))


def top_b(scores: np.ndarray, keep: int) -> np.ndarray:
    """Column indices of each row's `keep` best scores, in ascending order.

    Equal to np.sort(np.argsort(-scores, axis=1, kind="stable")[:, :keep]):
    higher scores win, NaN ranks below -inf, and ties (0.0 and -0.0 among
    them) go to the lowest index. Runs in linear time: partition finds each
    row's keep-th best value, every strictly better score is kept, and the
    places left go to the tied scores of lowest index.
    """
    neg = -scores
    kth = np.partition(neg, keep - 1, axis=1)[:, keep - 1 : keep]
    better = neg < kth
    tied = neg == kth
    lost = np.isnan(kth[:, 0])
    if lost.any():  # fewer than keep non-NaN scores: NaNs fill the rest
        nan = np.isnan(neg[lost])
        better[lost] = ~nan
        tied[lost] = nan
    need = keep - np.count_nonzero(better, axis=1)[:, None]
    take = better | (tied & (np.cumsum(tied, axis=1) <= need))
    return np.nonzero(take)[1].reshape(len(scores), keep)


def _check_budget(cfg: RecConfig, schedule: AuxSchedule, dims: int) -> None:
    if cfg.beams * schedule.M * dims > MAX_CANDIDATE_FLOATS:
        raise ConfigError(
            f"candidate volume B*M*D = {cfg.beams * schedule.M * dims} "
            f"exceeds budget {MAX_CANDIDATE_FLOATS}"
        )


def encode(
    q: DiagGaussian,
    schedule: AuxSchedule,
    cfg: RecConfig,
    seed: int,
    block: int,
) -> tuple[tuple[int, ...], np.ndarray, float]:
    """Encode a whitened target; returns (indices, decoded z, log q(z)/p(z)).

    Deterministic in all arguments unless cfg.stochastic_final is set (it
    needs a single beam), in which case each step's index is sampled
    proportionally to its importance weight using a reserved stream address.
    """
    indices, zs, ratios = encode_blocks([q], schedule, cfg, seed, [block])
    return indices[0], zs[0], float(ratios[0])


def encode_blocks(
    qs: Sequence[DiagGaussian],
    schedule: AuxSchedule,
    cfg: RecConfig,
    seed: int,
    blocks: Sequence[int],
) -> tuple[list[tuple[int, ...]], np.ndarray, np.ndarray]:
    """Encode blocks that share one schedule, step by step across blocks.

    Returns (indices per block, decoded z of shape (G, D), log q(z)/p(z) of
    shape (G,)). Block g's outputs are exactly those of encoding it alone:
    blocks run in chunks whose candidates fit one scoring buffer of at most
    MAX_CHUNK_FLOATS floats (one block's B*M*D if that is more), allocated
    here once, and every reduction and selection runs along one block's own
    row.
    """
    if schedule.M != samples_per_step(cfg.omega, cfg.epsilon):
        raise UsageError("schedule and config disagree on samples per step")
    if len(qs) != len(blocks):
        raise UsageError(f"{len(qs)} targets for {len(blocks)} blocks")
    if not qs or len({q.dim for q in qs}) != 1:
        raise UsageError("targets must be nonempty and share one dimension")
    mean = np.array([q.mean for q in qs])
    std = np.array([q.std for q in qs])
    d = mean.shape[1]
    _check_budget(cfg, schedule, d)
    per_block = cfg.beams * schedule.M * d
    chunk = min(len(qs), max(1, MAX_CHUNK_FLOATS // per_block))
    scratch = np.empty(chunk * per_block)
    blocks = np.asarray(blocks)
    indices: list[tuple[int, ...]] = []
    zs, ratios = [], []
    for lo in range(0, len(blocks), chunk):
        part = slice(lo, lo + chunk)
        prefixes, z, ratio = _encode_chunk(
            mean[part], std[part], schedule, cfg, seed, blocks[part], scratch
        )
        indices += [tuple(p) for p in prefixes.tolist()]
        zs.append(z)
        ratios.append(ratio)
    return indices, np.concatenate(zs), np.concatenate(ratios)


def _encode_chunk(mean, std, schedule, cfg, seed, blocks, scratch):
    """Beam search for G blocks at once; beam state has shape (G, beams, D).

    Candidates are scored in place in `scratch`, a flat float64 buffer of at
    least G*B*M*D elements.
    """
    g = len(blocks)
    rows = np.arange(g)[:, None]
    m = schedule.M
    d = mean.shape[1]
    tails = schedule.tail_var()
    # Beam state, kept sorted by lexicographic index prefix within each block.
    nu = mean[:, None, :].copy()
    rho_sq = (std * std)[:, None, :]
    b = np.zeros_like(nu)
    log_w = np.zeros((g, 1))
    prefixes = np.zeros((g, 1, 0), dtype=np.int64)

    for k in range(schedule.K):
        sig_sq = float(schedule.sigma_sq[k])
        s_prev, s_next = float(tails[k]), float(tails[k + 1])
        a = stream.scale_to_aux(
            stream.draw_matrix(seed, blocks, k, m, d), np.sqrt(sig_sq)
        )  # (G, M, D), shared across each block's beams

        mean_t, var_t = target_moments(nu, rho_sq, b, sig_sq, s_prev, s_next)
        # log q(a | beam) - log p(a), for every block x beam x sample. The
        # in-place ufuncs are those of (a - mean)**2 / (2 var), in that order,
        # on a contiguous view, so the scores are bit for bit the same.
        diff = scratch[: g * nu.shape[1] * m * d].reshape(g, -1, m, d)
        np.subtract(a[:, None, :, :], mean_t[:, :, None, :], out=diff)
        np.multiply(diff, diff, out=diff)
        np.divide(diff, 2.0 * var_t[:, :, None, :], out=diff)
        quad_q = np.sum(diff, axis=3)
        quad_p = np.sum(a * a, axis=2) / (2.0 * sig_sq)
        norm = -0.5 * np.sum(np.log(var_t / sig_sq), axis=2)
        cand = log_w[:, :, None] + norm[:, :, None] - quad_q + quad_p[:, None, :]
        flat = cand.reshape(g, -1)

        if cfg.stochastic_final:
            w_log = cand[:, 0]
            w = np.exp(w_log - np.max(w_log, axis=1, keepdims=True))
            u = stream.draw_uniforms(seed, blocks, k, m)
            order = np.array([[importance_select(w[i], u[i])] for i in range(g)])
        else:
            # Candidate order is lexicographic (beam-major), so ties resolve
            # to the smallest tuple.
            order = top_b(flat, min(cfg.beams, flat.shape[1]))
        beam_idx = order // m
        pick = order % m

        log_w = flat[rows, order]
        prefixes = np.concatenate(
            [prefixes[rows, beam_idx], pick[:, :, None]], axis=2
        )
        nu, rho_sq, b = posterior_moments(
            nu[rows, beam_idx], rho_sq[rows, beam_idx], b[rows, beam_idx],
            a[rows, pick], sig_sq, s_prev, s_next,
        )

    # Final selection: highest log q(z)/p(z) over each block's surviving beams.
    dq = (b - mean[:, None, :]) / std[:, None, :]
    ratios = np.sum(-np.log(std)[:, None, :] + 0.5 * (b * b - dq * dq), axis=2)
    best = (rows[:, 0], np.argmax(ratios, axis=1))
    return prefixes[best], b[best], ratios[best]


def decode(
    indices: tuple[int, ...],
    schedule: AuxSchedule,
    seed: int,
    block: int,
    dims: int,
) -> np.ndarray:
    """Reconstruct z from the index tuple; bit-identical to the encoder's z."""
    if len(indices) != schedule.K:
        raise CorruptStreamError(
            f"index tuple length {len(indices)} != schedule steps {schedule.K}"
        )
    z = np.zeros(dims)
    for k, idx in enumerate(indices):
        if not 0 <= idx < schedule.M:
            raise CorruptStreamError(f"index {idx} out of range [0, {schedule.M})")
        sig = np.sqrt(float(schedule.sigma_sq[k]))
        z = z + stream.scale_to_aux(
            stream.draw_vector(seed, block, k, idx, dims), sig
        )
    return z
