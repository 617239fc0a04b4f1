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

The step kernel fixes its floating-point order so that its codes do not
depend on how blocks and steps are batched:

* Scores are computed dimension-major, in a (D, G, B, M) buffer, and summed
  over D by _sum_dims, which adds whole (G, B, M) arrays in the order np.sum
  adds one contiguous row of D floats. Each score therefore equals np.sum
  over that candidate's own row, bit for bit.
* The shared draws of several steps come from one stream call: a slab of
  at most MAX_CHUNK_FLOATS // 8 floats, scaled by each step's sigma_k.
* A step keeps only back-pointers, each surviving beam's parent beam and
  sample; the code is traced back once, from each block's best final beam.
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
# whose buffer fits this many floats, and at least 1. The draws of as many
# steps as fit an eighth of it (at least one) come from one stream call.
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
    indices, zs, ratios = encode_blocks(q.mean[None], q.std, schedule, cfg, seed, [block])
    return indices[0], zs[0], float(ratios[0])


def encode_blocks(
    mean: np.ndarray,
    std: np.ndarray,
    schedule: AuxSchedule,
    cfg: RecConfig,
    seed: int,
    blocks: Sequence[int],
) -> tuple[list[tuple[int, ...]], np.ndarray, np.ndarray]:
    """Encode blocks that share one schedule, step by step across blocks.

    The targets are a (G, D) mean and a (G, D) std, or one (D,) std for all.
    Returns (indices per block, decoded z of shape (G, D), log q(z)/p(z) of
    shape (G,)). Block g's outputs are exactly those of encoding it alone:
    blocks run in chunks whose candidates fit one scoring buffer of at most
    MAX_CHUNK_FLOATS floats (one block's B*M*D if that is more), allocated
    here once, and every reduction and selection runs along one block's own
    row.
    """
    if schedule.M != samples_per_step(cfg.omega, cfg.epsilon):
        raise UsageError("schedule and config disagree on samples per step")
    mean, std = np.asarray(mean, dtype=np.float64), np.asarray(std, dtype=np.float64)
    if mean.ndim != 2 or not mean.size or std.shape not in (mean.shape, mean.shape[1:]):
        raise UsageError(f"targets of shape {mean.shape}, {std.shape}: need (G, D), (D,)")
    if len(mean) != len(blocks):
        raise UsageError(f"{len(mean)} targets for {len(blocks)} blocks")
    std = np.broadcast_to(std, mean.shape)
    d = mean.shape[1]
    _check_budget(cfg, schedule, d)
    per_block = cfg.beams * schedule.M * d
    chunk = min(len(mean), max(1, MAX_CHUNK_FLOATS // per_block))
    scratch = np.empty(chunk * per_block)
    blocks = np.asarray(blocks)
    indices: list[tuple[int, ...]] = []
    zs, ratios = [], []
    for lo in range(0, len(blocks), chunk):
        part = slice(lo, lo + chunk)
        codes, z, ratio = _encode_chunk(
            mean[part], std[part], schedule, cfg, seed, blocks[part], scratch
        )
        indices += [tuple(c) for c in codes.tolist()]
        zs.append(z)
        ratios.append(ratio)
    return indices, np.concatenate(zs), np.concatenate(ratios)


def _sum_dims(x: np.ndarray) -> np.ndarray:
    """np.sum over axis 0 of x, bit for bit as if that axis were last.

    np.sum adds a contiguous axis of n terms by pairwise summation, here
    spelled out over whole arrays x[i]: fewer than 8 terms are added one at
    a time; up to 128 go into 8 running sums r0..r7 (term i into r[i % 8],
    up to the last full group of 8), which combine as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) before the remaining terms are added
    one at a time; more than 128 split at half of n rounded down to a
    multiple of 8, and the two halves' sums are added. The total is then
    added to the reduction's start value +0.0, so a sum of -0.0 terms reads
    +0.0. Overwrites x; returns a view of x[0].
    """
    total = _pairwise(x)
    return np.add(total, 0.0, out=total)


def _pairwise(x: np.ndarray) -> np.ndarray:
    """NumPy's pairwise sum over axis 0, without the start value; in place."""
    n = len(x)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        head, tail = _pairwise(x[:half]), _pairwise(x[half:])
        return np.add(head, tail, out=head)
    total = x[0]
    rest = range(1, n)
    if n >= 8:
        full = n - n % 8
        acc = x[:8]
        for i in range(8, full, 8):
            np.add(acc, x[i : i + 8], out=acc)
        np.add(acc[0::2], acc[1::2], out=acc[0::2])  # r0+r1, r2+r3, r4+r5, r6+r7
        np.add(acc[0::4], acc[2::4], out=acc[0::4])
        np.add(total, acc[4], out=total)
        rest = range(full, n)
    for i in rest:
        np.add(total, x[i], out=total)
    return total


def _encode_chunk(mean, std, schedule, cfg, seed, blocks, scratch):
    """Beam search for G blocks at once; beam state has shape (G, beams, D).

    Candidates are scored in place in `scratch`, a flat float64 buffer of at
    least G*B*M*D elements, laid out dimension-major as (D, G, B, M). The
    draws of `span` steps at a time come from one stream call. Returns the
    codes as a (G, K) array, z and log q(z)/p(z).
    """
    g = len(blocks)
    rows = np.arange(g)[:, None]
    m = schedule.M
    d = mean.shape[1]
    tails = schedule.tail_var()
    span = max(1, MAX_CHUNK_FLOATS // 8 // (g * m * d))
    # Beam state, kept sorted by lexicographic index prefix within each block.
    nu = mean[:, None, :].copy()
    rho_sq = (std * std)[:, None, :]
    b = np.zeros_like(nu)
    log_w = np.zeros((g, 1))
    trail = []  # (beam_idx, pick) per step: each beam's parent and sample

    for k in range(schedule.K):
        j = k % span
        if j == 0:
            steps = np.arange(k, min(k + span, schedule.K))
            var = schedule.sigma_sq[steps]
            slab = stream.draw_normals(
                seed, blocks[:, None, None], steps[:, None], np.arange(m), d
            )  # (G, steps, M, D), shared across each block's beams
            slab *= np.sqrt(var)[:, None, None]  # sigma_k * u, as the decoder scales
            slab_quad_p = np.sum(slab * slab, axis=3) / (2.0 * var[:, None])  # -log p(a) + c
            slab_dims = np.ascontiguousarray(slab.transpose(1, 3, 0, 2))
            if cfg.stochastic_final:
                slab_u = stream.draw_uniforms(seed, blocks[:, None], steps, m)
        a = slab[:, j]
        sig_sq = float(schedule.sigma_sq[k])
        s_prev, s_next = float(tails[k]), float(tails[k + 1])

        mean_t, var_t = target_moments(nu, rho_sq, b, sig_sq, s_prev, s_next)
        # log q(a | beam) - log p(a), for every block x beam x sample. The
        # ufuncs are those of (a - mean)**2 / (2 var), in that order, and
        # _sum_dims adds over D in np.sum's order, so the scores are bit for
        # bit those of summing each candidate's contiguous row of D floats.
        beams = nu.shape[1]
        diff = scratch[: d * g * beams * m].reshape(d, g, beams, m)
        np.subtract(slab_dims[j][:, :, None, :], _dims_first(mean_t), out=diff)
        np.multiply(diff, diff, out=diff)
        np.divide(diff, 2.0 * _dims_first(var_t), out=diff)
        quad_q = _sum_dims(diff)
        quad_p = slab_quad_p[:, j]
        norm = -0.5 * np.sum(np.log(var_t / sig_sq), axis=2)
        cand = log_w[:, :, None] + norm[:, :, None] - quad_q + quad_p[:, None, :]
        flat = cand.reshape(g, -1)

        if cfg.stochastic_final:
            w_log = cand[:, 0]
            w = np.exp(w_log - np.max(w_log, axis=1, keepdims=True))
            u = slab_u[:, j]
            order = np.array([[importance_select(w[i], u[i])] for i in range(g)])
        else:
            # Candidate order is lexicographic (beam-major), so ties resolve
            # to the smallest tuple.
            order = top_b(flat, min(cfg.beams, flat.shape[1]))
        beam_idx = order // m
        pick = order % m
        trail.append((beam_idx, pick))

        log_w = flat[rows, order]
        nu, rho_sq, b = posterior_moments(
            nu[rows, beam_idx], rho_sq[rows, beam_idx], b[rows, beam_idx],
            a[rows, pick], sig_sq, s_prev, s_next,
        )

    # Final selection: highest log q(z)/p(z) over each block's surviving beams.
    dq = (b - mean[:, None, :]) / std[:, None, :]
    ratios = np.sum(-np.log(std)[:, None, :] + 0.5 * (b * b - dq * dq), axis=2)
    best = np.argmax(ratios, axis=1)
    codes = np.empty((g, schedule.K), dtype=np.int64)
    beam = best
    for k in reversed(range(schedule.K)):
        beam_idx, pick = trail[k]
        codes[:, k] = pick[rows[:, 0], beam]
        beam = beam_idx[rows[:, 0], beam]
    return codes, b[rows[:, 0], best], ratios[rows[:, 0], best]


def _dims_first(x: np.ndarray) -> np.ndarray:
    """A (G, B, D) beam array as a (D, G, B, 1) view, to broadcast over M."""
    return x.transpose(2, 0, 1)[..., None]


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
