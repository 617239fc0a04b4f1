"""Index-coding encoder and decoder over the shared sample stream.

The encoder runs a beam search over the per-step shared draws: at step k it
scores every (beam, sample) pair by the cumulative log importance weight
sum_j log q(a_j | a_1:j-1) / p(a_j) and keeps the top B. Ties are broken
toward the lexicographically smallest index tuple, which keeps the output
independent of evaluation order; the B best are found in linear time
(top_b), not by sorting. Blocks of any step counts K run each step together,
as one array operation over a block axis, in order of K, largest first; a
block leaves the step arrays when its K runs out, and its code is the same
as when it is encoded alone. The decoder replays only the chosen draws, for
all blocks in one pass (decode_blocks), and never sees the target.

The step kernel fixes its floating-point order so that its codes do not
depend on how blocks and steps are batched:

* Scores expand the square, since rho_sq, and so the target variance v,
  is shared by a block's beams: -sum (a - m)^2 / (2v) + sum a^2 / (2 sigma^2)
  is a per-beam term -sum m (m / v) / 2, a per-sample term
  sum a^2 (1 / (2 sigma^2) - 1 / (2v)) and the cross term sum a (m / v).
  Each sum adds its D terms in index order: the cross term by multiply-adds
  into one (G, B, M) buffer, dimension by dimension. No BLAS call is made,
  so the codes do not depend on the host's BLAS kernels.
* The shared draws of several steps come from one stream call: a slab of
  the live (block, step) pairs only, step-major, scaled by each sigma_k.
  MAX_CHUNK_FLOATS bounds both the scoring buffer and the slab.
* Each step's scalars are (G, 1, 1) arrays, one value per block, so blocks
  of different K share a step: elementwise IEEE operations on the same
  operands give the same bits.
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

# Reject configs whose per-step candidate volume B x M x D exceeds this.
MAX_CANDIDATE_FLOATS = 1 << 24
# Blocks encoded together score G x B x M candidates per step, in one buffer
# (and one of the products added into it) reused for every step and chunk;
# G is the largest count whose buffer fits this many floats, and at least 1.
# The draws of as many steps as fit G x M x D floats each in this many (at
# least one step) come from one stream call. Sized by peak memory: 2**14
# holds lossless-128's 22 blocks and 2 steps; 2**16 added 7 MB of peak RSS.
MAX_CHUNK_FLOATS = 1 << 14


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
    row's keep-th best value and one compare keeps every score at least as
    good. Only rows where that is not exactly `keep` scores (ties at the
    cut, or fewer than keep non-NaN scores) are settled again, by the
    definition's stable argsort.
    """
    neg = -scores
    kth = np.partition(neg, keep - 1, axis=1)[:, keep - 1 : keep]
    take = neg <= kth
    fix = np.flatnonzero(np.count_nonzero(take, axis=1) != keep)
    if fix.size:
        take[fix] = False
        take[fix[:, None], np.argsort(neg[fix], axis=1, kind="stable")[:, :keep]] = True
    return (np.flatnonzero(take) % take.shape[1]).reshape(len(scores), keep)


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
    indices, zs, ratios = encode_blocks(q.mean[None], q.std, [schedule], cfg, seed, [block])
    return indices[0], zs[0], float(ratios[0])


def encode_blocks(
    mean: np.ndarray,
    std: np.ndarray,
    schedules: Sequence[AuxSchedule],
    cfg: RecConfig,
    seed,
    blocks: Sequence[int],
) -> tuple[list[tuple[int, ...]], np.ndarray, np.ndarray]:
    """Encode blocks, one schedule each, step by step across blocks.

    The targets are a (G, D) mean and a (G, D) std, or one (D,) std for all;
    the schedules may differ in K but must agree on M, omega and epsilon.
    seed is one stream seed for all blocks, or G seeds, one per block.
    Returns (indices per block, decoded z of shape (G, D), log q(z)/p(z) of
    shape (G,)). Block g's outputs are exactly those of encoding it alone
    under its seed: blocks run in order of K, largest first, in chunks whose
    candidates fit one scoring buffer of at most MAX_CHUNK_FLOATS floats (one
    block's B*M if that is more), allocated here once, and every reduction
    and selection runs along one block's own row.
    """
    if len({(s.M, s.omega, s.epsilon) for s in schedules}) != 1:
        raise UsageError("schedules disagree on samples per step, omega or epsilon")
    if schedules[0].M != samples_per_step(cfg.omega, cfg.epsilon):
        raise UsageError("schedule and config disagree on samples per step")
    mean, std = np.asarray(mean, dtype=np.float64), np.asarray(std, dtype=np.float64)
    if mean.ndim != 2 or not mean.size or std.shape not in (mean.shape, mean.shape[1:]):
        raise UsageError(f"targets of shape {mean.shape}, {std.shape}: need (G, D), (D,)")
    seeds = np.asarray(seed)
    if not len(mean) == len(blocks) == len(schedules) or seeds.shape not in ((), (len(mean),)):
        raise UsageError(
            f"{len(mean)} targets, {len(blocks)} blocks, {len(schedules)} schedules, "
            f"{seeds.size} seeds"
        )
    std = np.broadcast_to(std, mean.shape)
    d = mean.shape[1]
    per_block = cfg.beams * schedules[0].M * d
    if per_block > MAX_CANDIDATE_FLOATS:
        raise ConfigError(f"candidate volume B*M*D = {per_block} exceeds {MAX_CANDIDATE_FLOATS}")
    scores = cfg.beams * schedules[0].M
    chunk = min(len(mean), max(1, MAX_CHUNK_FLOATS // scores))
    scratch = np.empty((2, chunk * scores))
    blocks = np.asarray(blocks)
    order = np.argsort([-s.K for s in schedules], kind="stable")
    indices: list[tuple[int, ...]] = [()] * len(blocks)
    zs, ratios = np.empty_like(mean), np.empty(len(mean))
    for lo in range(0, len(blocks), chunk):
        part = order[lo : lo + chunk]
        codes, zs[part], ratios[part] = _encode_chunk(
            mean[part], std[part], [schedules[i] for i in part], cfg,
            seeds[part] if seeds.ndim else seeds[()], blocks[part], scratch,
        )
        for i, code in zip(part.tolist(), codes):
            indices[i] = code
    return indices, zs, ratios


def _encode_chunk(mean, std, schedules, cfg, seed, blocks, scratch):
    """Beam search for G blocks in order of K, largest first; beam state is (G, beams, D).

    The blocks live at step k are the prefix whose K > k. Candidates are
    scored in `scratch`, two (G, B, M) float64 buffers: the running cross
    term and the product added to it next. The draws of `span` steps at a
    time come from one stream call, which addresses only the live (block,
    step) pairs, each under its block's seed if `seed` is an array of G.
    Returns each block's code, z and log q(z)/p(z), the last two taken when
    the block's K runs out.
    """
    g = len(blocks)
    rows = np.arange(g)[:, None]
    m = schedules[0].M
    d = mean.shape[1]
    k_of = np.array([s.K for s in schedules])
    lives = np.count_nonzero(k_of > np.arange(k_of[0] + 1)[:, None], axis=1).tolist()
    # The live (block, step) pairs, step-major: step k's are the rows
    # starts[k]..starts[k+1]-1, of blocks 0..lives[k]-1. coef holds each
    # pair's sigma_k^2, s_{k-1}^2 and s_k^2.
    starts = np.cumsum([0, *lives])
    live_rows = np.concatenate([np.arange(n) for n in lives])
    pairs = np.stack([blocks[live_rows], np.repeat(np.arange(len(lives)), lives)])
    # One seed per pair, shaped like pairs[:, :, None], if blocks have their own.
    seeds = seed[live_rows, None] if isinstance(seed, np.ndarray) else seed
    coef = np.empty((3, starts[-1]))
    for i, s in enumerate(schedules):
        tails = s.tail_var()
        coef[:, starts[: s.K] + i] = s.sigma_sq, tails[:-1], tails[1:]
    span = max(1, MAX_CHUNK_FLOATS // (g * m * d))
    # Beam state, kept sorted by lexicographic index prefix within each block.
    # rho_sq does not depend on the draws, so it is one (G, 1, D) row for
    # all of a block's beams, and so are var_t and norm.
    nu = mean[:, None, :].copy()
    rho_sq = (std * std)[:, None, :]
    b = np.zeros_like(nu)
    log_w = np.zeros((g, 1))
    best, z, ratio = np.empty(g, dtype=np.int64), np.empty((g, d)), np.empty(g)
    trail = []  # (beam_idx, pick) per step: each live beam's parent and sample

    for k in range(k_of[0]):
        live = lives[k]
        if k % span == 0:
            lo = starts[k]
            at = slice(lo, starts[min(k + span, k_of[0])])
            seed_at = seeds[at] if isinstance(seeds, np.ndarray) else seeds
            slab = stream.draw_normals(seed_at, *pairs[:, at, None], np.arange(m), d)
            slab *= np.sqrt(coef[0, at])[:, None, None]  # sigma_k * u, as the decoder scales
            slab_dims = np.ascontiguousarray(slab.transpose(2, 0, 1))  # (D, rows, M)
            slab_sq = slab_dims * slab_dims
            if cfg.stochastic_final:
                slab_u = stream.draw_uniforms(seed_at, *pairs[:, at, None], m)[:, 0]
        own = slice(starts[k] - lo, starts[k + 1] - lo)  # this step's rows of the slab
        nu, rho_sq, b, log_w = nu[:live], rho_sq[:live], b[:live], log_w[:live]
        sig_sq, s_prev, s_next = coef[:, starts[k] : starts[k + 1], None, None]

        mean_t, var_t = target_moments(nu, rho_sq, b, sig_sq, s_prev, s_next)
        # log q(a | beam) - log p(a) by the expanded square (module docstring):
        # each score is its own candidate's terms, added over i = 0..D-1 in order.
        ratio_t = mean_t / var_t
        norm = -0.5 * np.cumsum(np.log(var_t / sig_sq), axis=2)[..., -1]
        beam_term = log_w + norm - 0.5 * np.cumsum(mean_t * ratio_t, axis=2)[..., -1]
        sq_coef = (0.5 / sig_sq - 0.5 / var_t).transpose(2, 0, 1)  # (D, G, 1)
        sample_term = np.cumsum(slab_sq[:, own] * sq_coef, axis=0)[-1]
        cand = scratch[0, : live * nu.shape[1] * m].reshape(live, -1, m)
        term = scratch[1, : cand.size].reshape(cand.shape)
        a_dims, r_dims = slab_dims[:, own, None, :], ratio_t.transpose(2, 0, 1)[..., None]
        np.multiply(r_dims[0], a_dims[0], out=cand)
        for i in range(1, d):
            cand += np.multiply(r_dims[i], a_dims[i], out=term)
        cand += beam_term[:, :, None]
        cand += sample_term[:, None, :]
        flat = cand.reshape(live, -1)

        if cfg.stochastic_final:
            w_log = cand[:, 0]
            w = np.exp(w_log - np.max(w_log, axis=1, keepdims=True))
            u = slab_u[own]
            order = np.array([[importance_select(w[i], u[i])] for i in range(live)])
        else:
            # Candidate order is lexicographic (beam-major), so ties resolve
            # to the smallest tuple.
            order = top_b(flat, min(cfg.beams, flat.shape[1]))
        beam_idx = order // m
        pick = order % m
        trail.append((beam_idx, pick))

        here = rows[:live]
        log_w = flat[here, order]
        nu, rho_sq, b = posterior_moments(
            nu[here, beam_idx], rho_sq, b[here, beam_idx],
            slab[own][here, pick], sig_sq, s_prev, s_next,
        )
        # Blocks whose K is k + 1 are done: the highest log q(z)/p(z) over
        # their surviving beams picks the final one.
        done = slice(lives[k + 1], live)
        if done.start < live:
            b_done = b[done]
            dq = (b_done - mean[done, None, :]) / std[done, None, :]
            terms = -np.log(std[done])[:, None, :] + 0.5 * (b_done * b_done - dq * dq)
            ratios = np.cumsum(terms, axis=2)[..., -1]
            best[done] = np.argmax(ratios, axis=1)
            pos = rows[: len(ratios), 0]
            z[done], ratio[done] = b_done[pos, best[done]], ratios[pos, best[done]]

    codes, beam = np.empty((g, k_of[0]), dtype=np.int64), best
    for k, (beam_idx, pick) in reversed(list(enumerate(trail))):
        live = rows[: len(pick), 0]
        codes[live, k] = pick[live, beam[live]]
        beam[live] = beam_idx[live, beam[live]]
    return [tuple(c[:k]) for c, k in zip(codes.tolist(), k_of.tolist())], z, ratio


def decode(
    indices: tuple[int, ...],
    schedule: AuxSchedule,
    seed: int,
    block: int,
    dims: int,
) -> np.ndarray:
    """One block's decode_blocks; kept for perfbench/spans.py until ROADMAP item 1."""
    return decode_blocks([indices], [schedule], seed, [block], dims)[0]


def decode_blocks(codes, schedules: Sequence[AuxSchedule], seed: int, blocks, dims: int):
    """The (G, D) z of G blocks from their index tuples, bit-identical to the encoder's.

    Every K and index is checked before any draw, then each chosen draw is one raw_words
    call. Step k = 0, 1, ... adds sqrt(sigma_sq[k]) * u_k to each z with K > k, from +0.0.
    """
    if not len(codes) == len(schedules) == len(blocks):
        raise UsageError(f"{len(codes)} codes, {len(schedules)} schedules, {len(blocks)} blocks")
    for g, (code, s) in enumerate(zip(codes, schedules)):
        if len(code) != s.K or not all(0 <= idx < s.M for idx in code):
            raise CorruptStreamError(f"block {g}: indices {code} do not fit K={s.K}, M={s.M}")
    lanes = stream.lanes_for(dims)
    k_of = np.array([len(code) for code in codes], dtype=np.int64)
    order = np.argsort(-k_of, kind="stable")  # by K, largest first
    lives = np.count_nonzero(k_of > np.arange(k_of.max(initial=0))[:, None], axis=1).tolist()
    starts = np.cumsum([0, *lives]).tolist()  # step k's rows: starts[k] + rank in order
    w_lo, w_hi = np.empty((2, starts[-1], lanes.size), dtype=np.uint64)
    sig_sq = np.empty(starts[-1])
    for rank, g in enumerate(order.tolist()):
        for k, idx in enumerate(codes[g]):
            row = starts[k] + rank
            w_lo[row], w_hi[row] = stream.raw_words(seed, blocks[g], k, idx, lanes)
            sig_sq[row] = schedules[g].sigma_sq[k]
    steps = stream.normals_from_words(w_lo, w_hi, dims) * np.sqrt(sig_sq)[:, None]
    z = np.zeros((len(codes), dims))
    for k, live in enumerate(lives):
        z[:live] += steps[starts[k] : starts[k + 1]]
    return z[np.argsort(order)]
