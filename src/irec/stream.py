"""Shared deterministic randomness: an addressable stream of standard normals.

Encoder and decoder regenerate identical samples from (seed, block, step,
sample) addresses, so the generator is part of the wire format:

* Philox4x32-10 counter PRF; key = (seed & 0xFFFFFFFF, seed >> 32),
  counter words = (lane, sample, step, block).
* Each invocation yields four 32-bit words, combined little-word-first into
  two 64-bit words.
* A 64-bit word w maps to the open-interval uniform ((w >> 11) + 0.5) * 2^-53.
* Uniform pairs (u0, u1) map to two normals via Box-Muller:
  r = sqrt(-2 ln u0); lane j produces dims (2j, 2j+1) as (r cos(2 pi u1),
  r sin(2 pi u1)). An odd final dimension uses the cosine branch only.

Philox is a counter-based PRF, so draw_normals and draw_uniforms evaluate
any broadcast grid of addresses in one call; the single-address functions
are thin calls into them. See docs/FORMAT.md for the normative statement of
these rules.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError

_PHILOX_M0 = np.uint64(0xD2511F53)
_PHILOX_M1 = np.uint64(0xCD9E8D57)
_PHILOX_W0 = 0x9E3779B9
_PHILOX_W1 = 0xBB67AE85
_MASK32 = np.uint64(0xFFFFFFFF)
_U32_MAX = 0xFFFFFFFF
_U64_MAX = 0xFFFFFFFFFFFFFFFF

_TWO_PI = 2.0 * np.pi


def _check_u32(name: str, value):
    """The address as uint64 after checking that it lies in u32.

    Python and NumPy integer scalars stay scalars; arrays are checked
    elementwise and must hold integers.
    """
    if isinstance(value, (int, np.integer)):
        value = int(value)
        if not 0 <= value <= _U32_MAX:
            raise UsageError(f"{name} out of u32 range: {value}")
        return np.uint64(value)
    arr = np.asarray(value)
    if arr.dtype.kind not in "iu":
        raise UsageError(f"{name} must be integers, got {arr.dtype}")
    if arr.size and (arr.min() < 0 or arr.max() > _U32_MAX):
        raise UsageError(f"{name} out of u32 range: [{arr.min()}, {arr.max()}]")
    return arr.astype(np.uint64, copy=False)


def _check_seed(seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed <= _U64_MAX:
        raise UsageError(f"seed out of u64 range: {seed}")
    return seed


def _philox4x32_10(c0, c1, c2, c3, k0: int, k1: int):
    """Ten Philox rounds over uint64 arrays holding 32-bit counter words."""
    k0 = np.uint64(k0)
    k1 = np.uint64(k1)
    for _ in range(10):
        p0 = _PHILOX_M0 * c0
        p1 = _PHILOX_M1 * c2
        hi0, lo0 = p0 >> np.uint64(32), p0 & _MASK32
        hi1, lo1 = p1 >> np.uint64(32), p1 & _MASK32
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        k0 = (k0 + np.uint64(_PHILOX_W0)) & _MASK32
        k1 = (k1 + np.uint64(_PHILOX_W1)) & _MASK32
    return c0, c1, c2, c3


def raw_words(seed: int, block, step, samples, lanes):
    """64-bit output words for a broadcast grid of addresses.

    block, step and samples are u32 integers or integer arrays; lanes is an
    array of lane numbers. Returns two uint64 arrays of shape
    broadcast(block, step, samples, lanes), NumPy scalars if every input is
    a scalar: the low and high 64-bit words of each Philox invocation.
    """
    seed = _check_seed(seed)
    # No explicit broadcast: after four rounds every output word depends on
    # all four counter words, so the arithmetic itself broadcasts them.
    r0, r1, r2, r3 = _philox4x32_10(
        np.asarray(lanes, dtype=np.uint64),
        _check_u32("sample", samples),
        _check_u32("step", step),
        _check_u32("block", block),
        seed & _U32_MAX,
        seed >> 32,
    )
    w_lo = r0 | (r1 << np.uint64(32))
    w_hi = r2 | (r3 << np.uint64(32))
    return w_lo, w_hi


def _to_uniform(words: np.ndarray) -> np.ndarray:
    # Top 53 bits, offset by half a ulp so the result lies in the open (0,1).
    return ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def _per_lane(address):
    # Give an array address a trailing lane axis; a scalar broadcasts as is.
    return address if np.ndim(address) == 0 else np.asarray(address)[..., None]


def draw_normals(seed: int, block, step, sample, dims: int) -> np.ndarray:
    """Standard-normal vectors at every broadcast (block, step, sample) address.

    Returns shape broadcast(block, step, sample) + (dims,). Each vector is
    the same as a single-address draw at its address (FORMAT.md §4).
    """
    if dims < 1:
        raise UsageError("dims must be >= 1")
    lanes = np.arange((dims + 1) // 2, dtype=np.uint64)
    w_lo, w_hi = raw_words(
        seed, _per_lane(block), _per_lane(step), _per_lane(sample), lanes
    )
    r = np.sqrt(-2.0 * np.log(_to_uniform(w_lo)))
    theta = _TWO_PI * _to_uniform(w_hi)
    out = np.empty(w_lo.shape[:-1] + (2 * lanes.size,), dtype=np.float64)
    out[..., 0::2] = r * np.cos(theta)
    out[..., 1::2] = r * np.sin(theta)
    return out[..., :dims]


def draw_uniforms(seed: int, block, step, sample) -> np.ndarray:
    """Uniforms in (0,1) at every broadcast address (lane 0, low word)."""
    w_lo, _ = raw_words(seed, block, step, sample, 0)
    return _to_uniform(w_lo)


def draw_matrix(seed: int, block, step: int, n_samples: int, dims: int) -> np.ndarray:
    """Standard-normal draws for sample indices 0..n_samples-1.

    Shape (n_samples, dims) for one block, or block.shape + (n_samples, dims)
    for an array of blocks.
    """
    if n_samples < 1:
        raise UsageError("n_samples must be >= 1")
    samples = np.arange(n_samples, dtype=np.uint64)
    return draw_normals(seed, _per_lane(block), step, samples, dims)


def draw_vector(seed: int, block: int, step: int, sample: int, dims: int) -> np.ndarray:
    """Standard-normal vector at one address; bit-identical across calls."""
    return draw_normals(seed, block, step, sample, dims)


def draw_uniform(seed: int, block: int, step: int, sample: int) -> float:
    """Deterministic uniform in (0,1) at one address (lane 0, low word)."""
    return float(draw_uniforms(seed, block, step, sample))


def scale_to_aux(u: np.ndarray, sigma_k: float) -> np.ndarray:
    """Scale standard-normal draws to the step distribution N(0, sigma_k^2 I)."""
    if sigma_k <= 0:
        raise UsageError("sigma_k must be positive")
    return sigma_k * np.asarray(u, dtype=np.float64)
