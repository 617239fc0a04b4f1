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

Philox is a counter-based PRF, so draw_normals (raw_words, then the uniform and
Box-Muller map normals_from_words) and draw_uniforms evaluate any broadcast
grid of addresses in one call. raw_words takes a lane count and returns the
words of lanes 0..lanes-1 on a trailing axis; it runs the rounds of one exact
integer Philox (_philox) on one of two kinds of operand, with the same words:

* when seed, block, step, sample and the lane count are plain Python ints
  in range (each of the decoder's draws), on Python ints: the lanes are
  packed into one int per counter word, and both words are read back from
  one byte buffer as read-only arrays; this avoids the ~100 NumPy dispatches
  of ten vectorised rounds, which dominate a call of a few lanes. Round 1
  runs on scalars: only its c0, the lane, differs between fields, so its
  other words and keys are copied into each;
* otherwise (every encoder call covers a grid of samples) on NumPy uint64
  arrays.

The seed broadcasts with the addresses: a seed array's round keys are
computed per call; a scalar seed's are cached per seed, or on the int path
per seed and lane count with round 1's M0 * lane. Both come from one key
schedule. See docs/FORMAT.md for the normative rules. The library's integer
rules live here: check_seed for seeds, check_int for every scalar count,
index and address.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

from .errors import UsageError

_PHILOX_M0 = 0xD2511F53
_PHILOX_M1 = 0xCD9E8D57
_PHILOX_W0 = 0x9E3779B9
_PHILOX_W1 = 0xBB67AE85
_U32_MAX = 0xFFFFFFFF
_U64_MAX = 0xFFFFFFFFFFFFFFFF
_MASK32 = np.uint64(_U32_MAX)
# The multipliers and the shift of _philox's two kinds of operand.
_INT = (_PHILOX_M0, _PHILOX_M1, 32)
_UINT64 = (np.uint64(_PHILOX_M0), np.uint64(_PHILOX_M1), np.uint64(32))
_SHIFT11 = np.uint64(11)
_LE_U64 = np.dtype("<u8")

_TWO_PI = 2.0 * np.pi


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer))


def check_int(name: str, value, lo: int = 0, hi: int | None = None) -> int:
    """The one integer rule: an int, bool or NumPy integer as a Python int in [lo, hi]
    (no top if hi is None); anything else raises UsageError naming the argument."""
    if type(value) is int and lo <= value and (hi is None or value <= hi):
        return value  # the common case, which the conversions below would return unchanged
    try:
        if isinstance(value, np.ndarray):  # operator.index takes a 0-d integer array
            raise TypeError
        value = int(operator.index(value))
    except TypeError:
        raise UsageError(f"{name} must be an integer, got {value!r}") from None
    if value < lo or hi is not None and value > hi:
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise UsageError(f"{name} must be {bounds}, got {value}")
    return value


def _check_uint(name: str, value, top: int = _U32_MAX):
    """The address as uint64 after checking that it lies in u32 (or u64).

    Python and NumPy integer scalars stay scalars; arrays are checked
    elementwise and must hold integers.
    """
    if _is_int(value):
        return np.uint64(check_int(name, value, 0, top))
    arr = np.asarray(value)
    if isinstance(value, (list, tuple)) and arr.dtype.kind in "fO":
        # NumPy infers float64 (or object) for Python ints that span 2^63.
        arr = np.asarray(value, dtype=object)
        if not all(map(_is_int, arr.flat)):
            raise UsageError(f"{name} must be integers, got {value!r}")
    elif arr.dtype.kind not in "iu":
        raise UsageError(f"{name} must be integers, got {arr.dtype}")
    if arr.size and (arr.min() < 0 or arr.max() > top):
        raise UsageError(f"{name} out of u{top.bit_length()} range: [{arr.min()}, {arr.max()}]")
    return arr.astype(np.uint64, copy=False)


def check_seed(seed):
    """The one seed rule: an integer as a Python int, or an array as uint64, in u64."""
    return (check_int("seed", seed, 0, _U64_MAX) if _is_int(seed)
            else _check_uint("seed", seed, _U64_MAX))


def _key_schedule(seed):
    """The ten Philox round keys (k0 + r W0, k1 + r W1) mod 2^32, r = 0..9,
    of a seed given as a Python int or as uint64."""
    k0, k1 = seed & _U32_MAX, seed >> 32
    return tuple(
        ((k0 + r * _PHILOX_W0) & _U32_MAX, (k1 + r * _PHILOX_W1) & _U32_MAX)
        for r in range(10)
    )


@lru_cache(maxsize=64)
def _round_keys(seed: int):
    """The round keys of a scalar seed, as uint64."""
    return _key_schedule(np.uint64(seed))


@lru_cache(maxsize=64)
def _packed_constants(seed: int, lanes: int):
    """Per scalar seed and lane count: ones (1 in each lane's 64-bit field), the low
    mask, round 1's M0 * lane hi and lo, the round keys * ones."""
    ones = int.from_bytes(bytes([1, 0, 0, 0, 0, 0, 0, 0]) * lanes, "little")
    low = _U32_MAX * ones
    p0 = _PHILOX_M0 * int.from_bytes(np.arange(lanes, dtype=_LE_U64).tobytes(), "little")
    keys = tuple((k0 * ones, k1 * ones) for k0, k1 in _key_schedule(seed))
    return ones, low, (p0 >> 32) & low, p0 & low, keys[0], keys[1:]


def _philox(c0, c1, c2, c3, keys, low, kind):
    """Philox4x32-10 rounds; returns the two 64-bit words of each invocation.

    The counter words are uint64 arrays (kind _UINT64, low _MASK32) or Python
    ints that pack invocation j into bits [64j, 64j + 32) (kind _INT, low
    and the round keys holding one value per field). A product of two 32-bit
    words fits its 64-bit field, and both its halves are masked with low, so
    fields never carry into each other and every round is exact.
    """
    m0, m1, shift = kind
    for k0, k1 in keys:
        p0 = m0 * c0
        p1 = m1 * c2
        c0 = ((p1 >> shift) & low) ^ c1 ^ k0
        c2 = ((p0 >> shift) & low) ^ c3 ^ k1
        c1 = p1 & low
        c3 = p0 & low
    return c0 | c1 << shift, c2 | c3 << shift


def _raw_words_ints(block: int, step: int, sample: int, lanes: int, seed: int):
    """raw_words at one address on Python ints: round 1 on scalars, then 9 packed rounds."""
    ones, low, lane_hi, lane_lo, (k0, k1), keys = _packed_constants(seed, lanes)
    p1 = _PHILOX_M1 * step
    w_lo, w_hi = _philox(
        ((p1 >> 32) ^ sample) * ones ^ k0, (p1 & _U32_MAX) * ones,
        lane_hi ^ block * ones ^ k1, lane_lo, keys, low, _INT,
    )
    words = (w_lo | w_hi << 64 * lanes).to_bytes(16 * lanes, "little")
    words = np.frombuffer(words, _LE_U64).reshape(2, lanes)
    return words[0], words[1]


def raw_words(seed, block, step, samples, lanes: int):
    """64-bit output words of lanes 0..lanes-1 for a broadcast grid of addresses.

    seed is a u64 integer or integer array; block, step and samples are u32
    integers or integer arrays; lanes is a count in 1..2^32. Returns two
    uint64 arrays of shape broadcast(seed, block, step, samples) + (lanes,):
    the low and high 64-bit words of each Philox invocation.
    """
    # Plain ints in range skip the checks (block | step | samples tests all three).
    if (type(seed) is type(block) is type(step) is type(samples) is type(lanes) is int
            and 0 <= seed <= _U64_MAX and 0 <= block | step | samples <= _U32_MAX
            and 0 < lanes <= _U32_MAX + 1):
        return _raw_words_ints(block, step, samples, lanes, seed)
    seed = check_seed(seed)
    keys = _round_keys(seed) if _is_int(seed) else _key_schedule(seed[..., None])
    block, step, samples = (
        _check_uint(name, value)[..., None]
        for name, value in (("block", block), ("step", step), ("sample", samples))
    )
    lanes = check_int("lane count", lanes, 1, _U32_MAX + 1)
    # No explicit broadcast: after four rounds every output word depends on
    # all four counter words and the keys, so the arithmetic broadcasts them.
    lane = np.arange(lanes, dtype=np.uint64)
    return _philox(lane, samples, step, block, keys, _MASK32, _UINT64)


def _to_uniform(words: np.ndarray) -> np.ndarray:
    # Top 53 bits, offset by half a ulp so the result lies in the open (0,1).
    return ((words >> _SHIFT11).astype(np.float64) + 0.5) * 2.0**-53


def lane_count(dims: int) -> int:
    """The number of lanes that serve `dims` dimensions: ceil(dims / 2)."""
    return (check_int("dims", dims, 1) + 1) // 2


def normals_from_words(w_lo: np.ndarray, w_hi: np.ndarray, dims: int) -> np.ndarray:
    """The uniform map and Box-Muller (FORMAT.md §4): (..., lanes) words to (..., dims) normals."""
    if lane_count(dims) != w_lo.shape[-1]:
        raise UsageError(f"dims = {dims} needs {lane_count(dims)} lanes, got {w_lo.shape[-1]}")
    r = np.sqrt(-2.0 * np.log(_to_uniform(w_lo)))
    theta = _TWO_PI * _to_uniform(w_hi)
    out = np.empty(w_lo.shape[:-1] + (2 * w_lo.shape[-1],), dtype=np.float64)
    out[..., 0::2] = r * np.cos(theta)
    out[..., 1::2] = r * np.sin(theta)
    return out[..., :dims]


def draw_normals(seed, block, step, sample, dims: int) -> np.ndarray:
    """Standard-normal vectors at every broadcast (seed, block, step, sample) address.

    Returns shape broadcast(seed, block, step, sample) + (dims,). Each vector
    is the same as a single-address draw at its address (FORMAT.md §4).
    """
    return normals_from_words(*raw_words(seed, block, step, sample, lane_count(dims)), dims)


def draw_uniforms(seed, block, step, sample) -> np.ndarray:
    """Uniforms in (0,1) at every broadcast address (lane 0, low word)."""
    w_lo, _ = raw_words(seed, block, step, sample, 1)
    return _to_uniform(w_lo[..., 0])


def draw_matrix(seed: int, block, step: int, n_samples: int, dims: int) -> np.ndarray:
    """Standard-normal draws for sample indices 0..n_samples-1.

    Shape (n_samples, dims) for one block, or block.shape + (n_samples, dims)
    for an array of blocks. Kept for perfbench/spans.py until ROADMAP item 1.
    """
    n_samples = check_int("n_samples", n_samples, 1)
    if not _is_int(block):
        block = np.asarray(block)[..., None]  # a block axis before the sample axis
    return draw_normals(seed, block, step, np.arange(n_samples, dtype=np.uint64), dims)


def draw_vector(seed: int, block: int, step: int, sample: int, dims: int) -> np.ndarray:
    """Standard-normal vector at one address; kept for perfbench/spans.py until ROADMAP item 1."""
    return draw_normals(seed, block, step, sample, dims)


def draw_uniform(seed: int, block: int, step: int, sample: int) -> float:
    """Uniform in (0,1) at one address; kept for perfbench/spans.py until ROADMAP item 1."""
    return float(draw_uniforms(seed, block, step, sample))


def scale_to_aux(u: np.ndarray, sigma_k: float) -> np.ndarray:
    """Scale draws to N(0, sigma_k^2 I); kept for perfbench/spans.py until ROADMAP item 1."""
    if sigma_k <= 0:
        raise UsageError("sigma_k must be positive")
    return sigma_k * np.asarray(u, dtype=np.float64)
