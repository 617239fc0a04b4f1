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
grid of addresses in one call. raw_words runs exact integer Philox on one of
two paths, picked by the shape of the call, that give the same words:

* one (block, step, sample) address with at most _INT_PATH_MAX_INVOCATIONS
  lanes (each of the decoder's draws) runs on Python ints, all lanes
  packed into one int per counter word (_philox_packed); this avoids the
  ~100 NumPy dispatches of ten vectorised rounds, which dominate a call of
  a few lanes;
* any other call (every encoder call covers a grid of samples) runs the
  rounds as NumPy uint64 array arithmetic.

The seed broadcasts with the addresses: a seed array always takes the NumPy
rounds, its round keys computed per call; a scalar seed reads its ten round
keys from one per-seed cache. Both come from one key schedule. See
docs/FORMAT.md for the normative statement of these rules.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import UsageError

_PHILOX_M0 = 0xD2511F53
_PHILOX_M1 = 0xCD9E8D57
_PHILOX_W0 = 0x9E3779B9
_PHILOX_W1 = 0xBB67AE85
_U32_MAX = 0xFFFFFFFF
_U64_MAX = 0xFFFFFFFFFFFFFFFF
_M0 = np.uint64(_PHILOX_M0)
_M1 = np.uint64(_PHILOX_M1)
_MASK32 = np.uint64(_U32_MAX)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)

# A call at one address with at most this many lanes (Philox invocations)
# runs on Python ints. Per call on a 2-core x86-64 VM, Python ints against
# NumPy rounds: 4 lanes 12 vs 72 us, 64 lanes 32 vs 76 us, 128 lanes 58 vs
# 84 us; the two break even between 128 and 256 lanes.
_INT_PATH_MAX_INVOCATIONS = 128

_TWO_PI = 2.0 * np.pi


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer))


def _uint(name: str, value, top: int = _U32_MAX) -> int:
    """An integer scalar as a Python int, checked to lie in u32 (or u64)."""
    value = int(value)
    if not 0 <= value <= top:
        raise UsageError(f"{name} out of u{top.bit_length()} range: {value}")
    return value


def _check_uint(name: str, value, top: int = _U32_MAX):
    """The address as uint64 after checking that it lies in u32 (or u64).

    Python and NumPy integer scalars stay scalars; arrays are checked
    elementwise and must hold integers.
    """
    if _is_int(value):
        return np.uint64(_uint(name, value, top))
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


def _check_seed(seed):
    """An integer seed as a Python int, or a seed array as uint64, checked to lie in u64."""
    return (_uint if _is_int(seed) else _check_uint)("seed", seed, _U64_MAX)


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
    """The round keys of a scalar seed: as Python ints, and as uint64."""
    return _key_schedule(seed), _key_schedule(np.uint64(seed))


@lru_cache(maxsize=_INT_PATH_MAX_INVOCATIONS)
def _fields(n: int) -> int:
    """The Python int with a 1 at the bottom of each of n 64-bit fields."""
    return int.from_bytes(bytes([1, 0, 0, 0, 0, 0, 0, 0]) * n, "little")


def _philox_packed(c0: int, c1: int, c2: int, c3: int, ones: int, keys):
    """Philox4x32-10 for many invocations at once on Python ints.

    Invocation j keeps its 32-bit counter words in bits [64j, 64j + 32) of
    c0..c3, and ones = _fields(number of invocations). A product of two
    32-bit words fits its 64-bit field, so fields never carry into each
    other and every round is exact for each invocation. Returns the two
    64-bit words of each invocation, packed one per field.
    """
    low = _U32_MAX * ones
    for k0, k1 in keys:
        p0 = _PHILOX_M0 * c0
        p1 = _PHILOX_M1 * c2
        c0 = ((p1 >> 32) & low) ^ c1 ^ (k0 * ones)
        c2 = ((p0 >> 32) & low) ^ c3 ^ (k1 * ones)
        c1 = p1 & low
        c3 = p0 & low
    return c0 | c1 << 32, c2 | c3 << 32


def _philox_arrays(c0, c1, c2, c3, keys):
    """Ten Philox rounds over uint64 arrays holding 32-bit counter words;
    returns the two 64-bit words of each invocation."""
    for k0, k1 in keys:
        p0 = _M0 * c0
        p1 = _M1 * c2
        hi0, lo0 = p0 >> _SHIFT32, p0 & _MASK32
        hi1, lo1 = p1 >> _SHIFT32, p1 & _MASK32
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0 | (c1 << _SHIFT32), c2 | (c3 << _SHIFT32)


def _int_path(lanes) -> bool:
    """Whether a call at one (block, step, sample) address runs on Python
    ints: one integer lane, or a nonempty array of few enough lanes."""
    if _is_int(lanes):
        return True
    return (
        isinstance(lanes, np.ndarray)
        and lanes.ndim > 0
        and 0 < lanes.size <= _INT_PATH_MAX_INVOCATIONS
    )


def _raw_words_ints(block: int, step: int, sample: int, lanes, keys):
    """raw_words at one address on Python ints, all lanes in one pass."""
    if _is_int(lanes):
        w_lo, w_hi = _philox_packed(_uint("lane", lanes), sample, step, block, 1, keys)
        return np.uint64(w_lo), np.uint64(w_hi)
    lane_list = lanes.ravel().tolist()
    if lanes.dtype.kind not in "iu" or min(lane_list) < 0 or max(lane_list) > _U32_MAX:
        _check_uint("lane", lanes)  # raises the array path's UsageError
    ones = _fields(lanes.size)
    packed = _philox_packed(
        int.from_bytes(lanes.astype("<u8").tobytes(), "little"),
        sample * ones, step * ones, block * ones, ones, keys,
    )
    return _unpacked(packed[0], lanes), _unpacked(packed[1], lanes)


def _unpacked(words: int, lanes: np.ndarray) -> np.ndarray:
    """The 64-bit fields of a packed int, as a uint64 array shaped like lanes."""
    fields = np.frombuffer(words.to_bytes(8 * lanes.size, "little"), dtype="<u8")
    return fields.astype(np.uint64).reshape(lanes.shape)


def raw_words(seed, block, step, samples, lanes):
    """64-bit output words for a broadcast grid of addresses.

    seed is a u64 integer or integer array; block, step, samples and lanes
    are u32 integers or integer arrays. Returns two uint64 arrays of shape
    broadcast(seed, block, step, samples, lanes), NumPy scalars if every
    input is a scalar: the low and high 64-bit words of each Philox
    invocation.
    """
    seed = _check_seed(seed)
    int_keys, array_keys = _round_keys(seed) if _is_int(seed) else (None, _key_schedule(seed))
    if int_keys and _is_int(block) and _is_int(step) and _is_int(samples) and _int_path(lanes):
        return _raw_words_ints(
            _uint("block", block), _uint("step", step), _uint("sample", samples),
            lanes, int_keys,
        )
    block = _check_uint("block", block)
    step = _check_uint("step", step)
    samples = _check_uint("sample", samples)
    # No explicit broadcast: after four rounds every output word depends on
    # all four counter words and the keys, so the arithmetic broadcasts them.
    return _philox_arrays(_check_uint("lane", lanes), samples, step, block, array_keys)


def _to_uniform(words: np.ndarray) -> np.ndarray:
    # Top 53 bits, offset by half a ulp so the result lies in the open (0,1).
    return ((words >> _SHIFT11).astype(np.float64) + 0.5) * 2.0**-53


def _per_lane(address):
    # Give an array address a trailing lane axis; a scalar broadcasts as is.
    if _is_int(address) or np.ndim(address) == 0:
        return address
    return np.asarray(address)[..., None]


@lru_cache(maxsize=64)
def lanes_for(dims: int) -> np.ndarray:
    """The lane numbers that serve `dims` dimensions, as a read-only array."""
    if dims < 1:
        raise UsageError("dims must be >= 1")
    lanes = np.arange((dims + 1) // 2, dtype=np.uint64)
    lanes.flags.writeable = False
    return lanes


def normals_from_words(w_lo: np.ndarray, w_hi: np.ndarray, dims: int) -> np.ndarray:
    """The uniform map and Box-Muller (FORMAT.md §4): (..., lanes) words to (..., dims) normals."""
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
    addresses = map(_per_lane, (seed, block, step, sample))
    return normals_from_words(*raw_words(*addresses, lanes_for(dims)), dims)


def draw_uniforms(seed, block, step, sample) -> np.ndarray:
    """Uniforms in (0,1) at every broadcast address (lane 0, low word)."""
    w_lo, _ = raw_words(seed, block, step, sample, 0)
    return _to_uniform(w_lo)


def draw_matrix(seed: int, block, step: int, n_samples: int, dims: int) -> np.ndarray:
    """Standard-normal draws for sample indices 0..n_samples-1.

    Shape (n_samples, dims) for one block, or block.shape + (n_samples, dims)
    for an array of blocks. Kept for perfbench/spans.py until ROADMAP item 1.
    """
    if n_samples < 1:
        raise UsageError("n_samples must be >= 1")
    samples = np.arange(n_samples, dtype=np.uint64)
    return draw_normals(seed, _per_lane(block), step, samples, dims)


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
