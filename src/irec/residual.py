"""Lossless residual channel: range coder over one discretized-Gaussian model.

Every residual is coded under the same symbol model (FORMAT.md §6): a
Gaussian with mean 0 and standard deviation sigma, discretized on the
support [LO, HI] = [-255, 255] into 16-bit frequencies. The Gaussian CDF is
a fixed rational approximation, so encoder and decoder derive identical
frequency tables from the same sigma, and each sigma's table is built once
and cached.
The coder is the classic carry-propagating byte-renormalized range coder
(32-bit range, 64-bit low with cache/carry); its per-symbol loops run on
Python ints. Its byte stream drops what the decoder can restore: the first
byte, always 0, and the trailing zero bytes of the flush.
"""

from __future__ import annotations

import bisect
import functools
import itertools

import numpy as np

from .errors import CorruptStreamError, UsageError

LO, HI = -255, 255
TOTAL_FREQ = 1 << 16

_TOP = 1 << 24
_MASK32 = 0xFFFFFFFF

# Abramowitz & Stegun 26.2.17 coefficients; max abs error < 7.5e-8.
_AS_B = (0.319381530, -0.356563782, 1.781477937, -1.821255978, 1.330274429)
_AS_P = 0.2316419
_INV_SQRT_2PI = 0.3989422804014327


def norm_cdf(x) -> np.ndarray:
    """Standard normal CDF via a pinned rational approximation."""
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    t = 1.0 / (1.0 + _AS_P * ax)
    poly = t * (
        _AS_B[0]
        + t * (_AS_B[1] + t * (_AS_B[2] + t * (_AS_B[3] + t * _AS_B[4])))
    )
    upper = 1.0 - _INV_SQRT_2PI * np.exp(-0.5 * ax * ax) * poly
    return np.where(x >= 0, upper, 1.0 - upper)


def pmf_quantized(sigma: float) -> np.ndarray:
    """Frequencies of the symbols LO..HI, summing exactly to TOTAL_FREQ.

    Every symbol keeps at least one tick; the rounding surplus or deficit is
    absorbed by the most probable symbols.
    """
    if not sigma > 0:
        raise UsageError("sigma must be positive")
    r = np.arange(LO, HI + 1, dtype=np.float64)
    p = np.maximum(norm_cdf((r + 0.5) / sigma) - norm_cdf((r - 0.5) / sigma), 0.0)
    mass = p.sum()
    if mass <= 0:
        # So wide that every symbol's mass rounds to zero (a model file can
        # hold such a noise variance): the centre symbol takes it all.
        p[-LO] = 1.0
        mass = 1.0
    freq = np.maximum(np.rint(p / mass * TOTAL_FREQ).astype(np.int64), 1)
    excess = int(freq.sum()) - TOTAL_FREQ
    while excess > 0:
        # The largest of HI - LO + 1 < TOTAL_FREQ frequencies summing past
        # TOTAL_FREQ is above 1, so every pass takes at least one tick.
        i = int(np.argmax(freq))
        take = min(excess, int(freq[i]) - 1)
        freq[i] -= take
        excess -= take
    if excess < 0:
        freq[int(np.argmax(freq))] += -excess
    return freq


@functools.lru_cache(maxsize=64)
def _table(sigma: float) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(frequencies, cumulative frequencies) of one sigma's model, as ints.

    Built once per sigma; pmf_quantized is looked up as a module global so a
    cache miss is visible to anything that wraps it.
    """
    freq = pmf_quantized(sigma).tolist()
    return tuple(freq), tuple(itertools.accumulate(freq, initial=0))


def _shift_low(low: int, cache: int, cache_size: int, out: bytearray):
    """Emit the settled top byte of low, propagating a pending carry."""
    if (low & _MASK32) < 0xFF000000 or low > _MASK32:
        carry = low >> 32
        out.append((cache + carry) & 0xFF)
        out.extend(bytes([(0xFF + carry) & 0xFF]) * (cache_size - 1))
        cache_size = 0
        cache = (low >> 24) & 0xFF
    return (low << 8) & _MASK32, cache, cache_size + 1


def encode_residuals(residuals, sigma: float) -> bytes:
    """Range-code integer residuals in [LO, HI] under the model of sigma.

    The coder's first byte is always 0 and is not written. The flush writes
    the value in the final interval with the most trailing zero bytes and
    drops those bytes, since decode_residuals reads zeros past the end.
    """
    freq, cum = _table(sigma)
    low, rng, cache, cache_size = 0, _MASK32, 0, 1
    out = bytearray()
    for value in np.asarray(residuals, dtype=np.int64).tolist():
        if not LO <= value <= HI:
            raise UsageError(f"residual {value} outside [{LO}, {HI}]")
        sym = value - LO
        r = rng // TOTAL_FREQ
        low += cum[sym] * r
        rng = r * freq[sym]
        while rng < _TOP:
            rng = (rng << 8) & _MASK32
            low, cache, cache_size = _shift_low(low, cache, cache_size, out)
    # Pin the final interval [low, top]: rng >= 2^24, so it holds a multiple
    # of 2^24; take a multiple of 2^32 where it holds one.
    top = low + rng - 1
    low = top >> 32 << 32 if top >> 32 << 32 >= low else top >> 24 << 24
    for _ in range(5):
        low, cache, cache_size = _shift_low(low, cache, cache_size, out)
    # The last four bytes are the pinned value's; drop its trailing zeros.
    end = len(out)
    while end > len(out) - 4 and not out[end - 1]:
        end -= 1
    return bytes(out[1:end])


def decode_residuals(data: bytes, sigma: float, count: int, full: bool = False) -> np.ndarray:
    """Exact inverse of encode_residuals given the same sigma; data that it
    would not write for the decoded residuals raises CorruptStreamError.

    With full=True, data is the coder's full byte stream, as versions 1 and 2
    of the container store it: the leading 0 and a 5-byte flush, with no
    byte read past the end.
    """
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    if not full:
        data = b"\0" + data + bytes(4)
    if len(data) < 5:
        raise CorruptStreamError("range coder input exhausted")
    freq, cum = _table(sigma)
    code = int.from_bytes(data[:5], "big") & _MASK32
    pos, end = 5, len(data)
    rng = _MASK32
    out = []
    for _ in range(count):
        rng //= TOTAL_FREQ
        sym = bisect.bisect_right(cum, min(code // rng, TOTAL_FREQ - 1)) - 1
        code -= cum[sym] * rng
        rng *= freq[sym]
        while rng < _TOP:
            if pos >= end:
                raise CorruptStreamError("range coder input exhausted")
            code = ((code << 8) | data[pos]) & _MASK32
            pos += 1
            rng = (rng << 8) & _MASK32
        out.append(sym + LO)
    if not full:
        # Only the canonical section decodes (FORMAT.md §6): the last four bytes
        # read are the encoder's flush value, and exactly its trailing zeros implied.
        flushed = int.from_bytes(data[pos - 4 : pos], "big")
        low = (flushed - code) & _MASK32
        top = low + rng - 1
        pinned = 0 if low == 0 or top > _MASK32 else top >> 24 << 24
        if flushed != pinned or end - pos != (1 if pinned else 0):
            raise CorruptStreamError("residual section is not the encoder's flush")
    return np.array(out, dtype=np.int64)
