"""Lossless residual channel: range coder over one discretized-Gaussian model.

Every residual is coded under the same symbol model (FORMAT.md §6): a
Gaussian with mean 0 and standard deviation sigma, discretized on the
support [LO, HI] = [-255, 255] into 16-bit frequencies. The Gaussian CDF is
a fixed rational approximation, so encoder and decoder derive identical
frequency tables from the same sigma, and each sigma's table is built once
and cached, with a 65,536-slot table that maps each 16-bit cumulative value
to its symbol.
The coder is the classic carry-propagating byte-renormalized range coder
(32-bit range and low); its per-symbol loops run on Python ints. The
decoder finds each symbol in the slot table. The encoder writes each byte
as it leaves low and handles a carry inline, by adding one to the bytes
already written. Its byte stream drops what the decoder can restore: the
first byte, always 0, and the trailing zero bytes of the flush.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import CorruptStreamError, UsageError
from .stream import check_int

LO, HI = -255, 255
_FREQ_BITS = 16
TOTAL_FREQ = 1 << _FREQ_BITS

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
def _table(sigma: float) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(frequencies, cumulative frequencies, slot table) of one sigma's model.

    Slot q of the slot table, 0 <= q < TOTAL_FREQ, holds the symbol whose
    cumulative range [cum[s], cum[s + 1]) holds q. Built once per sigma;
    pmf_quantized is looked up as a module global so a cache miss is visible
    to anything that wraps it.
    """
    freq = pmf_quantized(sigma).tolist()
    slots = tuple(itertools.chain.from_iterable(map(itertools.repeat, range(len(freq)), freq)))
    return tuple(freq), tuple(itertools.accumulate(freq, initial=0)), slots


def encode_residuals(residuals, sigma: float) -> bytes:
    """Range-code integer residuals in [LO, HI] under the model of sigma.

    The coder's first byte is always 0 and is not written. The flush writes
    the value in the final interval with the most trailing zero bytes and
    drops those bytes, since decode_residuals reads zeros past the end.
    """
    values = np.asarray(residuals)
    if values.ndim != 1 or (values.dtype.kind not in "iu" and values.size):
        raise UsageError(f"residuals must be a 1-D integer array, got {values.dtype} {values.shape}")
    outside = (values < LO) | (values > HI)
    if outside.any():
        raise UsageError(f"residual {values[outside.argmax()]} outside [{LO}, {HI}]")
    freq, cum, _ = _table(sigma)
    mask, min_rng = _MASK32, _TOP
    low, rng = 0, mask
    # Bytes are written as soon as they leave low; a carry out of low adds
    # one to what is written, and the leading 0 byte stops it.
    out = bytearray(1)
    for sym in (values.astype(np.int64) - LO).tolist():
        r = rng >> _FREQ_BITS
        low += cum[sym] * r
        rng = r * freq[sym]
        if low > mask:
            low &= mask
            i = -1
            while out[i] == 0xFF:
                out[i] = 0
                i -= 1
            out[i] += 1
        while rng < min_rng:
            out.append(low >> 24)
            low = (low << 8) & mask
            rng <<= 8
    # The flush value is 0 if low is 0, else 2^32 if the final interval
    # [low, low + rng) holds it (a carry), else the interval's top rounded
    # down to a multiple of 2^24 (rng >= 2^24): its top byte, then zeros.
    top = low + rng - 1
    if top > mask:
        out = (int.from_bytes(out, "big") + 1).to_bytes(len(out), "big")
    elif low:
        out.append(top >> 24)
    return bytes(out[1:])


def decode_residuals(data: bytes, sigma: float, count: int, full: bool = False) -> np.ndarray:
    """Exact inverse of encode_residuals given the same sigma; data that it
    would not write for the decoded residuals raises CorruptStreamError.

    With full=True, data is the coder's full byte stream, as versions 1 and 2
    of the container store it: the leading 0 and a 5-byte flush, read to its
    last byte and never past it.
    """
    count = check_int("residual count", count)
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    if not full:
        data = b"\0" + data + bytes(4)
    if len(data) < 5:
        raise CorruptStreamError("range coder input exhausted")
    freq, cum, slots = _table(sigma)
    mask, min_rng, last = _MASK32, _TOP, TOTAL_FREQ - 1
    code = int.from_bytes(data[:5], "big") & mask
    pos, end = 5, len(data)
    rng = mask
    syms = []
    append = syms.append
    try:
        for _ in itertools.repeat(None, count):
            rng >>= _FREQ_BITS
            q = code // rng
            sym = slots[q if q < last else last]
            code -= cum[sym] * rng
            rng *= freq[sym]
            while rng < min_rng:
                code = ((code << 8) | data[pos]) & mask
                pos += 1
                rng <<= 8
            append(sym)
    except IndexError:
        raise CorruptStreamError("range coder input exhausted") from None
    if not full:
        # Only the canonical section decodes (FORMAT.md §6): the last four bytes
        # read are the encoder's flush value, and exactly its trailing zeros implied.
        flushed = int.from_bytes(data[pos - 4 : pos], "big")
        low = (flushed - code) & _MASK32
        top = low + rng - 1
        pinned = 0 if low == 0 or top > _MASK32 else top >> 24 << 24
        if flushed != pinned or end - pos != (1 if pinned else 0):
            raise CorruptStreamError("residual section is not the encoder's flush")
    elif data[0] or pos != end:
        raise CorruptStreamError("range coder stream must start with 0 and end at its flush")
    return np.array(syms, dtype=np.int64) + LO
