"""Lossless residual channel: range coder over discretized-Gaussian symbols.

The coder is the classic carry-propagating byte-renormalized range coder
(32-bit range, 64-bit low with cache/carry), with 16-bit symbol frequencies.
Its per-symbol loops run on Python ints, and each symbol model's frequency
table is built once and cached.
The Gaussian CDF is a fixed rational approximation so encoder and decoder
always derive identical frequency tables from the same (mu, sigma).
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CorruptStreamError, UsageError

PRECISION_BITS = 16
TOTAL_FREQ = 1 << PRECISION_BITS

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


@dataclass(frozen=True)
class DiscretizedGaussian:
    """Integer symbol model: pmf(r) from the Gaussian CDF over [lo, hi]."""

    mu: float
    sigma: float
    lo: int = -255
    hi: int = 255

    def __post_init__(self):
        if self.sigma <= 0:
            raise UsageError("sigma must be positive")
        if self.hi < self.lo:
            raise UsageError("empty support")


def pmf_quantized(model: DiscretizedGaussian, precision_bits: int = PRECISION_BITS) -> np.ndarray:
    """Integer frequency table summing exactly to 2**precision_bits.

    Every in-support symbol keeps at least one tick; the rounding surplus or
    deficit is absorbed by the most probable symbols.
    """
    total = 1 << precision_bits
    support = model.hi - model.lo + 1
    if support > total:
        raise ConfigError(f"support {support} wider than {total} symbols")
    r = np.arange(model.lo, model.hi + 1, dtype=np.float64)
    upper = norm_cdf((r + 0.5 - model.mu) / model.sigma)
    lower = norm_cdf((r - 0.5 - model.mu) / model.sigma)
    p = np.maximum(upper - lower, 0.0)
    mass = p.sum()
    if mass <= 0:
        # Degenerate model entirely outside the support: nearest edge wins.
        p[np.argmin(np.abs(r - model.mu))] = 1.0
        mass = 1.0
    freq = np.maximum(np.rint(p / mass * total).astype(np.int64), 1)
    excess = int(freq.sum()) - total
    while excess > 0:
        i = int(np.argmax(freq))
        take = min(excess, int(freq[i]) - 1)
        if take == 0:
            raise ConfigError("cannot normalize frequency table")
        freq[i] -= take
        excess -= take
    if excess < 0:
        freq[int(np.argmax(freq))] += -excess
    return freq


@functools.lru_cache(maxsize=64)
def _table(model: DiscretizedGaussian) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(frequencies, cumulative frequencies) of one symbol model, as ints.

    Built once per model; pmf_quantized is looked up as a module global so a
    cache miss is visible to anything that wraps it.
    """
    freq = pmf_quantized(model).tolist()
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


def _model_list(models, count: int):
    if isinstance(models, DiscretizedGaussian):
        return [models] * count
    models = list(models)
    if len(models) != count:
        raise UsageError(f"expected {count} symbol models, got {len(models)}")
    return models


def encode_residuals(residuals, models) -> bytes:
    """Range-code integer residuals under their per-symbol Gaussian models."""
    residuals = np.asarray(residuals, dtype=np.int64)
    models = _model_list(models, residuals.size)
    low, rng, cache, cache_size = 0, _MASK32, 0, 1
    out = bytearray()
    model = None
    for value, next_model in zip(residuals.tolist(), models):
        if next_model is not model:
            model = next_model
            freq, cum = _table(model)
            lo, hi = model.lo, model.hi
        if not lo <= value <= hi:
            raise UsageError(f"residual {value} outside [{lo}, {hi}]")
        sym = value - lo
        r = rng // TOTAL_FREQ
        low += cum[sym] * r
        rng = r * freq[sym]
        while rng < _TOP:
            rng = (rng << 8) & _MASK32
            low, cache, cache_size = _shift_low(low, cache, cache_size, out)
    for _ in range(5):
        low, cache, cache_size = _shift_low(low, cache, cache_size, out)
    return bytes(out)


def decode_residuals(data: bytes, models, count: int) -> np.ndarray:
    """Exact inverse of encode_residuals given identical models."""
    models = _model_list(models, count)
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    if len(data) < 5:
        raise CorruptStreamError("range coder input exhausted")
    code = int.from_bytes(data[:5], "big") & _MASK32
    pos, end = 5, len(data)
    rng = _MASK32
    out = []
    model = None
    for next_model in models:
        if next_model is not model:
            model = next_model
            freq, cum = _table(model)
            lo = model.lo
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
        out.append(sym + lo)
    return np.array(out, dtype=np.int64)
