"""Diagonal Gaussian algebra: KL divergence and prior whitening.

All probability arithmetic is float64 and in nats; bits appear only at
serialization boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError

# Collapsed posterior dimensions are clamped here so log-densities stay finite.
STD_FLOOR = 1e-6


@dataclass(frozen=True)
class DiagGaussian:
    """Diagonal Gaussian, or a batch sharing one std: mean (..., D), std (D,)."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        std = np.asarray(self.std, dtype=np.float64)
        if std.ndim != 1 or mean.shape[-1:] != std.shape or mean.size < 1:
            raise UsageError(f"mean/std shape mismatch: {mean.shape} vs {std.shape}")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(std))):
            raise UsageError("non-finite Gaussian parameters")
        std = np.maximum(std, STD_FLOOR)
        mean.setflags(write=False)
        std.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    @property
    def dim(self) -> int:
        return self.std.size

    @property
    def var(self) -> np.ndarray:
        return self.std * self.std

    @staticmethod
    def standard(dim: int) -> "DiagGaussian":
        return DiagGaussian(np.zeros(dim), np.ones(dim))


def _check_dims(q: DiagGaussian, p: DiagGaussian) -> None:
    if q.dim != p.dim:
        raise UsageError(f"dimension mismatch: {q.dim} vs {p.dim}")


def kl_divergence(q: DiagGaussian, p: DiagGaussian) -> np.float64 | np.ndarray:
    """Analytic KL(q || p) in nats, summed over the last axis (one per row)."""
    _check_dims(q, p)
    ratio = q.var / p.var
    delta = (q.mean - p.mean) / p.std
    return 0.5 * np.sum(ratio + delta * delta - 1.0 - np.log(ratio), axis=-1)


def whiten(q: DiagGaussian, p: DiagGaussian) -> DiagGaussian:
    """Re-express q in coordinates where p becomes the standard normal.

    A whitened sample z maps back to the original coordinates as
    p.std * z + p.mean.
    """
    _check_dims(q, p)
    return DiagGaussian((q.mean - p.mean) / p.std, q.std / p.std)
