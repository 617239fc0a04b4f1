"""Relative-entropy-coding codec and image compression pipeline."""

from .chain import AuxSchedule, build_schedule, schedule_from_steps
from .codec import RecConfig, decode, encode, importance_select
from .errors import (
    ConfigError,
    CorruptStreamError,
    FormatError,
    IrecError,
    ModelMismatchError,
    NumericError,
    UsageError,
)
from .gauss import DiagGaussian, kl_divergence, whiten
from .model import ImageGray8, LinearGaussianModel, fit_ppca
from .pipeline import (
    CompressionResult,
    compress_lossless,
    compress_lossy,
    decompress_lossless,
    decompress_lossy,
)

__all__ = [
    "AuxSchedule",
    "CompressionResult",
    "ConfigError",
    "CorruptStreamError",
    "DiagGaussian",
    "FormatError",
    "ImageGray8",
    "IrecError",
    "LinearGaussianModel",
    "ModelMismatchError",
    "NumericError",
    "RecConfig",
    "UsageError",
    "build_schedule",
    "compress_lossless",
    "compress_lossy",
    "decode",
    "decompress_lossless",
    "decompress_lossy",
    "encode",
    "fit_ppca",
    "importance_select",
    "kl_divergence",
    "schedule_from_steps",
    "whiten",
]
