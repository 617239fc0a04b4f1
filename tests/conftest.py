"""Shared fixtures and helpers for the test suite."""

import math
import struct
import zlib
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import irec.chain
from irec.container import index_bits, write_varint
from irec.errors import UsageError
from irec.model import (
    PATCH_DIM,
    ImageGray8,
    LinearGaussianModel,
    fit_ppca,
    load_model,
    quantize_clamp,
    tile_grid,
    unpatchify,
)

# fit_golden_model(L) for L = 8 and 16, saved once as LGM1 files: an
# eigendecomposition's last bits depend on the host's BLAS, and the golden
# containers on those bits.
GOLDEN_MODEL_PATHS = {L: Path(__file__).with_name("data") / f"model_l{L}.lgm" for L in (8, 16)}


def make_training_patches(rng, n=600, latent=8, noise_var=4.0):
    """Patches from a ground-truth linear-Gaussian generator."""
    w_true = rng.normal(size=(PATCH_DIM, latent)) * np.linspace(8.0, 2.0, latent)
    mu_true = np.full(PATCH_DIM, 120.0)
    z = rng.normal(size=(n, latent))
    noise = rng.normal(scale=np.sqrt(noise_var), size=(n, PATCH_DIM))
    return z @ w_true.T + mu_true + noise


def fit_golden_model(latent: int) -> LinearGaussianModel:
    """The model of GOLDEN_MODEL_PATHS[latent], fitted on this host."""
    patches = make_training_patches(np.random.default_rng(2024), latent=latent)
    return fit_ppca(patches, latent_dim=latent)


def sample_image(model: LinearGaussianModel, rng, width: int, height: int) -> ImageGray8:
    """Draw an image from the model's own generative process."""
    rows, cols = tile_grid(width, height)
    patches = []
    for _ in range(rows * cols):
        z = rng.normal(size=model.latent_dim)
        x = model.W @ z + model.mu + rng.normal(
            scale=np.sqrt(model.noise_var), size=model.data_dim
        )
        patches.append(quantize_clamp(x).astype(np.float64))
    plane = unpatchify(patches, width, height)
    return ImageGray8(width=width, height=height, pixels=plane.astype(np.uint8))


def log_density(g, z) -> float:
    """log density of z under the diagonal Gaussian g, in nats."""
    z = np.asarray(z, dtype=np.float64)
    d = (z - g.mean) / g.std
    return float(np.sum(-np.log(g.std) - 0.5 * (d * d + math.log(2.0 * math.pi))))


def log_density_ratio(q, p, z) -> float:
    """log q(z) - log p(z) in nats, for diagonal Gaussians q and p."""
    z = np.asarray(z, dtype=np.float64)
    if not z.shape == q.mean.shape == p.mean.shape:
        raise UsageError(f"dimension mismatch: {z.shape}, {q.mean.shape}, {p.mean.shape}")
    dq = (z - q.mean) / q.std
    dp = (z - p.mean) / p.std
    return float(
        np.sum(np.log(p.std) - np.log(q.std) + 0.5 * (dp * dp - dq * dq))
    )


def _mixed_radix(tup, m):
    """sum_k i_k * M^k, the packed value of an index tuple (docs/FORMAT.md §3)."""
    return reduce(lambda value, i: value * m + i, reversed(tup), 0)


def pack_v2(h, blocks, residual=None, version=2, latent=4):
    """The version-1/2 layout of docs/FORMAT.md, as its encoders wrote it."""
    m = h.M
    out = bytearray(struct.pack(
        "<4sBBQddQIIII", b"IREC", version, residual is not None, h.seed, h.omega,
        h.epsilon, h.model_id, len(blocks), latent, h.image_width, h.image_height,
    ))
    for tup in blocks:
        nbytes = (index_bits(len(tup), m) + 7) // 8
        out += write_varint(len(tup)) + _mixed_radix(tup, m).to_bytes(nbytes, "big")
    if residual is not None:
        out += struct.pack("<I", h.image_width * h.image_height) + residual
    return bytes(out)


def raw_v3(blocks, m, seed=12345, omega=3.0, epsilon=0.2, model_id=0xDEADBEEF,
           width=8, height=8, residual=None, flags=None, k_min=None, k_width=None):
    """The version-3 layout of docs/FORMAT.md, written field by field.

    It writes any field values, including those pack refuses (a K over
    K_MAX, a non-canonical K field), so tests can hand-craft such files.
    """
    ks = [len(t) for t in blocks]
    k_min = min(ks) if k_min is None else k_min
    k_width = (max(ks) - k_min).bit_length() if k_width is None else k_width
    bits = "".join(format(k - k_min, "b").zfill(k_width) for k in ks) if k_width else ""
    for t in blocks:
        bits += format(_mixed_radix(t, m), "b").zfill(index_bits(len(t), m))
    bits += "0" * (-len(bits) % 8)
    if flags is None:
        flags = residual is not None
    body = (
        b"IREC" + bytes([0x83, flags]) + write_varint(seed)
        + struct.pack("<ddQ", omega, epsilon, model_id)
        + write_varint(width) + write_varint(height) + write_varint(k_min) + bytes([k_width])
        + int(bits or "0", 2).to_bytes(len(bits) // 8, "big") + (residual or b"")
    )
    return body + struct.pack("<I", zlib.crc32(body))


def reseal(data):
    """The file with its CRC32 recomputed, as a deliberate edit would leave it."""
    return data[:-4] + struct.pack("<I", zlib.crc32(data[:-4]))


@pytest.fixture(scope="session")
def fitted_model() -> LinearGaussianModel:
    return load_model(GOLDEN_MODEL_PATHS[8])


@pytest.fixture(scope="session")
def small_image(fitted_model) -> ImageGray8:
    rng = np.random.default_rng(7)
    return sample_image(fitted_model, rng, 16, 16)


@pytest.fixture()
def equal_kl_calls(monkeypatch):
    """The K of each equal-KL schedule built from here on (cached ones excepted)."""
    calls = []
    equal_kl = irec.chain._equal_kl

    def counting(*args):
        calls.append(args[0])
        return equal_kl(*args)

    monkeypatch.setattr(irec.chain, "_equal_kl", counting)
    return calls
