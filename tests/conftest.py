"""Shared fixtures and helpers for the test suite."""

import math
import struct
import zlib
from collections import Counter
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import irec.chain
import irec.stream
from irec.container import index_bits, unpack, write_varint
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


def raw_v4(blocks, m, seed=12345, omega=3000, epsilon=200, model_id=0xDEADBEEF,
           width=8, height=8, residual=None, flags=None, k_min=None, k_width=None,
           centre=None, version=4, residual_length=None):
    """The version-4 or version-5 layout of docs/FORMAT.md, written field by field.

    omega and epsilon are counts of thousandths. With no K-field argument it
    writes the canonical K field; a centre gives a prefix-coded field and
    k_min or k_width a fixed-width one, canonical or not. Version 5 stores the
    low 32 bits of model_id and, before a residual, its byte count or any
    residual_length.
    """
    ks = sorted(len(t) for t in blocks)
    if centre is None and k_min is None and k_width is None:
        lo, median = ks[0], ks[(len(ks) - 1) // 2]
        fixed = 8 * len(write_varint(lo)) + 8 + len(ks) * (ks[-1] - lo).bit_length()
        prefix = 8 * len(write_varint(median)) + sum(_zigzag(k - median) + 1 for k in ks)
        if prefix < fixed:
            centre = median
    if centre is None:
        k_min = ks[0] if k_min is None else k_min
        k_width = (ks[-1] - k_min).bit_length() if k_width is None else k_width
        k_header = write_varint(k_min) + bytes([k_width])
        bits = "".join(format(len(t) - k_min, "b").zfill(k_width) for t in blocks) if k_width else ""
    else:
        k_header = write_varint(centre)
        bits = "".join("1" * _zigzag(len(t) - centre) + "0" for t in blocks)
    for t in blocks:
        bits += format(_mixed_radix(t, m), "b").zfill(index_bits(len(t), m))
    bits += "0" * (-len(bits) % 8)
    if flags is None:
        flags = (residual is not None) | (centre is not None) << 1
    if version == 5 and residual is not None:
        length = len(residual) if residual_length is None else residual_length
        residual = write_varint(length) + residual
    model_field = struct.pack("<Q", model_id) if version == 4 else struct.pack(
        "<I", model_id & 0xFFFFFFFF)
    body = (
        b"IREC" + bytes([0x80 | version, flags]) + write_varint(seed) + write_varint(omega)
        + write_varint(epsilon) + model_field
        + write_varint(width) + write_varint(height) + k_header
        + int(bits or "0", 2).to_bytes(len(bits) // 8, "big") + (residual or b"")
    )
    return body + struct.pack("<I", zlib.crc32(body))


def raw_v5(blocks, m, **fields):
    """The version-5 layout of docs/FORMAT.md: raw_v4's fields, version 5's framing."""
    return raw_v4(blocks, m, version=5, **fields)


def _zigzag(d):
    return 2 * d if d >= 0 else -2 * d - 1


def replay_problems(data, latent_dim, calls):
    """How a decode of the container data broke the draw-replay contract; [] if it kept it.

    calls holds (args, words) for each stream.raw_words call of the decode, as
    raw_words_calls records them: args is (seed, block, step, sample, lanes) and
    words the word count of each returned array. The contract does not depend on
    how the decoder batches its draws: every call uses the header's seed and
    ceil(L / 2) lanes, the multiset of (block, step, sample) addresses drawn is
    the container's {(i, k, i_k)} ({(0, k, i_k)} in version 5, where every
    block draws at block address 0), and the words add up to sum(K) * ceil(L / 2).
    """
    header, blocks, _ = unpack(data)
    lanes = -(-latent_dim // 2)
    problems, drawn, words = [], Counter(), 0
    for n, ((seed, block, step, sample, call_lanes), count) in enumerate(calls):
        if not np.all(np.asarray(seed) == header.seed):
            problems.append(f"call {n}: seed {seed!r}, header seed {header.seed}")
        if call_lanes != lanes:
            problems.append(f"call {n}: {call_lanes!r} lanes, L = {latent_dim} needs {lanes}")
        grid = np.broadcast_arrays(block, step, sample)
        drawn.update(zip(*(np.ravel(x).tolist() for x in grid)))
        words += count
    at = [0] * len(blocks) if header.version == 5 else range(len(blocks))
    chosen = Counter((i, k, idx) for i, code in zip(at, blocks) for k, idx in enumerate(code))
    for name, extra in (("not drawn", chosen - drawn), ("drawn but not chosen", drawn - chosen)):
        if extra:
            problems.append(f"addresses {name}: {sum(extra.values())}, e.g. {min(extra)}")
    if words != sum(chosen.values()) * lanes:
        problems.append(f"{words} words, sum(K) * ceil(L / 2) = {sum(chosen.values()) * lanes}")
    return problems


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


@pytest.fixture()
def raw_words_calls(monkeypatch):
    """(args, words) of each stream.raw_words call from here on: the argument
    tuple and the word count of each returned array. A call is recorded before
    it runs, with words None until it returns, so one that raises still shows."""
    calls = []
    raw_words = irec.stream.raw_words

    def recording(*args):
        n = len(calls)
        calls.append((args, None))
        result = raw_words(*args)
        calls[n] = (args, result[0].size)
        return result

    monkeypatch.setattr(irec.stream, "raw_words", recording)
    return calls
