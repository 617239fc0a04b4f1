"""Linear-Gaussian latent model (probabilistic PCA) and image patch I/O.

The model has exact diagonal Gaussian posteriors because W is kept
column-orthogonal (eigenbasis, descending eigenvalues, sign fixed so the
largest-magnitude component of each column is positive). Pixels are modeled
in raw [0, 255] units, mean-centered by mu.

posterior and reconstruct map all patches at once, in a stated summation order.

Model files use the "LGM1" format: magic, D u32, L u32, mu (D f64 LE),
W (D*L f64 LE row-major), noise variance f64 LE, all finite, with D = 64
(one 8x8 patch) and L >= 1. model_id is FNV-1a-64 over the file bytes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, UsageError
from .gauss import DiagGaussian

PATCH_SIDE = 8
PATCH_DIM = PATCH_SIDE * PATCH_SIDE

NOISE_FLOOR = 1e-6

_PSNR_CAP = 99.0

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


@dataclass(frozen=True)
class ImageGray8:
    width: int
    height: int
    pixels: np.ndarray  # uint8, shape (height, width)

    def __post_init__(self):
        pixels = np.asarray(self.pixels, dtype=np.uint8).reshape(
            self.height, self.width
        )
        pixels.setflags(write=False)
        object.__setattr__(self, "pixels", pixels)


@dataclass(frozen=True)
class LinearGaussianModel:
    W: np.ndarray  # (D, L)
    mu: np.ndarray  # (D,)
    noise_var: float

    def __post_init__(self):
        W = np.asarray(self.W, dtype=np.float64)
        mu = np.asarray(self.mu, dtype=np.float64)
        if W.ndim != 2 or mu.shape != (W.shape[0],):
            raise UsageError("W must be (D, L) and mu (D,)")
        W.setflags(write=False)
        mu.setflags(write=False)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "noise_var", max(float(self.noise_var), NOISE_FLOOR))

    @property
    def data_dim(self) -> int:
        return self.W.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.W.shape[1]

    def to_bytes(self) -> bytes:
        d, latent = self.W.shape
        out = bytearray(b"LGM1")
        out += d.to_bytes(4, "little")
        out += latent.to_bytes(4, "little")
        out += self.mu.astype("<f8").tobytes()
        out += self.W.astype("<f8").tobytes(order="C")
        out += np.float64(self.noise_var).astype("<f8").tobytes()
        return bytes(out)

    @functools.cached_property
    def model_id(self) -> int:
        """FNV-1a-64 of the file bytes, computed once per model."""
        return fnv1a64(self.to_bytes())


def save_model(model: LinearGaussianModel, path) -> None:
    with open(path, "wb") as fh:
        fh.write(model.to_bytes())


def load_model(path) -> LinearGaussianModel:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != b"LGM1":
        raise FormatError("not an LGM1 model file")
    d = int.from_bytes(data[4:8], "little")
    latent = int.from_bytes(data[8:12], "little")
    if d != PATCH_DIM or latent == 0:
        raise FormatError(f"model D = {d}, L = {latent}; 8x8 patches need 64 and >= 1")
    expected = 12 + 8 * (d + d * latent + 1)
    if len(data) != expected:
        raise FormatError(f"model file length {len(data)} != expected {expected}")
    mu = np.frombuffer(data, dtype="<f8", count=d, offset=12)
    w = np.frombuffer(data, dtype="<f8", count=d * latent, offset=12 + 8 * d)
    noise_var = float(
        np.frombuffer(data, dtype="<f8", count=1, offset=12 + 8 * d * (1 + latent))[0]
    )
    if not (np.isfinite(mu).all() and np.isfinite(w).all() and math.isfinite(noise_var)):
        raise FormatError("model file holds a non-finite parameter")
    if noise_var < NOISE_FLOOR:
        # The constructor would raise it to the floor, and model_id would then
        # hash other bytes than the file's.
        raise FormatError(f"model noise variance {noise_var} is below {NOISE_FLOOR}")
    return LinearGaussianModel(W=w.reshape(d, latent), mu=mu, noise_var=noise_var)


def fit_ppca(patches, latent_dim: int) -> LinearGaussianModel:
    """Closed-form maximum-likelihood fit via eigendecomposition.

    Noise variance is the mean of the discarded eigenvalues; columns whose
    eigenvalue falls below it are clamped to zero (pruned dimensions).
    """
    x = np.asarray(patches, dtype=np.float64)
    if x.ndim != 2:
        raise UsageError("patches must be a 2-D array (n, D)")
    n, d = x.shape
    if not 1 <= latent_dim < d:
        raise UsageError(f"latent_dim must be in [1, {d})")
    if n < d + 1:
        raise UsageError(f"need at least {d + 1} patches, got {n}")
    mu = x.mean(axis=0)
    xc = x - mu
    cov = xc.T @ xc / n
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    noise_var = max(float(np.mean(evals[latent_dim:])), NOISE_FLOOR)
    w = np.zeros((d, latent_dim))
    for j in range(latent_dim):
        vec = evecs[:, j]
        if vec[np.argmax(np.abs(vec))] < 0:
            vec = -vec
        w[:, j] = vec * math.sqrt(max(float(evals[j]) - noise_var, 0.0))
    return LinearGaussianModel(W=w, mu=mu, noise_var=noise_var)


def posterior(model: LinearGaussianModel, x: np.ndarray) -> DiagGaussian:
    """Exact posterior of patches x (..., D), diagonal as W is column-orthogonal:
    the mean sums (x_i - mu_i) W[i] over i = 0..D-1 in order, times var / sigma^2."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1:] != (model.data_dim,):
        raise UsageError(f"expected data vector of length {model.data_dim}")
    var = posterior_var(model)
    mean = np.zeros(x.shape[:-1] + var.shape)
    for term in np.moveaxis((x - model.mu)[..., None] * model.W, -2, 0):
        mean += term
    return DiagGaussian(mean * (var / model.noise_var), np.sqrt(var))


def posterior_var(model: LinearGaussianModel) -> np.ndarray:
    """Posterior variance of each latent, sigma^2 / (|w_j|^2 + sigma^2).

    It does not depend on the patch, so a decoder knows it from the model
    alone; container v2 builds its step schedule from it (FORMAT.md §5).
    """
    wtw = np.sum(model.W * model.W, axis=0)
    return model.noise_var / (wtw + model.noise_var)


def reconstruct(model: LinearGaussianModel, z: np.ndarray) -> np.ndarray:
    """x_hat = ((mu + z_0 W[:, 0]) + z_1 W[:, 1]) + ... for z (..., L), FORMAT.md §6."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape[-1:] != (model.latent_dim,):
        raise UsageError(f"expected latent vector of length {model.latent_dim}")
    x_hat = np.broadcast_to(model.mu, z.shape[:-1] + model.mu.shape).copy()
    for z_j, w_col in zip(np.moveaxis(z, -1, 0)[..., None], model.W.T):
        x_hat += z_j * w_col
    return x_hat


def quantize_clamp(v: np.ndarray) -> np.ndarray:
    """Round half away from zero, then clamp to [0, 255] as uint8."""
    v = np.asarray(v, dtype=np.float64)
    rounded = np.sign(v) * np.floor(np.abs(v) + 0.5)
    return np.clip(rounded, 0, 255).astype(np.uint8)


def psnr(a: ImageGray8, b: ImageGray8) -> float:
    if (a.width, a.height) != (b.width, b.height):
        raise UsageError("image dimensions differ")
    diff = a.pixels.astype(np.float64) - b.pixels.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return _PSNR_CAP
    return min(10.0 * math.log10(255.0**2 / mse), _PSNR_CAP)


def tile_grid(width: int, height: int) -> tuple[int, int]:
    """Rows and columns of the 8x8 tiles that cover a width x height image."""
    return -(-height // PATCH_SIDE), -(-width // PATCH_SIDE)


def patchify(img: ImageGray8) -> np.ndarray:
    """Non-overlapping 8x8 tiles in row-major order, edges zero-padded, as rows."""
    side = PATCH_SIDE
    rows, cols = tile_grid(img.width, img.height)
    plane = np.zeros((rows * side, cols * side))
    plane[: img.height, : img.width] = img.pixels
    return plane.reshape(rows, side, cols, side).swapaxes(1, 2).reshape(-1, PATCH_DIM)


def unpatchify(patches, width: int, height: int) -> np.ndarray:
    """Reassemble real-valued patches (rows or a list); crops edge padding."""
    side = PATCH_SIDE
    rows, cols = tile_grid(width, height)
    if len(patches) != rows * cols:
        raise UsageError(f"expected {rows * cols} patches, got {len(patches)}")
    tiles = np.asarray(patches, dtype=np.float64).reshape(rows, cols, side, side)
    return tiles.swapaxes(1, 2).reshape(rows * side, cols * side)[:height, :width]


def read_pgm(path) -> ImageGray8:
    """Binary 8-bit PGM (P5) reader; supports '#' comments."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"P5":
        raise FormatError("not a binary PGM (P5) file")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError("truncated PGM header")
        token = data[start:pos]
        if not token.isdigit():
            raise FormatError(f"non-numeric PGM header field {token!r}")
        fields.append(int(token))
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if maxval != 255:
        raise FormatError(f"unsupported PGM maxval {maxval}")
    need = width * height
    raster = data[pos : pos + need]
    if len(raster) != need:
        raise FormatError("truncated PGM raster")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    return ImageGray8(width=width, height=height, pixels=pixels)


def write_pgm(img: ImageGray8, path) -> None:
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.width} {img.height}\n255\n".encode())
        fh.write(img.pixels.tobytes())
