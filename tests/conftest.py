"""Shared fixtures and helpers for the test suite."""

import math

import numpy as np
import pytest

from irec.errors import UsageError
from irec.model import (
    PATCH_DIM,
    ImageGray8,
    LinearGaussianModel,
    fit_ppca,
    quantize_clamp,
    tile_grid,
    unpatchify,
)


def make_training_patches(rng, n=600, latent=8, noise_var=4.0):
    """Patches from a ground-truth linear-Gaussian generator."""
    w_true = rng.normal(size=(PATCH_DIM, latent)) * np.linspace(8.0, 2.0, latent)
    mu_true = np.full(PATCH_DIM, 120.0)
    z = rng.normal(size=(n, latent))
    noise = rng.normal(scale=np.sqrt(noise_var), size=(n, PATCH_DIM))
    return z @ w_true.T + mu_true + noise


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


@pytest.fixture(scope="session")
def fitted_model() -> LinearGaussianModel:
    rng = np.random.default_rng(2024)
    return fit_ppca(make_training_patches(rng), latent_dim=8)


@pytest.fixture(scope="session")
def small_image(fitted_model) -> ImageGray8:
    rng = np.random.default_rng(7)
    return sample_image(fitted_model, rng, 16, 16)
