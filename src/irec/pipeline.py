"""End-to-end lossy and lossless image compression.

Each 8x8 patch is one coded block. One posterior, whiten and KL call cover
every patch of an image. The v2 equal-KL step schedule is built from the
model's posterior variances, the same for every patch, so the step count K
fixes it. All blocks of an image, whatever their K, are coded in one call
(codec.encode_blocks) and decoded in one (codec.decode_blocks); version-1 files
decode with the power-law schedule. One reconstruct call maps all decoded
latents back to pixels. The lossless path adds the range-coded residual of x
minus the quantized reconstruction (container frames it; versions 1 and 2 hold
the coder's full byte stream), using the decoded (possibly biased) latent on
both sides so encoder and decoder stay synchronized; a decoded residual that
takes a pixel outside [0, 255] can only come from a corrupt file. Lossy and
lossless share one body per direction (_compress, _decompress).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import codec, container, model as model_mod, residual as residual_mod
from .chain import build_schedule, schedule_from_steps
from .codec import RecConfig
from .container import ContainerHeader
from .errors import CorruptStreamError, FormatError, ModelMismatchError
from .gauss import DiagGaussian, kl_divergence, whiten
from .model import ImageGray8, LinearGaussianModel

_LN2 = math.log(2.0)


@dataclass
class CompressionResult:
    data: bytes
    kl_per_block: list[float]
    log_w_per_block: list[float]  # achieved log q(z)/p(z), nats
    payload_bits: int
    bpp: float
    psnr: float
    seconds: float


def _encode_blocks(img: ImageGray8, model: LinearGaussianModel, cfg: RecConfig, seed: int):
    """Encode every patch, all blocks in one beam search whatever their K."""
    prior = DiagGaussian.standard(model.latent_dim)
    q = whiten(model_mod.posterior(model, model_mod.patchify(img)), prior)
    kls = kl_divergence(q, prior).tolist()
    s_sq = model_mod.posterior_var(model)
    schedules = [build_schedule(kl, cfg.omega, cfg.epsilon, s_sq) for kl in kls]
    blocks, zs, log_w = codec.encode_blocks(q.mean, q.std, schedules, cfg, seed, range(len(kls)))
    return blocks, kls, zs, log_w.tolist()


def _reconstruct_image(
    zs: np.ndarray, model: LinearGaussianModel, width: int, height: int
) -> ImageGray8:
    recon = model_mod.reconstruct(model, zs)
    plane = model_mod.unpatchify(model_mod.quantize_clamp(recon), width, height)
    return ImageGray8(width=width, height=height, pixels=plane.astype(np.uint8))


def compress_lossy(
    img: ImageGray8, model: LinearGaussianModel, cfg: RecConfig, seed: int
) -> CompressionResult:
    return _compress(img, model, cfg, seed, lossless=False)


def compress_lossless(
    img: ImageGray8, model: LinearGaussianModel, cfg: RecConfig, seed: int
) -> CompressionResult:
    return _compress(img, model, cfg, seed, lossless=True)


def _compress(
    img: ImageGray8, model: LinearGaussianModel, cfg: RecConfig, seed: int, lossless: bool
) -> CompressionResult:
    t0 = time.perf_counter()
    blocks, kls, zs, log_w = _encode_blocks(img, model, cfg, seed)
    recon = _reconstruct_image(zs, model, img.width, img.height)
    coded = None
    if lossless:
        residuals = (
            img.pixels.astype(np.int64) - recon.pixels.astype(np.int64)
        ).reshape(-1)
        coded = residual_mod.encode_residuals(residuals, math.sqrt(model.noise_var))
    header = ContainerHeader(
        seed=seed,
        omega=cfg.omega,
        epsilon=cfg.epsilon,
        model_id=model.model_id,
        image_width=img.width,
        image_height=img.height,
    )
    data = container.pack(header, blocks, residual=coded)
    report = container.codelength_report(header, blocks, kls)
    return CompressionResult(
        data=data,
        kl_per_block=kls,
        log_w_per_block=log_w,
        payload_bits=report["payload_bits"] + report["varint_bits"],
        bpp=8.0 * len(data) / (img.width * img.height),
        psnr=model_mod.psnr(img, recon),
        seconds=time.perf_counter() - t0,
    )


def _decode_blocks(header: ContainerHeader, blocks, model: LinearGaussianModel):
    if header.model_id != model.model_id:
        raise ModelMismatchError(
            f"container model id {header.model_id:#x} != model {model.model_id:#x}"
        )
    # Only versions 1 and 2 store the latent dimension; model_id fixes it.
    if header.latent_dim not in (None, model.latent_dim):
        raise ModelMismatchError("latent dimension mismatch")
    if model.data_dim != model_mod.PATCH_DIM:
        raise ModelMismatchError(f"model patch dimension {model.data_dim} != 64")
    s_sq = None if header.version == 1 else model_mod.posterior_var(model)
    schedules = {  # the schedule depends on K alone
        K: schedule_from_steps(K, header.omega, header.epsilon, s_sq) for K in set(map(len, blocks))
    }
    per_block = [schedules[len(code)] for code in blocks]
    return codec.decode_blocks(blocks, per_block, header.seed, range(len(blocks)), model.latent_dim)


def decompress_lossy(data: bytes, model: LinearGaussianModel) -> ImageGray8:
    return _decompress(data, model, lossless=False)


def decompress_lossless(data: bytes, model: LinearGaussianModel) -> ImageGray8:
    return _decompress(data, model, lossless=True)


def _decompress(data: bytes, model: LinearGaussianModel, lossless: bool) -> ImageGray8:
    header, blocks, coded = container.unpack(data)
    if lossless and coded is None:
        raise FormatError("container has no residual section")
    zs = _decode_blocks(header, blocks, model)
    width, height = header.image_width, header.image_height
    recon = _reconstruct_image(zs, model, width, height)
    if not lossless:
        return recon
    residuals = residual_mod.decode_residuals(
        coded, math.sqrt(model.noise_var), width * height, full=header.version in (1, 2)
    )
    pixels = recon.pixels.astype(np.int64) + residuals.reshape(height, width)
    # A valid file's residuals are x - x_hat, so this sum is x itself.
    if pixels.min() < 0 or pixels.max() > 255:
        raise CorruptStreamError("residual moves a pixel outside [0, 255]")
    return ImageGray8(width=width, height=height, pixels=pixels.astype(np.uint8))


def model_elbo_bits(img: ImageGray8, model: LinearGaussianModel) -> float:
    """Analytic negative ELBO of the image in bits: KL term + residual entropy.

    The residual term uses the entropy of the discretized per-pixel noise
    model, matching what the lossless residual coder can achieve.
    """
    q = model_mod.posterior(model, model_mod.patchify(img))
    kl_total = sum(kl_divergence(q, DiagGaussian.standard(model.latent_dim)).tolist())
    freq = residual_mod.pmf_quantized(math.sqrt(model.noise_var))
    p = freq / freq.sum()
    entropy_bits = float(-np.sum(p * np.log2(p)))
    return kl_total / _LN2 + entropy_bits * img.width * img.height
