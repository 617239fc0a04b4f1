"""End-to-end lossy and lossless image compression.

Each 8x8 patch is one coded block. One posterior, whiten and KL call cover
every patch of an image, then each block gets its schedule and index code.
The step schedule is the v2 equal-KL schedule built from the model's
posterior variances, which are the same for every patch, so blocks with the
same step count K share it and are index coded together
(codec.encode_blocks); version-1 files decode with the power-law schedule.
One reconstruct call maps all decoded latents back to pixels.
The lossless path adds the range-coded residual of x minus the quantized
reconstruction (container frames it), using the decoded (possibly biased)
latent on both sides so encoder and decoder stay synchronized; a decoded
residual that takes a pixel outside [0, 255] can only come from a corrupt
file. Lossy and lossless share one body per direction (_compress, _decompress).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import codec, container, model as model_mod, residual as residual_mod
from .chain import AuxSchedule, build_schedule, schedule_from_steps
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
    payload_bits: int
    bpp: float
    psnr: float
    seconds: float


def _encode_blocks(img: ImageGray8, model: LinearGaussianModel, cfg: RecConfig, seed: int):
    """Encode every patch; blocks that share a step count K are encoded together."""
    prior = DiagGaussian.standard(model.latent_dim)
    q = whiten(model_mod.posterior(model, model_mod.patchify(img)), prior)
    kls = kl_divergence(q, prior).tolist()
    # Every block's schedule comes from the same variances, so K fixes it.
    groups: dict[int, tuple[AuxSchedule, list[int]]] = {}
    s_sq = model_mod.posterior_var(model)
    for i, kl in enumerate(kls):
        schedule = build_schedule(kl, cfg.omega, cfg.epsilon, s_sq)
        groups.setdefault(schedule.K, (schedule, []))[1].append(i)
    blocks: list[tuple[int, ...]] = [()] * len(kls)
    zs = np.empty_like(q.mean)
    for schedule, group in groups.values():
        indices, zs[group], _ = codec.encode_blocks(
            q.mean[group], q.std, schedule, cfg, seed, group
        )
        for i, tup in zip(group, indices):
            blocks[i] = tup
    return blocks, kls, zs


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
    blocks, kls, zs = _encode_blocks(img, model, cfg, seed)
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
        latent_dim=model.latent_dim,
        image_width=img.width,
        image_height=img.height,
    )
    data = container.pack(header, blocks, residual=coded)
    report = container.codelength_report(header, blocks, kls)
    return CompressionResult(
        data=data,
        kl_per_block=kls,
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
    if header.latent_dim != model.latent_dim:
        raise ModelMismatchError("latent dimension mismatch")
    if model.data_dim != model_mod.PATCH_DIM:
        raise ModelMismatchError(f"model patch dimension {model.data_dim} != 64")
    s_sq = None if header.version == 1 else model_mod.posterior_var(model)
    schedules: dict[int, AuxSchedule] = {}  # K fixes the schedule, as in _encode_blocks
    zs = np.empty((len(blocks), header.latent_dim))
    for i, indices in enumerate(blocks):
        schedule = schedules.get(len(indices))
        if schedule is None:
            schedule = schedules[len(indices)] = schedule_from_steps(
                len(indices), header.omega, header.epsilon, s_sq
            )
        zs[i] = codec.decode(indices, schedule, header.seed, block=i, dims=header.latent_dim)
    return zs


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
        coded, math.sqrt(model.noise_var), width * height
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
