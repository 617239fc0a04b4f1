import hashlib
import math

import numpy as np
import pytest

from conftest import make_training_patches, sample_image
from irec import container, pipeline, residual
from irec.codec import RecConfig
from irec.errors import (
    CorruptStreamError,
    FormatError,
    IrecError,
    ModelMismatchError,
)
from irec.model import (
    ImageGray8,
    LinearGaussianModel,
    fit_ppca,
    posterior_var,
    psnr,
    quantize_clamp,
)
from irec.pipeline import (
    compress_lossless,
    compress_lossy,
    decompress_lossless,
    decompress_lossy,
    model_elbo_bits,
)

CFG = RecConfig(omega=3.0, epsilon=0.2, beams=4)

# Version-1 (power-law schedule) lossless container of the small_image
# fixture under fitted_model, omega 3, epsilon 0.2, B=4, seed 0: 202 bytes,
# written by the encoder before container version 2 existed.
V1_LOSSLESS_B4_HEX = (
    "495245430101000000000000000000000000000008409a9999999999c93fc449e97bd5fc"
    "479d04000000080000001000000010000000070959faa9c5080164f94c2ebf08001813b6"
    "27d40801cc298b755200010000001ea868f04ab5df7aa56b0287400d07e4fe1965696fd1"
    "6768f9f2f151b442e2aa7ab91b4363859edef7382bb402f00cedc05ce50d40b516f8202e"
    "4fecea11c32c8ce72b84a4b5fe53d73df76e77f40f4a99230e74a774ebe560e3b62ae701"
    "9743602b320fd39d9b7865a944c4cbf92f8155afd200"
)
V1_LOSSLESS_B4_SHA256 = (
    "471e5401d129a3f34adb97dac11b93df7f50de3c04ba28d25c39629cbc5c33aa"
)


def pruned_model(noise_var=4.0):
    return LinearGaussianModel(
        W=np.zeros((64, 4)), mu=np.full(64, 128.0), noise_var=noise_var
    )


class TestLossy:
    def test_round_trip_determinism(self, fitted_model, small_image):
        a = compress_lossy(small_image, fitted_model, CFG, seed=3)
        b = compress_lossy(small_image, fitted_model, CFG, seed=3)
        assert a.data == b.data
        img_a = decompress_lossy(a.data, fitted_model)
        img_b = decompress_lossy(b.data, fitted_model)
        assert np.array_equal(img_a.pixels, img_b.pixels)

    def test_zero_kl_constant_image(self):
        model = pruned_model()
        img = ImageGray8(16, 16, np.full((16, 16), 128, dtype=np.uint8))
        result = compress_lossy(img, model, CFG, seed=0)
        assert all(kl == 0.0 for kl in result.kl_per_block)
        _, blocks, _ = container.unpack(result.data)
        assert all(len(b) == 1 for b in blocks)
        # Reconstruction is the quantized model mean everywhere.
        out = decompress_lossy(result.data, model)
        assert np.all(out.pixels == quantize_clamp(model.mu)[0])

    def test_reconstruction_quality_reasonable(self, fitted_model, small_image):
        result = compress_lossy(small_image, fitted_model, CFG, seed=1)
        assert result.psnr > 20.0
        out = decompress_lossy(result.data, fitted_model)
        assert (out.width, out.height) == (16, 16)

    def test_bpp_decreases_with_noisier_models(self):
        # Higher modeled noise shrinks posteriors toward the prior, so the
        # index payload gets cheaper.
        rng = np.random.default_rng(11)
        patches = make_training_patches(rng)
        base = fit_ppca(patches, latent_dim=6)
        img = sample_image(base, rng, 24, 24)
        bpps = []
        for scale in (0.25, 4.0, 64.0):
            model = LinearGaussianModel(
                W=base.W, mu=base.mu, noise_var=base.noise_var * scale
            )
            bpps.append(compress_lossy(img, model, CFG, seed=5).bpp)
        assert bpps[0] >= bpps[1] >= bpps[2]

    def test_model_mismatch_detected(self, fitted_model, small_image):
        result = compress_lossy(small_image, fitted_model, CFG, seed=0)
        other = LinearGaussianModel(
            W=fitted_model.W, mu=fitted_model.mu, noise_var=fitted_model.noise_var * 2
        )
        with pytest.raises(ModelMismatchError):
            decompress_lossy(result.data, other)

    def test_model_of_other_patch_size_is_a_mismatch(self):
        # Its model_id and latent_dim match the file, but it cannot make 8x8 patches.
        model = LinearGaussianModel(W=np.ones((16, 2)), mu=np.zeros(16), noise_var=1.0)
        header = container.ContainerHeader(
            seed=0, omega=3.0, epsilon=0.2, model_id=model.model_id,
            latent_dim=2, image_width=8, image_height=8,
        )
        data = container.pack(header, [(0,)])
        with pytest.raises(ModelMismatchError):
            decompress_lossy(data, model)

    def test_bit_flip_fuzz_never_crashes(self, fitted_model, small_image):
        data = compress_lossy(small_image, fitted_model, CFG, seed=2).data
        for pos in range(8 * len(data)):
            mutated = bytearray(data)
            mutated[pos // 8] ^= 1 << (pos % 8)
            try:
                decompress_lossy(bytes(mutated), fitted_model)
            except IrecError:
                pass


class TestLossless:
    def test_exact_round_trip_model_images(self, fitted_model):
        rng = np.random.default_rng(20)
        for _ in range(5):
            img = sample_image(fitted_model, rng, 16, 16)
            result = compress_lossless(img, fitted_model, CFG, seed=6)
            out = decompress_lossless(result.data, fitted_model)
            assert np.array_equal(out.pixels, img.pixels)

    def test_exact_round_trip_adversarial_noise(self, fitted_model):
        rng = np.random.default_rng(21)
        img = ImageGray8(16, 16, rng.integers(0, 256, size=(16, 16), dtype=np.uint8))
        result = compress_lossless(img, fitted_model, CFG, seed=7)
        out = decompress_lossless(result.data, fitted_model)
        assert np.array_equal(out.pixels, img.pixels)

    def test_round_trip_odd_size(self, fitted_model):
        rng = np.random.default_rng(22)
        img = ImageGray8(13, 9, rng.integers(0, 256, size=(9, 13), dtype=np.uint8))
        result = compress_lossless(img, fitted_model, CFG, seed=8)
        out = decompress_lossless(result.data, fitted_model)
        assert np.array_equal(out.pixels, img.pixels)

    def test_determinism(self, fitted_model, small_image):
        a = compress_lossless(small_image, fitted_model, CFG, seed=9)
        b = compress_lossless(small_image, fitted_model, CFG, seed=9)
        assert a.data == b.data

    def test_missing_residual_section(self, fitted_model, small_image):
        lossy = compress_lossy(small_image, fitted_model, CFG, seed=0)
        with pytest.raises(FormatError):
            decompress_lossless(lossy.data, fitted_model)

    def test_truncated_residual(self, fitted_model, small_image):
        result = compress_lossless(small_image, fitted_model, CFG, seed=0)
        with pytest.raises((CorruptStreamError, FormatError)):
            decompress_lossless(result.data[:-8], fitted_model)

    def test_residual_outside_pixel_range_is_corrupt(self, fitted_model, small_image):
        # Re-encode one residual so that reconstruction plus residual is 256:
        # a valid file cannot hold it, and decoding must not clip it to 255.
        data = compress_lossless(small_image, fitted_model, CFG, seed=0).data
        header, blocks, section = container.unpack(data)
        sigma = math.sqrt(fitted_model.noise_var)
        residuals = residual.decode_residuals(section, sigma, 256)
        recon = int(small_image.pixels[0, 0]) - int(residuals[0])
        assert recon >= 1
        residuals[0] = 256 - recon
        coded = residual.encode_residuals(residuals, sigma)
        bad = container.pack(header, blocks, residual=coded)
        with pytest.raises(CorruptStreamError):
            decompress_lossless(bad, fitted_model)

    def test_model_mismatch(self, fitted_model, small_image):
        result = compress_lossless(small_image, fitted_model, CFG, seed=0)
        other = LinearGaussianModel(
            W=fitted_model.W, mu=fitted_model.mu + 1.0, noise_var=fitted_model.noise_var
        )
        with pytest.raises(ModelMismatchError):
            decompress_lossless(result.data, other)

    def test_one_schedule_per_step_count(self, fitted_model, monkeypatch):
        # The schedule depends on K alone, so decoding builds it once per K.
        img = sample_image(fitted_model, np.random.default_rng(23), 32, 32)
        data = compress_lossless(img, fitted_model, CFG, seed=0).data
        step_counts = [len(b) for b in container.unpack(data)[1]]
        built = []
        schedule_from_steps = pipeline.schedule_from_steps

        def counting(K, *args):
            built.append(K)
            return schedule_from_steps(K, *args)

        monkeypatch.setattr(pipeline, "schedule_from_steps", counting)
        assert np.array_equal(decompress_lossless(data, fitted_model).pixels, img.pixels)
        assert len(step_counts) == 16 and len(set(step_counts)) > 1
        assert sorted(built) == sorted(set(step_counts))

    def test_stats_accounting(self, fitted_model, small_image):
        result = compress_lossless(small_image, fitted_model, CFG, seed=0)
        assert result.bpp == pytest.approx(8.0 * len(result.data) / 256)
        assert len(result.kl_per_block) == 4


class TestElbo:
    def test_positive_and_dominates_kl(self, fitted_model, small_image):
        bits = model_elbo_bits(small_image, fitted_model)
        assert bits > 0
        result = compress_lossless(small_image, fitted_model, CFG, seed=0)
        # The real file can never beat the analytic codelength by much.
        assert 8 * len(result.data) >= 0.9 * bits


class TestContainerVersions:
    def test_version_1_decodes_bit_exactly(self, fitted_model, small_image):
        data = bytes.fromhex(V1_LOSSLESS_B4_HEX)
        assert len(data) == 202
        assert hashlib.sha256(data).hexdigest() == V1_LOSSLESS_B4_SHA256
        assert data[4] == 1
        out = decompress_lossless(data, fitted_model)
        assert np.array_equal(out.pixels, small_image.pixels)

    def test_version_byte_selects_the_schedule(self, fitted_model, small_image):
        # The same bytes read as version 2 decode other latents, so the
        # residual no longer restores the image.
        data = bytearray.fromhex(V1_LOSSLESS_B4_HEX)
        data[4] = 2
        out = decompress_lossless(bytes(data), fitted_model)
        assert not np.array_equal(out.pixels, small_image.pixels)

    def test_new_files_are_version_2(self, fitted_model, small_image):
        for compress, decompress in (
            (compress_lossless, decompress_lossless),
            (compress_lossy, decompress_lossy),
        ):
            result = compress(small_image, fitted_model, CFG, seed=0)
            header, _, _ = container.unpack(result.data)
            assert header.version == 2 == result.data[4]
            again = compress(small_image, fitted_model, CFG, seed=0)
            assert again.data == result.data
            out = decompress(result.data, fitted_model)
            if compress is compress_lossless:
                assert np.array_equal(out.pixels, small_image.pixels)
            else:
                assert psnr(small_image, out) == result.psnr

    def test_posterior_var_matches_patch_posteriors(self, fitted_model, small_image):
        from irec.model import patchify, posterior

        s_sq = posterior_var(fitted_model)
        for patch in patchify(small_image):
            assert np.allclose(posterior(fitted_model, patch).var, s_sq, rtol=1e-12)

    def test_format_example_bytes(self):
        # The annotated example file of docs/FORMAT.md section 7.
        model = LinearGaussianModel(
            W=np.zeros((64, 2)), mu=np.full(64, 128.0), noise_var=1.0
        )
        img = ImageGray8(8, 8, np.full((8, 8), 128, dtype=np.uint8))
        cfg = RecConfig(omega=3.0, epsilon=0.2, beams=20)
        data = compress_lossless(img, model, cfg, seed=1).data
        assert data == bytes.fromhex(
            "49524543"  # magic
            "02"  # version 2
            "01"  # flags: residual section present
            "0100000000000000"  # seed = 1
            "0000000000000840"  # omega = 3.0
            "9a9999999999c93f"  # epsilon = 0.2
            "f108d1805f76229f"  # model_id
            "01000000" "02000000" "08000000" "08000000"  # blocks, L, w, h
            "01" "00"  # block 0: K = 1, index 0
            "40000000"  # residual count = 64
            "007ffe61db82c060" "01311427" "8b0e5c7a"  # range coder bytes
        )
