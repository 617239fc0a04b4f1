import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import irec.codec
import irec.model
from irec.codec import RecConfig
from irec.errors import ConfigError, FormatError, UsageError
from irec.gauss import DiagGaussian, kl_divergence
from irec.model import (
    PATCH_DIM,
    ImageGray8,
    LinearGaussianModel,
    fit_ppca,
    fnv1a64,
    load_model,
    patch_kl_bound,
    patchify,
    posterior,
    posterior_var,
    psnr,
    quantize_clamp,
    read_pgm,
    reconstruct,
    save_model,
    tile_grid,
    unpatchify,
    write_pgm,
)
from irec.pipeline import compress_lossless, decompress_lossless
from conftest import GOLDEN_MODEL_PATHS, fit_golden_model, make_training_patches


class TestFitPpca:
    def test_perfectly_correlated_pair(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=5000)
        data = np.stack([t, t], axis=1)
        model = fit_ppca(data, latent_dim=1)
        # Covariance [[1,1],[1,1]]: eigenvalues (2, 0), noise floored.
        assert model.noise_var == pytest.approx(1e-6, abs=1e-6)
        w = model.W[:, 0]
        assert w[0] == pytest.approx(w[1], rel=1e-9)
        assert np.sum(w * w) == pytest.approx(2.0, rel=0.1)

    def test_isotropic_data_prunes_everything(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(10_000, 6))
        model = fit_ppca(data, latent_dim=3)
        assert model.noise_var == pytest.approx(1.0, rel=0.05)
        assert np.max(np.abs(model.W)) <= 0.3

    def test_self_consistency(self):
        rng = np.random.default_rng(2)
        patches = make_training_patches(rng, n=4000)
        model = fit_ppca(patches, latent_dim=8)
        n = 20_000
        z = rng.normal(size=(n, 8))
        noise = rng.normal(scale=np.sqrt(model.noise_var), size=(n, PATCH_DIM))
        resampled = z @ model.W.T + model.mu + noise
        refit = fit_ppca(resampled, latent_dim=8)
        d1 = np.sort(np.sum(model.W * model.W, axis=0))
        d2 = np.sort(np.sum(refit.W * refit.W, axis=0))
        assert np.allclose(d1, d2, rtol=0.05)

    @pytest.mark.parametrize("latent", sorted(GOLDEN_MODEL_PATHS))
    def test_reproduces_committed_models(self, latent):
        model = fit_golden_model(latent)
        saved = load_model(GOLDEN_MODEL_PATHS[latent])
        assert np.allclose(model.W, saved.W)
        assert np.allclose(model.mu, saved.mu)
        assert np.allclose(model.noise_var, saved.noise_var)

    def test_rejects_bad_inputs(self):
        with pytest.raises(UsageError):
            fit_ppca(np.zeros((10, 4)), latent_dim=4)
        with pytest.raises(UsageError):
            fit_ppca(np.zeros((3, 4)), latent_dim=1)
        with pytest.raises(UsageError):
            fit_ppca(np.zeros(8), latent_dim=1)


class TestPosterior:
    def test_mean_input_gives_zero_mean(self):
        rng = np.random.default_rng(3)
        model = fit_ppca(make_training_patches(rng), latent_dim=4)
        q = posterior(model, model.mu)
        assert np.allclose(q.mean, 0.0, atol=1e-9)

    def test_pruned_model_matches_prior(self):
        model = LinearGaussianModel(W=np.zeros((4, 2)), mu=np.zeros(4), noise_var=2.0)
        q = posterior(model, np.array([5.0, -1.0, 0.0, 3.0]))
        assert np.allclose(q.mean, 0.0)
        assert np.allclose(q.std, 1.0)
        assert kl_divergence(q, DiagGaussian.standard(2)) == 0.0

    def test_scalar_example(self):
        model = LinearGaussianModel(W=np.array([[1.0]]), mu=np.zeros(1), noise_var=1.0)
        q = posterior(model, np.array([2.0]))
        assert q.mean[0] == pytest.approx(1.0, abs=1e-12)
        assert q.var[0] == pytest.approx(0.5, abs=1e-12)

    def test_rejects_wrong_length(self):
        model = LinearGaussianModel(W=np.zeros((4, 2)), mu=np.zeros(4), noise_var=1.0)
        with pytest.raises(UsageError):
            posterior(model, np.zeros(3))

    @pytest.mark.parametrize("pixels", [None, 1, 3, PATCH_DIM])
    @pytest.mark.parametrize("latent", [8, 16])
    def test_slabs_keep_the_bits_of_one_sum(self, latent, pixels, monkeypatch):
        # The mean sums (x_i - mu_i) W[i] in order i = 0..D-1 for each patch,
        # so where the slabs of pixels end does not change a bit. The module's
        # budget gives slabs of 27 pixels at L = 8 and 13 at L = 16 here.
        model = load_model(GOLDEN_MODEL_PATHS[latent])
        x = np.random.default_rng(latent).integers(0, 256, size=(2, 37, PATCH_DIM), dtype=np.uint8)
        expected = np.zeros((2, 37, latent))
        for term in np.moveaxis((x - model.mu)[..., None] * model.W, -2, 0):
            expected += term
        expected *= posterior_var(model) / model.noise_var
        if pixels is not None:
            monkeypatch.setattr(irec.codec, "MAX_CHUNK_FLOATS", pixels * expected.size)
        assert posterior(model, x).mean.tobytes() == expected.tobytes()
        assert posterior(model, x[1, 5]).mean.tobytes() == expected[1, 5].tobytes()


class TestReconstruct:
    def test_zero_latent_gives_mean(self):
        model = LinearGaussianModel(
            W=np.ones((3, 2)), mu=np.array([9.0, 8.0, 7.0]), noise_var=1.0
        )
        assert np.array_equal(reconstruct(model, np.zeros(2)), model.mu)

    def test_reprojection_shrinkage_identity(self):
        # Re-projecting a reconstruction scales each latent coordinate by
        # w'w / (w'w + noise); with negligible noise the projection is
        # idempotent.
        rng = np.random.default_rng(4)
        model = fit_ppca(make_training_patches(rng), latent_dim=6)
        x = rng.normal(120, 30, size=PATCH_DIM)
        z1 = posterior(model, x).mean
        x_hat = reconstruct(model, z1)
        z2 = posterior(model, x_hat).mean
        wtw = np.sum(model.W * model.W, axis=0)
        assert np.allclose(z2, z1 * wtw / (wtw + model.noise_var), atol=1e-9)

    def test_projection_idempotent_without_noise(self):
        rng = np.random.default_rng(14)
        base = fit_ppca(make_training_patches(rng), latent_dim=6)
        model = LinearGaussianModel(W=base.W, mu=base.mu, noise_var=0.0)
        x = rng.normal(120, 30, size=PATCH_DIM)
        x_hat = reconstruct(model, posterior(model, x).mean)
        x_hat2 = reconstruct(model, posterior(model, x_hat).mean)
        assert np.allclose(x_hat, x_hat2, atol=1e-6)


class TestQuantizeClamp:
    def test_rule_examples(self):
        vals = quantize_clamp(np.array([-3.2, 255.7, 99.5]))
        assert vals.tolist() == [0, 255, 100]

    def test_half_away_from_zero(self):
        assert quantize_clamp(np.array([0.5]))[0] == 1
        assert quantize_clamp(np.array([1.5]))[0] == 2

    def test_dtype(self):
        assert quantize_clamp(np.array([3.3])).dtype == np.uint8


class TestPsnr:
    def _img(self, value):
        return ImageGray8(4, 4, np.full((4, 4), value, dtype=np.uint8))

    def test_identical_capped(self):
        assert psnr(self._img(7), self._img(7)) == 99.0

    def test_unit_mse(self):
        assert psnr(self._img(0), self._img(1)) == pytest.approx(48.13, abs=0.01)

    def test_max_mse(self):
        assert psnr(self._img(0), self._img(255)) == pytest.approx(0.0, abs=1e-9)

    def test_size_mismatch(self):
        other = ImageGray8(2, 2, np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(UsageError):
            psnr(self._img(0), other)


class TestImageGray8:
    @pytest.mark.parametrize("width,height", [(0, 0), (0, 8), (8, 0)])
    def test_refuses_an_empty_image(self, width, height):
        with pytest.raises(UsageError, match="width|height"):
            ImageGray8(width, height, np.zeros((height, width), dtype=np.uint8))

    @pytest.mark.parametrize(
        "pixels", [np.full(16, 2.7), np.full(16, -1.5), np.ones(16, dtype=bool), [[0.0] * 4] * 4]
    )
    def test_refuses_non_integer_pixels(self, pixels):
        with pytest.raises(UsageError, match="integers"):
            ImageGray8(4, 4, pixels)

    @pytest.mark.parametrize("value", [-1, 256, 300, np.iinfo(np.int64).min])
    def test_refuses_a_value_outside_8_bits(self, value):
        pixels = np.zeros(16, dtype=np.int64)
        pixels[5] = value
        with pytest.raises(UsageError, match=r"\[0, 255\]"):
            ImageGray8(4, 4, pixels)

    @pytest.mark.parametrize("count", [1, 15, 17])
    def test_refuses_a_wrong_pixel_count(self, count):
        with pytest.raises(UsageError, match=f"16 pixels, got {count}"):
            ImageGray8(4, 4, np.zeros(count, dtype=np.uint8))

    @pytest.mark.parametrize("dtype", [np.int16, np.int64, np.uint16])
    def test_takes_any_integer_dtype_in_range(self, dtype):
        img = ImageGray8(2, 2, np.array([0, 1, 254, 255], dtype=dtype))
        assert img.pixels.dtype == np.uint8
        assert img.pixels.tolist() == [[0, 1], [254, 255]]
        assert ImageGray8(2, 2, [[0, 1], [254, 255]]).pixels.tolist() == [[0, 1], [254, 255]]

    def test_keeps_uint8_pixels_without_a_copy(self):
        pixels = np.arange(16, dtype=np.uint8).reshape(4, 4)
        img = ImageGray8(4, 4, pixels)
        assert np.shares_memory(img.pixels, pixels)
        assert not img.pixels.flags.writeable


class TestPatchify:
    def test_exact_tile_round_trip(self):
        rng = np.random.default_rng(5)
        img = ImageGray8(8, 8, rng.integers(0, 256, size=(8, 8), dtype=np.uint8))
        patches = patchify(img)
        assert len(patches) == 1
        plane = unpatchify(patches, 8, 8)
        assert np.array_equal(plane.astype(np.uint8), img.pixels)

    def test_padding_round_trip(self):
        rng = np.random.default_rng(6)
        img = ImageGray8(9, 9, rng.integers(0, 256, size=(9, 9), dtype=np.uint8))
        patches = patchify(img)
        assert len(patches) == 4
        plane = unpatchify(patches, 9, 9)
        assert np.array_equal(plane.astype(np.uint8), img.pixels)

    def test_rectangular_count(self):
        img = ImageGray8(16, 24, np.zeros((24, 16), dtype=np.uint8))
        assert len(patchify(img)) == 6

    @pytest.mark.parametrize(
        "width,height,grid",
        [(1, 1, (1, 1)), (8, 8, (1, 1)), (9, 8, (1, 2)), (16, 24, (3, 2)), (17, 10, (2, 3))],
    )
    def test_tile_grid(self, width, height, grid):
        assert tile_grid(width, height) == grid

    def test_matches_tile_slices(self):
        # Reference: tile i is the 8x8 slice at divmod(i, cols) of the
        # zero-padded plane, flattened in raster order.
        rng = np.random.default_rng(7)
        img = ImageGray8(17, 10, rng.integers(0, 256, size=(10, 17), dtype=np.uint8))
        plane = np.zeros((16, 24))
        plane[:10, :17] = img.pixels
        patches = patchify(img)
        assert patches.shape == (6, PATCH_DIM)
        for i, patch in enumerate(patches):
            r, c = divmod(i, 3)
            assert np.array_equal(patch, plane[8 * r : 8 * r + 8, 8 * c : 8 * c + 8].reshape(-1))
        assert np.array_equal(unpatchify(list(patches), 17, 10), img.pixels)

    def test_unpatchify_count_check(self):
        with pytest.raises(UsageError):
            unpatchify([np.zeros(64)], 16, 16)


class TestModelFile:
    def test_round_trip(self, tmp_path, fitted_model):
        path = tmp_path / "m.lgm"
        save_model(fitted_model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.W, fitted_model.W)
        assert np.array_equal(loaded.mu, fitted_model.mu)
        assert loaded.noise_var == fitted_model.noise_var
        assert loaded.model_id == fitted_model.model_id

    def test_model_id_sensitive_to_parameters(self, fitted_model):
        other = LinearGaussianModel(
            W=fitted_model.W,
            mu=fitted_model.mu,
            noise_var=fitted_model.noise_var + 1.0,
        )
        assert other.model_id != fitted_model.model_id

    def test_model_id_is_fnv_of_file_bytes_computed_once(self, monkeypatch):
        rng = np.random.default_rng(5)
        model = LinearGaussianModel(
            W=rng.normal(size=(64, 3)), mu=rng.normal(size=64), noise_var=2.0
        )
        expected = fnv1a64(model.to_bytes())
        calls = []

        def counting(data):
            calls.append(len(data))
            return fnv1a64(data)

        monkeypatch.setattr(irec.model, "fnv1a64", counting)
        assert [model.model_id for _ in range(3)] == [expected] * 3
        assert calls == [len(model.to_bytes())]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.lgm"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(FormatError):
            load_model(path)

    def test_truncated(self, tmp_path, fitted_model):
        path = tmp_path / "short.lgm"
        path.write_bytes(fitted_model.to_bytes()[:-4])
        with pytest.raises(FormatError):
            load_model(path)

    @pytest.mark.parametrize("noise_var", [-5.0, 0.0, 1e-9])
    def test_rejects_sub_floor_noise_variance(self, tmp_path, fitted_model, noise_var):
        # The constructor would floor it, so model_id would not hash the file.
        data = fitted_model.to_bytes()[:-8] + np.array(noise_var, dtype="<f8").tobytes()
        path = tmp_path / "low.lgm"
        path.write_bytes(data)
        with pytest.raises(FormatError):
            load_model(path)

    def test_fnv_reference_value(self):
        # FNV-1a 64-bit published test vector.
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C

    @pytest.mark.parametrize("d,latent", [(16, 2), (63, 4), (65, 4), (64, 0)])
    def test_rejects_models_that_cannot_code_8x8_patches(self, tmp_path, d, latent):
        # The LGM1 bytes of W = 1, mu = 0, noise variance 1, written field by
        # field: the constructor refuses L = 0 itself.
        path = tmp_path / "wrong.lgm"
        path.write_bytes(
            b"LGM1" + d.to_bytes(4, "little") + latent.to_bytes(4, "little")
            + np.zeros(d, "<f8").tobytes() + np.ones(d * latent, "<f8").tobytes()
            + np.float64(1.0).astype("<f8").tobytes()
        )
        with pytest.raises(FormatError):
            load_model(path)

    def test_constructor_refuses_zero_latents(self):
        # No posterior of such a model exists, so it is refused when built.
        with pytest.raises(UsageError, match="L >= 1"):
            LinearGaussianModel(W=np.zeros((64, 0)), mu=np.zeros(64), noise_var=1.0)

    @pytest.mark.parametrize("latent", [8, 16])
    def test_patch_kl_bound_covers_every_8_bit_patch(self, latent):
        model = load_model(GOLDEN_MODEL_PATHS[latent])
        bound = patch_kl_bound(model)
        rng = np.random.default_rng(latent)
        x = rng.integers(0, 256, size=(500, PATCH_DIM)).astype(np.float64)
        # The box corners that push each latent's posterior mean furthest.
        signs = np.sign(model.W.T)
        x = np.concatenate([x, np.where(signs > 0, 255.0, 0.0), np.where(signs < 0, 255.0, 0.0)])
        kls = kl_divergence(posterior(model, x), DiagGaussian.standard(latent))
        assert np.isfinite(bound) and kls.max() <= bound


# Byte offsets in an LGM1 file with D = 64: mu, then W (row-major), then the
# noise variance. Byte 7 of a little-endian f64 holds its sign and its seven
# highest exponent bits.
_MU_AT = 12
_W_AT = _MU_AT + 8 * PATCH_DIM


def _flipped_model_file(tmp_path, pos, bit):
    data = bytearray(GOLDEN_MODEL_PATHS[8].read_bytes())
    data[pos] ^= 1 << bit
    path = tmp_path / "flipped.lgm"
    path.write_bytes(bytes(data))
    return path


class TestModelBitFlips:
    """A model file with one flipped bit either codes an image or raises a
    FORMAT.md §8 class, in bounded time and with no NumPy warning."""

    CFG = RecConfig(omega=3.0, epsilon=0.2, beams=4)

    def test_huge_mu_is_refused_before_any_schedule_work(
        self, tmp_path, small_image, equal_kl_calls
    ):
        # Bit 2 of byte 355 makes mu[42] 2.2e21. The file loads (its KL bound
        # is finite), but each block of a 16x16 image would need ~8e37 steps.
        model = load_model(_flipped_model_file(tmp_path, 355, 2))
        assert model.mu[42] == pytest.approx(2.2e21, rel=0.01)
        with pytest.raises(ConfigError, match="K_MAX"):
            compress_lossless(small_image, model, self.CFG, seed=0)
        assert equal_kl_calls == []

    def test_overflowing_w_is_refused_at_load(self, tmp_path):
        # Bit 6 of byte 1571 makes W[16][2] 5.8e307, so W^T W overflows.
        with pytest.raises(FormatError, match="overflow"):
            load_model(_flipped_model_file(tmp_path, 1571, 6))

    def test_overflowing_w_is_refused_in_memory(self):
        # The same W[16][2] = 5.8e307 built in memory: UsageError when the
        # model is built, with no NumPy warning, before any compress.
        base = load_model(GOLDEN_MODEL_PATHS[8])
        w = np.array(base.W)
        w[16][2] = 5.8e307
        with pytest.raises(UsageError, match="overflow"):
            LinearGaussianModel(W=w, mu=base.mu, noise_var=base.noise_var)
        with pytest.raises(UsageError, match="D >= 1"):
            LinearGaussianModel(W=np.zeros((0, 2)), mu=np.zeros(0), noise_var=1.0)

    def test_sign_and_exponent_flips(self, tmp_path, small_image, equal_kl_calls):
        latent = 8
        starts = [_MU_AT + 8 * i for i in range(PATCH_DIM)]
        starts += [_W_AT + 8 * i for i in range(0, PATCH_DIM * latent, 13)]
        starts += [_W_AT + 8 * PATCH_DIM * latent]  # the noise variance
        outcomes = Counter()
        for pos in (start + 7 for start in starts):
            for bit in range(8):
                equal_kl_calls.clear()
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        model = load_model(_flipped_model_file(tmp_path, pos, bit))
                    except FormatError:
                        outcomes["refused at load"] += 1
                        continue
                    try:
                        data = compress_lossless(small_image, model, self.CFG, seed=0).data
                    except ConfigError:
                        assert equal_kl_calls == [], (pos, bit)
                        outcomes["step cap"] += 1
                        continue
                    back = decompress_lossless(data, model)
                assert np.array_equal(back.pixels, small_image.pixels), (pos, bit)
                outcomes["round trip"] += 1
        assert sorted(outcomes) == ["refused at load", "round trip", "step cap"]


def _random_model(latent, seed):
    rng = np.random.default_rng(seed)
    return LinearGaussianModel(
        W=rng.normal(0.0, 20.0, size=(PATCH_DIM, latent)),
        mu=rng.uniform(0.0, 255.0, size=PATCH_DIM),
        noise_var=rng.uniform(0.5, 8.0),
    )


def _posterior_var_reference(model):
    """Pure-Python floats: sigma^2 / (n_j + sigma^2), n_j the sum of
    W[i, j]^2 for i = 0..63 in order (FORMAT.md §5)."""
    W = model.W.tolist()
    out = []
    for j in range(model.latent_dim):
        n_j = 0.0
        for i in range(PATCH_DIM):
            n_j += W[i][j] * W[i][j]
        out.append(model.noise_var / (n_j + model.noise_var))
    return np.array(out)


def _posterior_mean_reference(model, x):
    """Pure-Python floats: sum_i (x_i - mu_i) W[i, j] for i = 0..63 in order,
    from 0.0, times posterior_var_j / sigma^2."""
    W, mu = model.W.tolist(), model.mu.tolist()
    gains = [v / model.noise_var for v in _posterior_var_reference(model).tolist()]
    out = []
    for row in x.tolist():
        means = []
        for j, gain in enumerate(gains):
            acc = 0.0
            for i in range(PATCH_DIM):
                acc += (row[i] - mu[i]) * W[i][j]
            means.append(acc * gain)
        out.append(means)
    return np.array(out)


def _reconstruct_reference(model, z):
    """Pure-Python floats: ((mu_i + z_0 W[i,0]) + z_1 W[i,1]) + ... in order."""
    W, mu = model.W.tolist(), model.mu.tolist()
    out = []
    for row in z.tolist():
        pixels = []
        for i in range(PATCH_DIM):
            acc = mu[i]
            for j, z_j in enumerate(row):
                acc += z_j * W[i][j]
            pixels.append(acc)
        out.append(pixels)
    return np.array(out)


# Run in a child process: the batched maps of the inputs in argv[1], saved to argv[2].
_MAPS_CHILD = """
import sys
import numpy as np
from irec.model import load_model, posterior, reconstruct
model = load_model(sys.argv[1] + "/model.lgm")
x, z = np.load(sys.argv[1] + "/x.npy"), np.load(sys.argv[1] + "/z.npy")
np.save(sys.argv[2], np.concatenate([posterior(model, x).mean.ravel(),
                                     reconstruct(model, z).ravel()]))
"""


class TestFixedOrderMaps:
    """posterior's mean and reconstruct's x_hat are sums in a stated order
    of correctly rounded operations, so their bits do not depend on the
    batch or on the host's BLAS."""

    @pytest.mark.parametrize("latent", [1, 8, 16])
    def test_match_pure_python_reference(self, latent):
        model = _random_model(latent, latent)
        rng = np.random.default_rng(100 + latent)
        x = rng.uniform(0.0, 255.0, size=(6, PATCH_DIM))
        z = rng.normal(size=(6, latent))
        mean = posterior(model, x).mean
        assert mean.tobytes() == _posterior_mean_reference(model, x).tobytes()
        assert reconstruct(model, z).tobytes() == _reconstruct_reference(model, z).tobytes()

    @pytest.mark.parametrize("latent", [1, 8, 16])
    def test_all_negative_zero_terms_sum_to_positive_zero(self, latent):
        # With x == mu and W[:, 0] <= 0 (its zeros -0.0), every term of latent 0
        # is -0.0; the in-order sum from +0.0 is +0.0, a bare running sum -0.0.
        model = _random_model(latent, 300 + latent)
        W = model.W.copy()
        W[:, 0] = -np.abs(W[:, 0])
        W[::7, 0] = -0.0
        model = LinearGaussianModel(W=W, mu=model.mu, noise_var=model.noise_var)
        x = np.stack([model.mu, np.random.default_rng(latent).uniform(0.0, 255.0, PATCH_DIM)])
        mean = posterior(model, x).mean
        assert mean.tobytes() == _posterior_mean_reference(model, x).tobytes()
        assert mean[0, 0] == 0.0 and not np.signbit(mean[0, 0])

    @pytest.mark.parametrize("latent", [1, 8, 16])
    def test_posterior_var_matches_pure_python_reference(self, latent):
        # At L = 1, np.sum over the (64, 1) squares would add them pairwise.
        for seed in range(3):
            model = _random_model(latent, 200 + seed)
            expect = _posterior_var_reference(model)
            assert irec.model.posterior_var(model).tobytes() == expect.tobytes()

    @pytest.mark.parametrize("latent", [1, 8, 16])
    def test_row_alone_equals_row_in_batch(self, latent):
        model = _random_model(latent, 50 + latent)
        rng = np.random.default_rng(latent)
        x = rng.uniform(0.0, 255.0, size=(256, PATCH_DIM))
        z = rng.normal(size=(256, latent))
        means, x_hat = posterior(model, x).mean, reconstruct(model, z)
        for k in (0, 1, 77, 255):
            assert posterior(model, x[k]).mean.tobytes() == means[k].tobytes()
            assert reconstruct(model, z[k]).tobytes() == x_hat[k].tobytes()
        assert posterior(model, x.reshape(16, 16, PATCH_DIM)).mean.tobytes() == means.tobytes()
        assert reconstruct(model, z.reshape(4, 64, latent)).tobytes() == x_hat.tobytes()

    def test_shapes_and_shared_std(self, fitted_model):
        x = np.zeros((3, 5, PATCH_DIM))
        q = posterior(fitted_model, x)
        assert q.mean.shape == (3, 5, fitted_model.latent_dim)
        assert q.std.tobytes() == np.sqrt(irec.model.posterior_var(fitted_model)).tobytes()
        assert reconstruct(fitted_model, q.mean).shape == x.shape
        with pytest.raises(UsageError):
            posterior(fitted_model, np.zeros((3, PATCH_DIM - 1)))
        with pytest.raises(UsageError):
            reconstruct(fitted_model, np.zeros((3, fitted_model.latent_dim + 1)))

    def test_same_bytes_under_other_blas_kernels(self, tmp_path):
        # Each OPENBLAS_CORETYPE acts on its child process only. A BLAS
        # matvec per patch gives other posterior means under Haswell and
        # another x_hat under Prescott.
        model = _random_model(8, 3)
        rng = np.random.default_rng(4)
        x = rng.uniform(0.0, 255.0, size=(256, PATCH_DIM))
        z = rng.normal(size=(256, 8))
        save_model(model, tmp_path / "model.lgm")
        np.save(tmp_path / "x.npy", x)
        np.save(tmp_path / "z.npy", z)
        here = np.concatenate([posterior(model, x).mean.ravel(), reconstruct(model, z).ravel()])
        src = str(Path(irec.model.__file__).resolve().parent.parent)
        for coretype in ("Haswell", "Prescott"):
            env = dict(os.environ, OPENBLAS_CORETYPE=coretype)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = tmp_path / f"{coretype}.npy"
            subprocess.run(
                [sys.executable, "-c", _MAPS_CHILD, str(tmp_path), str(out)],
                env=env, check=True, timeout=120,
            )
            assert np.load(out).tobytes() == here.tobytes(), coretype


class TestPgm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        img = ImageGray8(13, 5, rng.integers(0, 256, size=(5, 13), dtype=np.uint8))
        path = tmp_path / "x.pgm"
        write_pgm(img, path)
        back = read_pgm(path)
        assert (back.width, back.height) == (13, 5)
        assert np.array_equal(back.pixels, img.pixels)

    def test_comments_allowed(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n\x01\x02\x03\x04")
        img = read_pgm(path)
        assert img.pixels.tolist() == [[1, 2], [3, 4]]

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "p2.pgm"
        path.write_bytes(b"P2\n2 2\n255\n")
        with pytest.raises(FormatError):
            read_pgm(path)

    def test_rejects_truncated_raster(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(FormatError):
            read_pgm(path)

    @pytest.mark.parametrize("data", [b"P5", b"P5\n4 4", b"P5\n# a comment only\n"])
    def test_rejects_truncated_header(self, tmp_path, data):
        path = tmp_path / "h.pgm"
        path.write_bytes(data)
        with pytest.raises(FormatError, match="truncated PGM header"):
            read_pgm(path)

    def test_rejects_non_numeric_header_field(self, tmp_path):
        path = tmp_path / "n.pgm"
        path.write_bytes(b"P5\nabc 16\n255\n")
        with pytest.raises(FormatError):
            read_pgm(path)

    @pytest.mark.parametrize("header", [b"P5\n0 4\n255\n", b"P5\n4 0\n255\n", b"P5 0 0 255\n"])
    def test_rejects_a_zero_side(self, tmp_path, header):
        path = tmp_path / "z.pgm"
        path.write_bytes(header)
        with pytest.raises(FormatError, match="empty"):
            read_pgm(path)

    def test_rejects_wide_maxval(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(FormatError):
            read_pgm(path)
