import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import irec.model
from irec.errors import FormatError, UsageError
from irec.gauss import DiagGaussian, kl_divergence
from irec.model import (
    PATCH_DIM,
    ImageGray8,
    LinearGaussianModel,
    fit_ppca,
    fnv1a64,
    load_model,
    patchify,
    posterior,
    psnr,
    quantize_clamp,
    read_pgm,
    reconstruct,
    save_model,
    tile_grid,
    unpatchify,
    write_pgm,
)
from conftest import make_training_patches


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
        model = LinearGaussianModel(W=np.ones((d, latent)), mu=np.zeros(d), noise_var=1.0)
        path = tmp_path / "wrong.lgm"
        save_model(model, path)
        with pytest.raises(FormatError):
            load_model(path)


def _random_model(latent, seed):
    rng = np.random.default_rng(seed)
    return LinearGaussianModel(
        W=rng.normal(0.0, 20.0, size=(PATCH_DIM, latent)),
        mu=rng.uniform(0.0, 255.0, size=PATCH_DIM),
        noise_var=rng.uniform(0.5, 8.0),
    )


def _posterior_mean_reference(model, x):
    """Pure-Python floats: sum_i (x_i - mu_i) W[i, j] for i = 0..63 in order,
    from 0.0, times posterior_var_j / sigma^2."""
    W, mu = model.W.tolist(), model.mu.tolist()
    gains = [v / model.noise_var for v in irec.model.posterior_var(model).tolist()]
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

    def test_rejects_non_numeric_header_field(self, tmp_path):
        path = tmp_path / "n.pgm"
        path.write_bytes(b"P5\nabc 16\n255\n")
        with pytest.raises(FormatError):
            read_pgm(path)

    def test_rejects_wide_maxval(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(FormatError):
            read_pgm(path)
