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
        # Wire-format regression anchor: the float64 bytes of these draws
        # (even dims, odd dims, a seed with its high word set) must never change.
        pinned = {
            (0, 0, 0, 0, 2): "011c138c6273d9bf0ee791ff84ddd3bf",
            (77, 5, 3, 9, 3): "a10a6d7d1deff1bf5e2c028cdbebf43fbe72ff0660eac73f",
            (2**32 + 0x1234, 7, 1, 2, 4): (
                "9435625a9419cebfa0e2ea9a9d0bea3f412aa28ea67af93f3f5b010963a1e13f"
            ),
        }
        for address, expected in pinned.items():
            assert stream.draw_vector(*address).tobytes().hex() == expected


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


# Philox4x32-10 known-answer vectors from Random123 (kat_vectors):
# counter (c0, c1, c2, c3), key (k0, k1), output (r0, r1, r2, r3).
KNOWN_ANSWERS = [
    ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    (
        (0xFFFFFFFF,) * 4,
        (0xFFFFFFFF,) * 2,
        (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD),
    ),
    (
        (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
        (0xA4093822, 0x299F31D0),
        (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
    ),
]


def words_at(path, seed, block, step, sample, lanes):
    """raw_words of lanes 0..lanes-1 at one address, on the Python-int path or
    on the NumPy path (the same address given as 1-element arrays, or the
    seed given as a 1-element array)."""
    if path == "array":
        block, step, sample = (np.array([a]) for a in (block, step, sample))
    if path == "seeds":
        seed = np.array([seed])
    return stream.raw_words(seed, block, step, sample, lanes)


def assert_paths_agree(seed, block, step, sample, lanes):
    ints = words_at("int", seed, block, step, sample, lanes)
    arrays = words_at("array", seed, block, step, sample, lanes)
    for a, b in zip(ints, arrays):
        assert a.dtype == b.dtype == np.uint64
        assert a.shape == (lanes,) and b.shape == (1, lanes)
        assert a.tolist() == b[0].tolist()


def output_words(w_lo, w_hi):
    lo, hi = int(w_lo), int(w_hi)
    return lo & 0xFFFFFFFF, lo >> 32, hi & 0xFFFFFFFF, hi >> 32


class TestPhilox:
    @pytest.mark.parametrize("path", ["int", "array", "seeds"])
    @pytest.mark.parametrize("counter, key, expected", KNOWN_ANSWERS)
    def test_known_answers(self, path, counter, key, expected):
        # Counter words are (lane, sample, step, block); key = (seed low, seed
        # high). _philox runs every vector on each kind of operand: on Python
        # ints as the middle of three packed fields whose neighbours' counter
        # words and keys are all 0xFFFFFFFF, so a carry between fields (either
        # mask dropped) changes a word; on uint64 as a row under a scalar
        # seed's cached keys or a seed array's keys. raw_words itself serves
        # lanes from 0, so only the vector of lane 0 runs through it.
        seed = key[0] | key[1] << 32
        if path == "int":
            def pack(*fields):  # fields 0, 1 and 2 of 64 bits each
                return sum(f << 64 * j for j, f in enumerate(fields))
            ones = 0xFFFFFFFF
            keys = [
                (pack(n0, k0, n0), pack(n1, k1, n1)) for (k0, k1), (n0, n1)
                in zip(stream._key_schedule(seed), stream._key_schedule(2**64 - 1))
            ]
            words = stream._philox(
                *(pack(ones, c, ones) for c in counter), keys, pack(ones, ones, ones), stream._INT
            )
            fields = [[w >> 64 * j & 2**64 - 1 for w in words] for j in range(3)]
            assert output_words(*fields[0]) == output_words(*fields[2]) == KNOWN_ANSWERS[1][2]
            words = fields[1]
        else:
            keys = (
                stream._round_keys(seed) if path == "array"
                else stream._key_schedule(np.array([seed], dtype=np.uint64))
            )
            words = stream._philox(
                *np.array(counter, dtype=np.uint64)[:, None], keys, stream._MASK32, stream._UINT64
            )
            words = [w[0] for w in words]
        assert output_words(*words) == expected
        c0, c1, c2, c3 = counter
        if c0 == 0:
            w_lo, w_hi = words_at(path, seed, c3, c2, c1, 1)
            assert output_words(w_lo.ravel()[0], w_hi.ravel()[0]) == expected

    def test_seed_grid_matches_scalar_seeds(self):
        # A seed array broadcasts like an address: every word, normal and
        # uniform equals the draw under that one scalar seed.
        seeds = np.array([0, 5, 2**32 - 1, 2**32, 2**40 + 3, 2**63, 2**64 - 1], dtype=np.uint64)
        blocks = np.array([0, 7, 2**32 - 1])
        w_lo, w_hi = stream.raw_words(seeds[:, None], blocks, 4, 9, 3)
        normals = stream.draw_normals(seeds[:, None], blocks, 4, 9, 5)
        uniforms = stream.draw_uniforms(seeds[:, None], blocks, 4, 9)
        assert w_lo.shape == w_hi.shape == (7, 3, 3) and normals.shape == (7, 3, 5)
        for i, seed in enumerate(seeds.tolist()):
            for j, block in enumerate(blocks.tolist()):
                lo, hi = stream.raw_words(seed, block, 4, 9, 3)
                assert w_lo[i, j].tolist() == lo.tolist() and w_hi[i, j].tolist() == hi.tolist()
                assert normals[i, j].tobytes() == stream.draw_vector(seed, block, 4, 9, 5).tobytes()
                assert uniforms[i, j] == stream.draw_uniform(seed, block, 4, 9)

    def test_seed_list_spanning_2_63(self):
        # NumPy infers float64 for these Python ints; they are still u64 seeds.
        for seeds in ([2**63 - 1, 2**63], (2**63 - 1, 2**63), [0, 2**64 - 1]):
            both = stream.draw_uniforms(seeds, 0, 0, 0)
            assert both.tolist() == [stream.draw_uniforms(s, 0, 0, 0) for s in seeds]
        for bad in ([-1, 2**63], [2**63, 2**64], [2**64], [1.0, 2**63], (0, 1.5)):
            with pytest.raises(UsageError, match="seed"):
                stream.draw_uniforms(bad, 0, 0, 0)

    def test_paths_agree_on_every_lane_count(self):
        rng = np.random.default_rng(7)
        u32_max = 2**32 - 1
        for n in range(1, 131):
            seed = int(rng.integers(2**32, 2**64, dtype=np.uint64))
            block, step, sample = rng.choice([0, 1, u32_max - 1, u32_max], size=3)
            assert_paths_agree(seed, int(block), int(step), int(sample), n)

    def test_path_follows_address_kind(self, monkeypatch):
        # Python ints exactly when seed, block, step, sample and the lane
        # count are plain ints; NumPy scalars, bools and arrays take NumPy rounds.
        calls = []
        ints = stream._raw_words_ints
        monkeypatch.setattr(
            stream, "_raw_words_ints", lambda *a: calls.append(1) or ints(*a)
        )
        stream.raw_words(3, 1, 2, 3, 1)
        stream.raw_words(2**64 - 1, 2**32 - 1, 0, 2**32 - 1, 256)
        assert len(calls) == 2
        for args in [
            (np.uint64(3), 1, 2, 3, 4),
            (3, np.int32(1), 2, 3, 4),
            (3, 1, True, 3, 4),
            (3, 1, 2, 3, np.int64(4)),
            (3, 1, 2, 3, True),
            (3, np.array([1]), 2, 3, 1),
            (np.array([3]), 1, 2, 3, 4),
        ]:
            stream.raw_words(*args)
        assert len(calls) == 2

    def test_paths_agree_on_decoder_lanes(self):
        # Every lane count the decoder can ask for (fit_ppca caps L at 63).
        for d in range(1, 64):
            assert_paths_agree(2**63 + 9, 4, 7, 11, stream.lane_count(d))

    def test_numpy_integer_scalars(self):
        # NumPy integer scalars take the NumPy path and give the same words.
        seed = 2**63 + 5
        expected = stream.raw_words(seed, 9, 4, 11, 2)
        got = stream.raw_words(
            np.uint64(seed), np.uint32(9), np.int64(4), np.uint16(11), np.int8(2)
        )
        for a, b in zip(got, expected):
            assert a.shape == b.shape == (2,) and a.tolist() == b.tolist()
        assert stream.draw_vector(seed, np.int32(9), np.uint8(4), np.int64(11), 8).tobytes() == (
            stream.draw_vector(seed, 9, 4, 11, 8).tobytes()
        )

    @pytest.mark.parametrize("path", ["int", "array"])
    @pytest.mark.parametrize("address", ["block", "step", "sample"])
    @pytest.mark.parametrize("bad", [-1, 2**32, 1.5])
    def test_bad_address_on_both_paths(self, path, address, bad):
        kwargs = {"block": 1, "step": 2, "sample": 3}
        kwargs[address] = bad
        with pytest.raises(UsageError, match=address):
            words_at(path, 5, **kwargs, lanes=4)

    @pytest.mark.parametrize("path", ["int", "array", "seeds"])
    @pytest.mark.parametrize("seed", [-1, 2**64, np.array([1.0])])
    def test_bad_seed_on_both_paths(self, path, seed):
        with pytest.raises(UsageError, match="seed"):
            words_at(path, seed, 1, 2, 3, 4)

    @pytest.mark.parametrize("path", ["int", "array"])
    @pytest.mark.parametrize("lanes", [-1, 2**32 + 1, np.array([0, 1]), np.array(2), [2], 0, 1.5])
    def test_bad_lane_on_both_paths(self, path, lanes):
        # A lane count lies in 1..2^32 (lanes 0..2^32-1); arrays of lanes are refused.
        with pytest.raises(UsageError, match="lane"):
            words_at(path, 5, 1, 2, 3, lanes)


class TestLaneCache:
    """The int path caches its constants per seed and lane count; no cache
    entry may change a word."""

    def test_extreme_addresses_on_decoder_lanes(self):
        rng = np.random.default_rng(24)
        ends = [0, 2**32 - 1]
        for d in range(1, 64):
            seed = int(rng.integers(2**32, 2**64, dtype=np.uint64))
            for block in ends:
                for step in ends:
                    for sample in ends:
                        assert_paths_agree(seed, block, step, sample, stream.lane_count(d))


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
        samples = np.arange(2**17, dtype=np.uint64)
        w_lo, w_hi = stream.raw_words(2718, 0, 0, samples, 4)
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

    @pytest.mark.parametrize("dims", [1.5, 5, 0, -1, 3])
    def test_normals_from_words_refuses_dims_its_lanes_do_not_serve(self, dims):
        w_lo, w_hi = stream.raw_words(0, 0, 0, 0, 1)
        with pytest.raises(UsageError, match="dims"):
            stream.normals_from_words(w_lo, w_hi, dims)
        for good in (1, 2):
            assert stream.normals_from_words(w_lo, w_hi, good).shape == (good,)

    def test_odd_dims_truncates_pair(self):
        odd = stream.draw_vector(77, 0, 0, 0, 3)
        even = stream.draw_vector(77, 0, 0, 0, 4)
        assert np.array_equal(odd, even[:3])
