import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from irec import residual
from irec.errors import CorruptStreamError, UsageError
from irec.residual import (
    HI,
    LO,
    TOTAL_FREQ,
    decode_residuals,
    encode_residuals,
    norm_cdf,
    pmf_quantized,
)


class TestNormCdf:
    def test_symmetry_point(self):
        assert norm_cdf(0.0) == pytest.approx(0.5, abs=1e-8)

    def test_matches_reference(self):
        x = np.linspace(-6, 6, 241)
        assert np.max(np.abs(norm_cdf(x) - stats.norm.cdf(x))) < 1e-7

    def test_monotone(self):
        x = np.linspace(-8, 8, 1000)
        assert np.all(np.diff(norm_cdf(x)) >= 0)


class TestPmfQuantized:
    def test_standard_center_mass(self):
        # Continuous mass before quantization; the tick table donates a few
        # hundred ticks to floor symbols, so compare against the raw CDF.
        p0 = float(norm_cdf(0.5) - norm_cdf(-0.5))
        assert p0 == pytest.approx(0.38292, abs=1e-5)
        freq = pmf_quantized(1.0)
        assert freq[0 - LO] / TOTAL_FREQ == pytest.approx(p0, abs=0.01)

    def test_degenerate_sigma_concentrates(self):
        freq = pmf_quantized(1e-6)
        support = HI - LO + 1
        assert freq[0 - LO] == TOTAL_FREQ - (support - 1)
        assert np.all(np.delete(freq, 0 - LO) == 1)

    def test_sums_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            freq = pmf_quantized(float(rng.uniform(1e-4, 100)))
            assert int(freq.sum()) == TOTAL_FREQ
            assert np.all(freq >= 1)

    def test_mean_far_outside_support(self):
        # Every symbol's mass rounds to zero, as for a model file's huge
        # noise variance; the centre symbol takes the table.
        for sigma in (1e300, float("inf")):
            freq = pmf_quantized(sigma)
            assert int(freq.sum()) == TOTAL_FREQ
            assert int(np.argmax(freq)) == 0 - LO
            assert np.all(np.delete(freq, 0 - LO) == 1)

    def test_rejects_bad_parameters(self):
        for sigma in (0.0, -1.0, float("nan")):
            with pytest.raises(UsageError):
                pmf_quantized(sigma)


class TestRoundTrip:
    def test_random_vectors(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            sigma = float(rng.uniform(0.5, 30.0))
            n = int(rng.integers(1, 64))
            r = np.clip(
                np.rint(rng.normal(0, sigma, size=n)).astype(np.int64), -255, 255
            )
            data = encode_residuals(r, sigma)
            assert np.array_equal(decode_residuals(data, sigma, n), r)

    def test_long_vector(self):
        rng = np.random.default_rng(2)
        r = np.clip(np.rint(rng.normal(0, 3, size=4096)).astype(np.int64), -255, 255)
        data = encode_residuals(r, 3.0)
        assert np.array_equal(decode_residuals(data, 3.0, 4096), r)

    def test_empty(self):
        # The full stream is five zero bytes: the leading one and a flush of
        # zeros, none of which is written.
        assert encode_residuals(np.zeros(0, dtype=np.int64), 1.0) == b""
        assert decode_residuals(b"", 1.0, 0).size == 0
        assert decode_residuals(b"\x00" * 5, 1.0, 0, full=True).size == 0

    def test_single_symbol(self):
        data = encode_residuals(np.array([-7]), 1.0)
        assert decode_residuals(data, 1.0, 1)[0] == -7

    def test_out_of_support_value(self):
        for value in (HI + 1, LO - 1):
            with pytest.raises(UsageError):
                encode_residuals(np.array([value]), 1.0)


class TestEfficiency:
    def test_all_zero_near_degenerate(self):
        data = encode_residuals(np.zeros(4096, dtype=np.int64), 1e-6)
        assert len(data) <= 16

    def test_near_optimal_codelength(self):
        rng = np.random.default_rng(3)
        for sigma in (1.0, 4.0, 20.0):
            freq = pmf_quantized(sigma)
            p = freq / float(TOTAL_FREQ)
            r = np.clip(
                np.rint(rng.normal(0, sigma, size=10_000)).astype(np.int64), -255, 255
            )
            data = encode_residuals(r, sigma)
            ideal = float(-np.sum(np.log2(p[r - LO])))
            assert 8 * len(data) <= ideal * 1.01 + 64


class TestRobustness:
    def test_model_mismatch_differs_or_errors(self):
        rng = np.random.default_rng(4)
        r = np.clip(np.rint(rng.normal(0, 2, size=256)).astype(np.int64), -255, 255)
        data = encode_residuals(r, 2.0)
        try:
            out = decode_residuals(data, 9.0, 256)
        except CorruptStreamError:
            return
        assert not np.array_equal(out, r)

    def test_exhausted_input(self):
        with pytest.raises(CorruptStreamError):
            decode_residuals(b"\x00\x01", 1.0, 10, full=True)
        # The decoder reads at most 4 zero bytes past the end of a section,
        # and an empty one cannot hold these 4096 symbols.
        with pytest.raises(CorruptStreamError):
            decode_residuals(b"", 1e-6, 4096)

    def test_input_exhausted_mid_stream(self):
        rng = np.random.default_rng(5)
        r = np.clip(np.rint(rng.normal(0, 8, size=2000)).astype(np.int64), -255, 255)
        # The full stream: the leading 0, then the section, whose last byte
        # here is the flush's top byte, then the flush's three dropped zeros.
        full = b"\x00" + encode_residuals(r, 8.0) + bytes(3)
        assert np.array_equal(decode_residuals(full, 8.0, r.size, full=True), r)
        for cut in (5, len(full) // 2, len(full) - 6):
            with pytest.raises(CorruptStreamError):
                decode_residuals(full[:cut], 8.0, r.size, full=True)


class TestCanonicalSection:
    def test_every_encoder_section_decodes(self):
        rng = np.random.default_rng(12)
        for sigma in (0.01, 0.7, 3.0, 40.0, 1e6):
            for n in (1, 2, 3, 9, 300, 4096):
                noisy = np.rint(rng.normal(0, min(sigma, 300.0), size=n))
                for r in (np.zeros(n, dtype=np.int64), np.clip(noisy, LO, HI).astype(np.int64)):
                    assert np.array_equal(decode_residuals(encode_residuals(r, sigma), sigma, n), r)

    def test_appended_bytes_rejected_unless_canonical(self):
        # A section that decodes is the encoder's own section of what it
        # decodes to, so an edit that passes cannot be told apart.
        rng = np.random.default_rng(13)
        rejected = 0
        for _ in range(400):
            sigma = float(rng.choice([0.5, 2.0, 8.0, 50.0]))
            r = np.clip(np.rint(rng.normal(0, sigma, size=int(rng.integers(1, 200)))), LO, HI)
            data = encode_residuals(r.astype(np.int64), sigma)
            data += bytes(rng.integers(0, 256, size=int(rng.integers(1, 4))).tolist())
            try:
                out = decode_residuals(data, sigma, r.size)
            except CorruptStreamError:
                rejected += 1
                continue
            assert encode_residuals(out, sigma) == data
        assert rejected >= 390


def test_table_built_once_per_model(monkeypatch):
    calls = []

    def counting(sigma):
        calls.append(sigma)
        return pmf_quantized(sigma)

    monkeypatch.setattr(residual, "pmf_quantized", counting)
    residual._table.cache_clear()
    r = np.arange(-20, 21)
    for _ in range(3):
        data = encode_residuals(r, 3.0)
        assert np.array_equal(decode_residuals(data, 3.0, r.size), r)
    assert calls == [3.0]


@pytest.mark.parametrize("sigma", [1e-6, 0.3, 1.98, 20.0, 1e6, 1e300])
def test_slot_table_matches_bisect(sigma):
    # At 1e300 every symbol's mass rounds to zero and the centre symbol takes
    # the table; at 1e6 the table is close to flat.
    _, cum, slots = residual._table(sigma)
    assert len(slots) == TOTAL_FREQ == cum[-1]
    assert list(slots) == [bisect.bisect_right(cum, q) - 1 for q in range(TOTAL_FREQ)]


class TestInputChecks:
    def test_refuses_non_integer_residuals(self):
        for bad in ([1.7, -2.2], [float("nan")], [float("inf")], [True], [[1, 2]], 3):
            with pytest.raises(UsageError):
                encode_residuals(bad, 2.0)

    def test_names_first_value_outside_support(self):
        with pytest.raises(UsageError, match=r"residual 300 outside \[-255, 255\]"):
            encode_residuals(np.array([3, 300, -400]), 2.0)
        with pytest.raises(UsageError, match="residual 65535 outside"):
            encode_residuals(np.array([7, 65535], dtype=np.uint16), 2.0)

    def test_integer_dtypes_code_alike(self):
        r = [-255, -3, 0, 1, 255]
        data = encode_residuals(np.array(r, dtype=np.int64), 2.0)
        assert encode_residuals(r, 2.0) == data
        assert encode_residuals(np.array(r, dtype=np.int16), 2.0) == data
        assert encode_residuals(np.array([0, 200], dtype=np.uint8), 2.0) == encode_residuals(
            np.array([0, 200]), 2.0
        )

    def test_refuses_negative_count(self):
        for data in (b"", b"\x00" * 8):
            with pytest.raises(UsageError):
                decode_residuals(data, 2.0, -1)


@settings(max_examples=400, deadline=None)
@given(
    data=st.binary(max_size=64),
    sigma=st.sampled_from([1e-6, 0.3, 1.98, 20.0, 1e6]),
    count=st.integers(0, 300),
    full=st.booleans(),
)
def test_decode_arbitrary_bytes(data, sigma, count, full):
    # Arbitrary bytes decode to count residuals in the support or raise
    # CorruptStreamError; reading past the end is never an IndexError.
    try:
        out = decode_residuals(data, sigma, count, full=full)
    except CorruptStreamError:
        return
    assert out.dtype == np.int64 and out.shape == (count,)
    assert np.all((out >= LO) & (out <= HI))
