
import numpy as np
import pytest
from scipy import stats

from irec import residual
from irec.errors import ConfigError, CorruptStreamError, UsageError
from irec.residual import (
    TOTAL_FREQ,
    DiscretizedGaussian,
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
        model = DiscretizedGaussian(mu=0.0, sigma=1.0)
        freq = pmf_quantized(model)
        assert freq[0 - model.lo] / TOTAL_FREQ == pytest.approx(p0, abs=0.01)

    def test_degenerate_sigma_concentrates(self):
        model = DiscretizedGaussian(mu=0.0, sigma=1e-6)
        freq = pmf_quantized(model)
        support = model.hi - model.lo + 1
        assert freq[0 - model.lo] == TOTAL_FREQ - (support - 1)
        assert np.all(np.delete(freq, 0 - model.lo) == 1)

    def test_sums_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            model = DiscretizedGaussian(
                mu=float(rng.uniform(-200, 200)), sigma=float(rng.uniform(1e-4, 100))
            )
            freq = pmf_quantized(model)
            assert int(freq.sum()) == TOTAL_FREQ
            assert np.all(freq >= 1)

    def test_mean_far_outside_support(self):
        model = DiscretizedGaussian(mu=5000.0, sigma=0.01)
        freq = pmf_quantized(model)
        assert int(freq.sum()) == TOTAL_FREQ
        assert int(np.argmax(freq)) == model.hi - model.lo

    def test_support_wider_than_precision(self):
        model = DiscretizedGaussian(mu=0.0, sigma=1.0, lo=0, hi=70000)
        with pytest.raises(ConfigError):
            pmf_quantized(model)

    def test_rejects_bad_parameters(self):
        with pytest.raises(UsageError):
            DiscretizedGaussian(mu=0.0, sigma=0.0)
        with pytest.raises(UsageError):
            DiscretizedGaussian(mu=0.0, sigma=1.0, lo=3, hi=2)


class TestRoundTrip:
    def test_random_vectors(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            sigma = float(rng.uniform(0.5, 30.0))
            model = DiscretizedGaussian(mu=0.0, sigma=sigma)
            n = int(rng.integers(1, 64))
            r = np.clip(
                np.rint(rng.normal(0, sigma, size=n)).astype(np.int64), -255, 255
            )
            data = encode_residuals(r, model)
            assert np.array_equal(decode_residuals(data, model, n), r)

    def test_long_vector(self):
        rng = np.random.default_rng(2)
        model = DiscretizedGaussian(mu=0.0, sigma=3.0)
        r = np.clip(np.rint(rng.normal(0, 3, size=4096)).astype(np.int64), -255, 255)
        data = encode_residuals(r, model)
        assert np.array_equal(decode_residuals(data, model, 4096), r)

    def test_empty(self):
        model = DiscretizedGaussian(mu=0.0, sigma=1.0)
        assert encode_residuals(np.zeros(0, dtype=np.int64), model) == b"\x00" * 5
        assert decode_residuals(b"", model, 0).size == 0

    def test_single_symbol(self):
        model = DiscretizedGaussian(mu=0.0, sigma=1.0)
        data = encode_residuals(np.array([-7]), model)
        assert decode_residuals(data, model, 1)[0] == -7

    def test_per_symbol_models(self):
        models = [
            DiscretizedGaussian(mu=0.0, sigma=1.0),
            DiscretizedGaussian(mu=10.0, sigma=4.0),
            DiscretizedGaussian(mu=-3.0, sigma=0.5),
        ]
        r = np.array([0, 12, -3])
        data = encode_residuals(r, models)
        assert np.array_equal(decode_residuals(data, models, 3), r)

    def test_out_of_support_value(self):
        model = DiscretizedGaussian(mu=0.0, sigma=1.0)
        with pytest.raises(UsageError):
            encode_residuals(np.array([300]), model)

    def test_model_count_mismatch(self):
        model = DiscretizedGaussian(mu=0.0, sigma=1.0)
        with pytest.raises(UsageError):
            encode_residuals(np.array([0, 0]), [model])


class TestEfficiency:
    def test_all_zero_near_degenerate(self):
        model = DiscretizedGaussian(mu=0.0, sigma=1e-6)
        data = encode_residuals(np.zeros(4096, dtype=np.int64), model)
        assert len(data) <= 16

    def test_near_optimal_codelength(self):
        rng = np.random.default_rng(3)
        for sigma in (1.0, 4.0, 20.0):
            model = DiscretizedGaussian(mu=0.0, sigma=sigma)
            freq = pmf_quantized(model)
            p = freq / float(TOTAL_FREQ)
            r = np.clip(
                np.rint(rng.normal(0, sigma, size=10_000)).astype(np.int64), -255, 255
            )
            data = encode_residuals(r, model)
            ideal = float(-np.sum(np.log2(p[r - model.lo])))
            assert 8 * len(data) <= ideal * 1.01 + 64


class TestRobustness:
    def test_model_mismatch_differs_or_errors(self):
        rng = np.random.default_rng(4)
        enc_model = DiscretizedGaussian(mu=0.0, sigma=2.0)
        dec_model = DiscretizedGaussian(mu=0.0, sigma=9.0)
        r = np.clip(np.rint(rng.normal(0, 2, size=256)).astype(np.int64), -255, 255)
        data = encode_residuals(r, enc_model)
        try:
            out = decode_residuals(data, dec_model, 256)
        except CorruptStreamError:
            return
        assert not np.array_equal(out, r)

    def test_exhausted_input(self):
        model = DiscretizedGaussian(mu=0.0, sigma=1.0)
        with pytest.raises(CorruptStreamError):
            decode_residuals(b"\x00\x01", model, 10)

    def test_input_exhausted_mid_stream(self):
        rng = np.random.default_rng(5)
        model = DiscretizedGaussian(mu=0.0, sigma=8.0)
        r = np.clip(np.rint(rng.normal(0, 8, size=2000)).astype(np.int64), -255, 255)
        data = encode_residuals(r, model)
        for cut in (5, len(data) // 2, len(data) - 6):
            with pytest.raises(CorruptStreamError):
                decode_residuals(data[:cut], model, r.size)


def test_table_built_once_per_model(monkeypatch):
    calls = []

    def counting(model, *args):
        calls.append(model)
        return pmf_quantized(model, *args)

    monkeypatch.setattr(residual, "pmf_quantized", counting)
    residual._table.cache_clear()
    model = DiscretizedGaussian(mu=0.25, sigma=3.0)
    r = np.arange(-20, 21)
    for _ in range(3):
        data = encode_residuals(r, DiscretizedGaussian(mu=0.25, sigma=3.0))
        assert np.array_equal(decode_residuals(data, model, r.size), r)
    assert calls == [model]
