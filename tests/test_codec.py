import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import log_density_ratio
from irec import codec, stream
from irec.chain import build_schedule, schedule_from_steps
from irec.codec import RecConfig, decode, encode, importance_select
from irec.errors import ConfigError, CorruptStreamError, NumericError, UsageError
from irec.gauss import DiagGaussian
from irec.synthetic import synthetic_target

CFG = RecConfig(omega=3.0, epsilon=0.2, beams=4)


class TestImportanceSelect:
    def test_single_spike_both_modes(self):
        w = np.array([0.0, 0.0, 0.0, 1.0])
        for u in (0.0, 0.5, 1.0 - 2.0**-53):
            assert importance_select(w, u) == 3

    def test_stochastic_frequency(self):
        rng = np.random.default_rng(8)
        w = np.array([1.0, 3.0])
        hits = sum(importance_select(w, float(u)) for u in rng.random(100_000))
        assert 0.745 <= hits / 100_000 <= 0.755

    def test_stochastic_stays_in_range_at_largest_u(self):
        # u * sum(w) is a pairwise sum and the cdf a running one; at the
        # largest uniform below 1 the first could pass the cdf's last entry.
        rng = np.random.default_rng(9)
        u = 1.0 - 2.0**-53
        for _ in range(2000):
            w = rng.random(37)
            assert importance_select(w, u) == 36
        w = np.array([0.0, 2.0, 0.5, 0.0, 0.0])
        assert importance_select(w, u) == 2

    def test_rejects_bad_weights(self):
        with pytest.raises(NumericError):
            importance_select(np.array([1.0, np.nan]), 0.5)
        with pytest.raises(NumericError):
            importance_select(np.zeros(3), 0.5)
        with pytest.raises(NumericError):
            importance_select(np.array([1.0, -0.5]), 0.5)
        with pytest.raises(NumericError):
            importance_select(np.array([]), 0.5)

    def test_rejects_bad_mode_and_missing_u(self):
        for u in (-0.25, 1.0, float("nan")):
            with pytest.raises(UsageError):
                importance_select(np.ones(2), u)


class TestEncode:
    def test_standard_target_ties_to_index_zero(self):
        q = DiagGaussian.standard(4)
        schedule = build_schedule(0.0, CFG.omega, CFG.epsilon)
        indices, z, ratio = encode(q, schedule, CFG, seed=17, block=2)
        assert indices == (0,)
        expect = stream.draw_vector(17, 2, 0, 0, 4)
        assert np.array_equal(z, expect)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        q = synthetic_target(6, 9.0, rng)
        schedule = build_schedule(9.0, CFG.omega, CFG.epsilon)
        first = encode(q, schedule, CFG, seed=5, block=1)
        second = encode(q, schedule, CFG, seed=5, block=1)
        assert first[0] == second[0]
        assert np.array_equal(first[1], second[1])
        assert first[2] == second[2]

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(2)
        for trial in range(1000):
            dims = int(rng.integers(1, 9))
            # Keep the target above the generator's variance-only KL floor.
            kl = dims + float(rng.uniform(0.5, 12.0))
            q = synthetic_target(dims, kl, rng)
            schedule = build_schedule(kl, 3.0, 0.2)
            cfg = RecConfig(omega=3.0, epsilon=0.2, beams=int(rng.integers(1, 5)))
            seed = int(rng.integers(0, 2**63))
            indices, z, _ = encode(q, schedule, cfg, seed, block=trial % 16)
            z_dec = decode(indices, schedule, seed, block=trial % 16, dims=dims)
            assert np.array_equal(z, z_dec)

    def test_higher_kl_gives_more_steps(self):
        rng = np.random.default_rng(3)
        q = synthetic_target(4, 10.0, rng)
        schedule = build_schedule(10.0, 3.0, 0.2)
        indices, _, _ = encode(q, schedule, CFG, seed=0, block=0)
        assert len(indices) == schedule.K == 4

    def test_beams_raise_mean_log_ratio(self):
        rng = np.random.default_rng(4)
        trials = 40
        problems = [
            (synthetic_target(4, 8.0, rng), int(rng.integers(0, 2**31)))
            for _ in range(trials)
        ]
        schedule = build_schedule(8.0, 3.0, 0.2)
        means = []
        for beams in (1, 8):
            cfg = RecConfig(omega=3.0, epsilon=0.2, beams=beams)
            means.append(
                np.mean([encode(q, schedule, cfg, s, 0)[2] for q, s in problems])
            )
        assert means[1] > means[0]

    def test_schedule_config_mismatch(self):
        schedule = build_schedule(5.0, 3.0, 0.0)
        with pytest.raises(UsageError):
            encode(DiagGaussian.standard(2), schedule, CFG, seed=0, block=0)

    def test_candidate_budget(self):
        schedule = build_schedule(5.0, 3.0, 0.2)
        big = RecConfig(omega=3.0, epsilon=0.2, beams=2**20)
        with pytest.raises(ConfigError):
            encode(DiagGaussian.standard(64), schedule, big, seed=0, block=0)

    def test_stochastic_single_beam_round_trips(self):
        rng = np.random.default_rng(6)
        q = synthetic_target(2, 4.0, rng)
        schedule = build_schedule(4.0, 3.0, 0.0)
        cfg = RecConfig(omega=3.0, epsilon=0.0, beams=1, stochastic_final=True)
        indices, z, _ = encode(q, schedule, cfg, seed=33, block=0)
        assert np.array_equal(z, decode(indices, schedule, 33, 0, 2))

    def test_log_ratio_matches_decoded_sample(self):
        rng = np.random.default_rng(7)
        q = synthetic_target(5, 11.0, rng)
        schedule = build_schedule(11.0, 3.0, 0.2)
        indices, z, ratio = encode(q, schedule, CFG, seed=9, block=0)
        assert ratio == pytest.approx(
            log_density_ratio(q, DiagGaussian.standard(5), z), abs=1e-9
        )


def _top_b_reference(scores, keep):
    return np.sort(np.argsort(-scores, axis=1, kind="stable")[:, :keep], axis=1)


# Few distinct values, so rows are full of ties, next to every special value.
_SCORES = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 2.5, 1e300, -1e300, np.inf, -np.inf, np.nan]
) | st.floats(allow_nan=True, allow_infinity=True)


class TestTopB:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_stable_argsort(self, data):
        rows = data.draw(st.integers(1, 4))
        width = data.draw(st.integers(1, 40))
        keep = data.draw(st.integers(1, width))
        scores = np.array(
            data.draw(st.lists(_SCORES, min_size=rows * width, max_size=rows * width))
        ).reshape(rows, width)
        got = codec.top_b(scores, keep)
        assert got.shape == (rows, keep)
        assert np.array_equal(got, _top_b_reference(scores, keep))

    @pytest.mark.parametrize("keep", [1, 20, 740])
    def test_beam_sized_rows(self, keep):
        rng = np.random.default_rng(keep)
        scores = np.round(rng.normal(size=(30, 740)), 1)  # many ties
        scores[0] = 0.0
        scores[1, ::2] = -0.0
        scores[2, :700] = np.nan
        assert np.array_equal(codec.top_b(scores, keep), _top_b_reference(scores, keep))


# Every special value next to arbitrary floats (subnormals and magnitudes
# up to 1e308 among them); no NaN, whose payload np.sum does not fix.
_TERMS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, -1e300, 1e300, np.inf, -np.inf]
) | st.floats(allow_nan=False, allow_infinity=True)


def _np_sum_rows(x):
    # x is (D, G, B, M); np.sum over each candidate's contiguous row of D.
    return np.sum(np.ascontiguousarray(np.moveaxis(x, 0, -1)), axis=-1)


class TestSumDims:
    @pytest.mark.parametrize("dims", range(1, 41))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_equals_np_sum(self, dims, data):
        shape = (dims,) + tuple(data.draw(st.integers(1, 3)) for _ in range(3))
        x = data.draw(hnp.arrays(np.float64, shape, elements=_TERMS))
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, 1e308 + 1e308
            expect = _np_sum_rows(x)
            got = codec._sum_dims(x.copy())
        assert got.tobytes() == expect.tobytes()
        zeros = np.full((dims, 2, 1, 1), -0.0)  # np.sum starts from +0.0
        assert codec._sum_dims(zeros).tobytes() == _np_sum_rows(zeros).tobytes()

    @pytest.mark.parametrize("dims", [128, 129, 300, 1000])
    def test_equals_np_sum_on_long_axes(self, dims):
        # Past 128 terms NumPy splits the axis in two and sums the halves.
        rng = np.random.default_rng(dims)
        x = rng.normal(size=(dims, 2, 3, 5)) * 10.0 ** rng.uniform(-300, 300, (dims, 2, 3, 5))
        assert codec._sum_dims(x.copy()).tobytes() == _np_sum_rows(x).tobytes()


def _thirteen_blocks():
    # 13 blocks of 16 dims at KL 25: K = 9 steps of M = 37 samples.
    rng = np.random.default_rng(8)
    dims = 16
    qs = [synthetic_target(dims, 25.0, rng) for _ in range(13)]
    schedule = build_schedule(25.0, 3.0, 0.2)
    blocks = [int(b) for b in rng.choice(5000, size=len(qs), replace=False)]
    return qs, schedule, blocks


def _stacked(qs):
    return np.array([q.mean for q in qs]), np.array([q.std for q in qs])


def _check_blocks_match_lone_encodes(beams, stochastic, monkeypatch, per_chunk=None, span=None):
    # 13 blocks run in chunks of per_chunk blocks; or in one chunk whose
    # draws come `span` steps per stream call (the budget holds 13 blocks'
    # draws of `span` steps, which is a chunk of all 13 when 8 * span >=
    # beams); or at the module's own budget when neither is given. Each
    # block must equal its lone encode under the same budget.
    qs, schedule, blocks = _thirteen_blocks()
    dims = qs[0].dim
    cfg = RecConfig(omega=3.0, epsilon=0.2, beams=beams, stochastic_final=stochastic)
    if per_chunk is not None:
        cap = per_chunk * beams * schedule.M * dims
        monkeypatch.setattr(codec, "MAX_CHUNK_FLOATS", cap)
    if span is not None:
        assert 8 * span >= beams
        cap = 8 * span * len(qs) * schedule.M * dims
        monkeypatch.setattr(codec, "MAX_CHUNK_FLOATS", cap)
    indices, zs, ratios = codec.encode_blocks(*_stacked(qs), schedule, cfg, 21, blocks)
    for q, block, idx, z, ratio in zip(qs, blocks, indices, zs, ratios):
        alone = encode(q, schedule, cfg, seed=21, block=block)
        assert idx == alone[0]
        assert z.tobytes() == alone[1].tobytes()
        assert ratio == alone[2]


_BEAM_CASES = [(1, False), (4, False), (20, False), (1, True)]


class TestEncodeBlocks:
    @pytest.mark.parametrize("beams,stochastic", _BEAM_CASES)
    def test_matches_one_block_at_a_time(self, beams, stochastic, monkeypatch):
        # Chunks of 4, 4, 4 and 1.
        _check_blocks_match_lone_encodes(beams, stochastic, monkeypatch, per_chunk=4)

    @pytest.mark.parametrize("per_chunk", [1, None])
    @pytest.mark.parametrize("beams,stochastic", _BEAM_CASES)
    def test_matches_at_other_chunk_sizes(self, beams, stochastic, per_chunk, monkeypatch):
        # One block per chunk, or as many as the module's cap allows.
        _check_blocks_match_lone_encodes(beams, stochastic, monkeypatch, per_chunk=per_chunk)

    @pytest.mark.parametrize("span", [1, 2, 9, 30])
    @pytest.mark.parametrize("beams,stochastic", [(1, False), (4, False), (1, True)])
    def test_matches_across_draw_slabs(self, beams, stochastic, span, monkeypatch):
        # Slabs of 1 step, of 2 (which do not divide K = 9), of exactly K and
        # of 30 > K steps; under these budgets a lone encode draws all 9 at once.
        assert _thirteen_blocks()[1].K == 9
        _check_blocks_match_lone_encodes(beams, stochastic, monkeypatch, span=span)

    @pytest.mark.parametrize("per_chunk,calls", [(None, 5), (4, 3 * 9 + 5)])
    def test_one_stream_call_per_draw_slab(self, per_chunk, calls, monkeypatch):
        # A chunk of G blocks draws span = max(1, (MAX_CHUNK_FLOATS // 8) //
        # (G * M * D)) steps per call, so ceil(K / span) calls. At the
        # module's budget one chunk of 13 blocks draws 2 steps per call: 5
        # calls. Chunks of 4, 4, 4 and 1 blocks draw 1, 1, 1 and 2 steps.
        qs, schedule, blocks = _thirteen_blocks()
        cfg = RecConfig(omega=3.0, epsilon=0.2, beams=4)
        if per_chunk is not None:
            cap = per_chunk * cfg.beams * schedule.M * qs[0].dim
            monkeypatch.setattr(codec, "MAX_CHUNK_FLOATS", cap)
        raw_words = stream.raw_words
        seen = []

        def counting(*args):
            seen.append(args)
            return raw_words(*args)

        monkeypatch.setattr(stream, "raw_words", counting)
        codec.encode_blocks(*_stacked(qs), schedule, cfg, 21, blocks)
        assert len(seen) == calls

    def test_rejects_mismatched_inputs(self):
        schedule = build_schedule(5.0, 3.0, 0.2)
        two = np.zeros((2, 2))
        with pytest.raises(UsageError):
            codec.encode_blocks(two, np.ones(3), schedule, CFG, 0, [0, 1])
        with pytest.raises(UsageError):
            codec.encode_blocks(two[:1], np.ones(2), schedule, CFG, 0, [0, 1])
        with pytest.raises(UsageError):
            codec.encode_blocks(two[:0], np.ones(2), schedule, CFG, 0, [])


class TestDecode:
    def test_single_step_index(self):
        schedule = build_schedule(0.0, 3.0, 0.2)
        for m in (0, 7, 36):
            z = decode((m,), schedule, seed=4, block=1, dims=3)
            expect = stream.draw_vector(4, 1, 0, m, 3)  # sigma_1 == 1
            assert np.array_equal(z, expect)

    def test_signature_has_no_encoder_knobs(self):
        params = inspect.signature(decode).parameters
        assert set(params) == {"indices", "schedule", "seed", "block", "dims"}

    def test_rejects_wrong_length(self):
        schedule = schedule_from_steps(3, 3.0, 0.2)
        with pytest.raises(CorruptStreamError):
            decode((0,), schedule, 0, 0, 2)

    def test_rejects_out_of_range_index(self):
        schedule = build_schedule(0.0, 3.0, 0.2)
        with pytest.raises(CorruptStreamError):
            decode((37,), schedule, 0, 0, 2)


class TestRecConfig:
    def test_defaults(self):
        cfg = RecConfig()
        assert cfg.omega == 3.0
        assert cfg.epsilon == 0.2
        assert cfg.beams == 20

    def test_rejects_bad_beams(self):
        with pytest.raises(UsageError):
            RecConfig(beams=0)

    def test_rejects_stochastic_with_many_beams(self):
        # Only the single-beam encoder samples its steps.
        with pytest.raises(UsageError):
            RecConfig(omega=3.0, epsilon=0.2, beams=2, stochastic_final=True)

    def test_rejects_overflowing_m(self):
        with pytest.raises(ConfigError):
            RecConfig(omega=40.0, epsilon=0.0)
