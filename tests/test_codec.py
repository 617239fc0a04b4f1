import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _check_blocks_match_lone_encodes(beams, stochastic, per_chunk, monkeypatch):
    # 13 blocks run in chunks of per_chunk blocks, or at the module's own cap
    # when per_chunk is None; each must equal its lone encode.
    rng = np.random.default_rng(8)
    dims = 16
    qs = [synthetic_target(dims, 25.0, rng) for _ in range(13)]
    schedule = build_schedule(25.0, 3.0, 0.2)
    cfg = RecConfig(omega=3.0, epsilon=0.2, beams=beams, stochastic_final=stochastic)
    if per_chunk is not None:
        cap = per_chunk * beams * schedule.M * dims
        monkeypatch.setattr(codec, "MAX_CHUNK_FLOATS", cap)
    blocks = [int(b) for b in rng.choice(5000, size=len(qs), replace=False)]
    indices, zs, ratios = codec.encode_blocks(qs, schedule, cfg, 21, blocks)
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
        _check_blocks_match_lone_encodes(beams, stochastic, 4, monkeypatch)

    @pytest.mark.parametrize("per_chunk", [1, None])
    @pytest.mark.parametrize("beams,stochastic", _BEAM_CASES)
    def test_matches_at_other_chunk_sizes(self, beams, stochastic, per_chunk, monkeypatch):
        # One block per chunk, or as many as the module's cap allows.
        _check_blocks_match_lone_encodes(beams, stochastic, per_chunk, monkeypatch)

    def test_rejects_mismatched_inputs(self):
        schedule = build_schedule(5.0, 3.0, 0.2)
        two = [DiagGaussian.standard(2), DiagGaussian.standard(3)]
        with pytest.raises(UsageError):
            codec.encode_blocks(two, schedule, CFG, 0, [0, 1])
        with pytest.raises(UsageError):
            codec.encode_blocks(two[:1], schedule, CFG, 0, [0, 1])
        with pytest.raises(UsageError):
            codec.encode_blocks([], schedule, CFG, 0, [])


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
