import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import log_density_ratio
from irec import codec, stream
from irec.chain import build_schedule, schedule_from_steps, target_moments
from irec.codec import RecConfig, decode, encode, importance_select
from irec.errors import ConfigError, CorruptStreamError, NumericError, UsageError
from irec.gauss import DiagGaussian, kl_divergence
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


class _FirstStepScored(Exception):
    pass


class TestScores:
    @pytest.mark.parametrize("dims", [*range(1, 41), 128, 129, 300, 1000])
    def test_sum_dims_in_index_order(self, dims, monkeypatch):
        # The first step's scores against pure-Python floats. The code
        # expands the square: a cross term sum a_i (m_i / v_i), a per-beam
        # term -sum m_i (m_i / v_i) / 2, a per-sample term
        # sum a_i^2 (1 / (2 sigma^2) - 1 / (2 v_i)) and the norm
        # -sum log(v_i / sigma^2) / 2, each added for i = 0..D-1 in order
        # from its first term, then combined in the order the code adds them.
        rng = np.random.default_rng(dims)
        q = DiagGaussian(rng.normal(0.0, 3.0, dims), 10.0 ** rng.uniform(-3.0, 0.0, dims))
        schedule = build_schedule(kl_divergence(q, DiagGaussian.standard(dims)), 3.0, 0.2)
        seen = []

        def first_step(scores, keep):
            seen.append(scores.copy())
            raise _FirstStepScored

        monkeypatch.setattr(codec, "top_b", first_step)
        with pytest.raises(_FirstStepScored):
            encode(q, schedule, CFG, seed=3, block=7)
        sig_sq, s_prev, s_next = schedule.steps[1:, 0].tolist()
        a = stream.draw_normals(3, 7, 0, np.arange(schedule.M), dims) * np.sqrt(sig_sq)
        mean_t, var_t = target_moments(q.mean, q.var, np.zeros(dims), sig_sq, s_prev, s_next)

        def in_order(terms):
            total = terms[0]
            for term in terms[1:]:
                total += term
            return total

        m, v = mean_t.tolist(), var_t.tolist()
        r = [m_i / v_i for m_i, v_i in zip(m, v)]
        c = [0.5 / sig_sq - 0.5 / v_i for v_i in v]
        norm = -0.5 * in_order(np.log(var_t / sig_sq).tolist())
        head = (0.0 + norm) - 0.5 * in_order([m_i * r_i for m_i, r_i in zip(m, r)])
        expect = []
        for row in a.tolist():
            cross = in_order([a_i * r_i for a_i, r_i in zip(row, r)])
            tail = in_order([a_i * a_i * c_i for a_i, c_i in zip(row, c)])
            expect.append((cross + head) + tail)
        assert seen[0].tobytes() == np.array([expect]).tobytes()


def _thirteen_blocks():
    # 13 blocks of 16 dims at KL 25: K = 9 steps of M = 37 samples.
    rng = np.random.default_rng(8)
    dims = 16
    qs = [synthetic_target(dims, 25.0, rng) for _ in range(13)]
    schedule = build_schedule(25.0, 3.0, 0.2)
    blocks = [int(b) for b in rng.choice(5000, size=len(qs), replace=False)]
    return qs, schedule, blocks


def _mixed_blocks():
    # 13 blocks of 16 dims, of K = 1..9 steps and four repeats, in shuffled
    # order; each schedule is the equal-KL one for its own target.
    rng = np.random.default_rng(9)
    qs = [synthetic_target(16, 25.0, rng) for _ in range(13)]
    steps = rng.permutation([*range(1, 10), 2, 5, 7, 9]).tolist()
    schedules = [schedule_from_steps(k, 3.0, 0.2, q.var) for k, q in zip(steps, qs)]
    blocks = [int(b) for b in rng.choice(5000, size=len(qs), replace=False)]
    return qs, schedules, blocks


def _stacked(qs):
    return np.array([q.mean for q in qs]), np.array([q.std for q in qs])


def _set_budget(monkeypatch, beams, schedule, dims, per_chunk=None, span=None):
    # A chunk of G blocks scores G * B * M floats and draws G * span * M * D
    # per stream call, both within MAX_CHUNK_FLOATS. A budget of
    # per_chunk * B * M gives chunks of per_chunk blocks; one of
    # span * 13 * M * D gives the 13 blocks one chunk (if span * D >= B)
    # that draws `span` steps per call. With neither, the module's budget
    # stays.
    if per_chunk is not None:
        monkeypatch.setattr(codec, "MAX_CHUNK_FLOATS", per_chunk * beams * schedule.M)
    if span is not None:
        monkeypatch.setattr(codec, "MAX_CHUNK_FLOATS", span * 13 * schedule.M * dims)


def _check_blocks_match_lone_encodes(
    beams, stochastic, monkeypatch, per_chunk=None, span=None, mixed=False, own_seeds=False
):
    # 13 blocks run in chunks of per_chunk blocks; or in one chunk whose
    # draws come `span` steps per stream call; or at the module's own budget
    # when neither is given. Each block must equal its lone encode under the
    # same budget. The blocks share one schedule of K = 9, or with `mixed`
    # have schedules of K = 1..9. They share seed 21, or with `own_seeds`
    # are all block 0, each under its own seed, as the studies encode.
    if mixed:
        qs, schedules, blocks = _mixed_blocks()
    else:
        qs, schedule, blocks = _thirteen_blocks()
        schedules = [schedule] * len(qs)
    seeds = [21] * len(qs)
    if own_seeds:
        seeds = [21 + 2**59 * i for i in range(12)] + [2**64 - 1]
        blocks = [0] * len(qs)
    dims = qs[0].dim
    cfg = RecConfig(omega=3.0, epsilon=0.2, beams=beams, stochastic_final=stochastic)
    _set_budget(monkeypatch, beams, schedules[0], dims, per_chunk, span)
    chunks, slab_steps = [], []
    encode_chunk, draw_normals = codec._encode_chunk, stream.draw_normals

    def counting_chunk(*args):
        chunks.append(len(args[5]))
        return encode_chunk(*args)

    def counting_draws(seed, block, step, *args):
        slab_steps.append(len(np.unique(step)))
        return draw_normals(seed, block, step, *args)

    with monkeypatch.context() as patch:
        patch.setattr(codec, "_encode_chunk", counting_chunk)
        patch.setattr(stream, "draw_normals", counting_draws)
        seed = np.array(seeds, dtype=np.uint64) if own_seeds else 21
        indices, zs, ratios = codec.encode_blocks(*_stacked(qs), schedules, cfg, seed, blocks)
    if per_chunk is not None:
        assert chunks == [min(per_chunk, 13 - lo) for lo in range(0, 13, per_chunk)]
    if span is not None:
        assert max(s.K for s in schedules) == 9
        assert chunks == [13]
        assert slab_steps == [min(span, 9 - k) for k in range(0, 9, span)]
    for q, schedule, seed, block, idx, z, ratio in zip(
        qs, schedules, seeds, blocks, indices, zs, ratios
    ):
        alone = encode(q, schedule, cfg, seed=seed, block=block)
        assert idx == alone[0]
        assert z.tobytes() == alone[1].tobytes()
        assert ratio == alone[2]


_BEAM_CASES = [(1, False), (4, False), (20, False), (1, True)]
_BUDGETS = {
    "chunk1": {"per_chunk": 1},
    "chunk4": {"per_chunk": 4},
    "module": {},
    "span1": {"span": 1},
    "span2": {"span": 2},
    "span30": {"span": 30},
}


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
        # of 30 > K steps; under these budgets a lone encode draws at least
        # 13 steps, so all 9 at once.
        assert _thirteen_blocks()[1].K == 9
        _check_blocks_match_lone_encodes(beams, stochastic, monkeypatch, span=span)

    @pytest.mark.parametrize(
        "beams,stochastic,budget",
        [
            pytest.param(beams, stochastic, budget, id=f"{beams}-{stochastic}-{name}")
            for beams, stochastic in _BEAM_CASES
            for name, budget in _BUDGETS.items()
            if budget.get("span", beams) * 16 >= beams
        ],
    )
    def test_matches_across_step_counts(self, beams, stochastic, budget, monkeypatch):
        # Blocks of K = 1..9 in one call: chunks of 1 or 4 blocks or as many
        # as the module's budget allows, or one chunk drawing 1, 2 or 30
        # steps per stream call, so that blocks retire inside a slab. (B = 20
        # takes no slab of 1 step: span * D = 16 < B, so its chunks would not
        # hold all 13.)
        _check_blocks_match_lone_encodes(beams, stochastic, monkeypatch, mixed=True, **budget)

    @pytest.mark.parametrize("budget", [{"per_chunk": 4}, {"span": 2}], ids=["chunk4", "span2"])
    @pytest.mark.parametrize("beams,stochastic", _BEAM_CASES)
    def test_matches_with_a_seed_per_block(self, beams, stochastic, budget, monkeypatch):
        # Blocks of K = 1..9, all block 0, each under its own seed: chunks
        # of 4 blocks taken in order of K, or one chunk whose slabs of 2
        # steps hold rows of several seeds and blocks that retire inside.
        _check_blocks_match_lone_encodes(
            beams, stochastic, monkeypatch, mixed=True, own_seeds=True, **budget
        )

    @pytest.mark.parametrize(
        "beams,stochastic,budget",
        [
            pytest.param(beams, stochastic, budget, id=f"{beams}-{stochastic}-{name}")
            for beams, stochastic in _BEAM_CASES
            for name, budget in _BUDGETS.items()
        ],
    )
    def test_draws_exactly_what_it_uses(
        self, beams, stochastic, budget, monkeypatch, raw_words_calls
    ):
        # Blocks of K = 1..9: the normal draws address each live (block,
        # step), k < K, at samples 0..M-1 exactly once, and nothing else; a
        # stochastic encode adds one uniform per live (block, step), at the
        # reserved sample M, which no normal draw uses. Each Philox
        # invocation gives one word of raw_words' output: ceil(D / 2) per
        # normal vector, one per uniform.
        qs, schedules, blocks = _mixed_blocks()
        m, dims = schedules[0].M, qs[0].dim
        cfg = RecConfig(omega=3.0, epsilon=0.2, beams=beams, stochastic_final=stochastic)
        _set_budget(monkeypatch, beams, schedules[0], dims, **budget)
        codec.encode_blocks(*_stacked(qs), schedules, cfg, 21, blocks)
        normals, uniforms = [], []
        for (_, block, step, samples, _), _ in raw_words_calls:
            grid = np.broadcast_arrays(block, step, samples)
            for address in zip(*(np.ravel(x).tolist() for x in grid)):
                (uniforms if address[2] == m else normals).append(address)
        live = [(block, k) for block, s in zip(blocks, schedules) for k in range(s.K)]
        assert sorted(normals) == sorted((*pair, i) for pair in live for i in range(m))
        assert sorted(uniforms) == (sorted((*pair, m) for pair in live) if stochastic else [])
        total = sum(words for _, words in raw_words_calls)
        assert total == len(live) * (m * -(-dims // 2) + stochastic)

    @pytest.mark.parametrize("per_chunk,calls", [(None, 5), (4, 4 * 9)])
    def test_one_stream_call_per_draw_slab(self, per_chunk, calls, monkeypatch, raw_words_calls):
        # A chunk of G blocks draws span = max(1, MAX_CHUNK_FLOATS // (G * M
        # * D)) steps per call, so ceil(K / span) calls. At the module's
        # budget of 2**14 floats one chunk of 13 blocks (13 * B * M = 1,924
        # scores) draws 2 steps per call (13 * M * D = 7,696 floats a step):
        # 5 calls. A budget of 4 * B * M = 592 floats gives chunks of 4, 4, 4
        # and 1 blocks, and each draws 1 step per call (M * D = 592 floats
        # for one block): 4 * 9 calls.
        qs, schedule, blocks = _thirteen_blocks()
        cfg = RecConfig(omega=3.0, epsilon=0.2, beams=4)
        _set_budget(monkeypatch, cfg.beams, schedule, qs[0].dim, per_chunk)
        codec.encode_blocks(*_stacked(qs), [schedule] * 13, cfg, 21, blocks)
        assert len(raw_words_calls) == calls

    def test_rejects_mismatched_inputs(self):
        schedule = build_schedule(5.0, 3.0, 0.2)
        two = np.zeros((2, 2))
        with pytest.raises(UsageError):
            codec.encode_blocks(two, np.ones(3), [schedule] * 2, CFG, 0, [0, 1])
        with pytest.raises(UsageError):
            codec.encode_blocks(two[:1], np.ones(2), [schedule] * 2, CFG, 0, [0, 1])
        with pytest.raises(UsageError):
            codec.encode_blocks(two[:0], np.ones(2), [schedule], CFG, 0, [])

    @pytest.mark.parametrize(
        "field,value",
        [("mean", np.nan), ("mean", np.inf), ("mean", -np.inf),
         ("std", 0.0), ("std", -1.0), ("std", np.inf)],
    )
    def test_targets_follow_the_diag_gaussian_rule(self, field, value):
        # Each row, shared std or one per row, is taken as encode takes
        # DiagGaussian(mean, std) alone: refused alike, or coded alike.
        q = synthetic_target(4, 8.0, np.random.default_rng(4))
        schedule = build_schedule(8.0, 3.0, 0.2)
        target = {"mean": q.mean.copy(), "std": q.std.copy()}
        target[field][0] = value
        batches = [
            (target["mean"][None], target["std"]),
            (np.stack([q.mean, target["mean"]]), np.stack([q.std, target["std"]])),
        ]
        try:
            alone = encode(DiagGaussian(**target), schedule, CFG, seed=5, block=2)
        except Exception as exc:
            for mean, std in batches:
                with pytest.raises(type(exc)):
                    codec.encode_blocks(mean, std, [schedule] * len(mean), CFG, 5, [2] * len(mean))
            return
        good = encode(q, schedule, CFG, seed=5, block=2)
        for mean, std in batches:
            coded = codec.encode_blocks(mean, std, [schedule] * len(mean), CFG, 5, [2] * len(mean))
            for row, expect in zip(zip(*coded), [good, alone][-len(mean) :]):
                assert row[0] == expect[0]
                assert row[1].tobytes() == expect[1].tobytes()
                assert row[2].tobytes() == np.float64(expect[2]).tobytes()

    def test_rejects_targets_that_diag_gaussian_refuses(self):
        schedule = build_schedule(5.0, 3.0, 0.2)
        for mean, std in [
            (np.zeros((2, 2)), np.ones((2, 1))),
            (np.zeros((2, 2)), np.ones(3)),
            (np.zeros((2, 2)), np.ones((1, 2))),
            (np.float64(0.0), np.float64(1.0)),
        ]:
            with pytest.raises(UsageError):
                codec.encode_blocks(mean, std, [schedule] * 2, CFG, 0, [0, 1])
        # A (D,) mean is one target, not D blocks.
        with pytest.raises(UsageError):
            codec.encode_blocks(np.zeros(2), np.ones(2), [schedule] * 2, CFG, 0, [0, 1])

    @pytest.mark.parametrize("seeds", [[0], [0, 1, 2], [[0, 1]], [0, -1], [0.0, 1.0]])
    def test_rejects_seeds_not_one_u64_per_block(self, seeds):
        schedule = build_schedule(5.0, 3.0, 0.2)
        with pytest.raises(UsageError, match="seed"):
            codec.encode_blocks(np.zeros((2, 2)), np.ones(2), [schedule] * 2, CFG, seeds, [0, 1])

    def test_seed_list_spanning_2_63(self):
        # The codec checks seeds with the stream's one rule: NumPy infers
        # float64 for these Python ints, yet they are u64 seeds.
        targets = np.array([[0.5, -1.0], [2.0, 0.0]]), np.full(2, 0.3)
        schedules = [build_schedule(5.0, 3.0, 0.2)] * 2
        listed = codec.encode_blocks(*targets, schedules, CFG, [2**63 - 1, 2**63], [0, 1])
        arrayed = codec.encode_blocks(
            *targets, schedules, CFG, np.array([2**63 - 1, 2**63], dtype=np.uint64), [0, 1]
        )
        assert listed[0] == arrayed[0]
        assert listed[1].tobytes() == arrayed[1].tobytes()
        for bad in ([-1, 2**63], [2**63, 2**64], [2**64], [1.0, 2**63], (0, 1.5)):
            with pytest.raises(UsageError, match="seed") as from_codec:
                codec.encode_blocks(*targets, schedules, CFG, bad, [0, 1])
            with pytest.raises(UsageError) as from_stream:
                stream.draw_uniforms(bad, 0, 0, 0)
            assert str(from_codec.value) == str(from_stream.value)

    @pytest.mark.parametrize(
        "omega,epsilon,m", [(3.0, 0.0, 21), (3.0001, 0.2, 37), (3.0, 0.2000001, 37)]
    )
    def test_rejects_schedules_that_disagree(self, omega, epsilon, m):
        # On M, or on omega or epsilon alone.
        schedule = schedule_from_steps(2, 3.0, 0.2)
        other = schedule_from_steps(2, omega, epsilon)
        assert (schedule.M, other.M) == (37, m)
        two = np.zeros((2, 2))
        for pair in ([schedule, other], [other, schedule]):
            with pytest.raises(UsageError):
                codec.encode_blocks(two, np.ones(2), pair, CFG, 0, [0, 1])


class TestStepTables:
    """The step values free of draws and beams: cached per (schedule, std row) when the
    blocks share one std row, else walked once per call."""

    def _encode(self, mean, std, schedules, blocks, beams=4):
        cfg = RecConfig(omega=3.0, epsilon=0.2, beams=beams)
        return codec.encode_blocks(mean, std, schedules, cfg, 21, blocks)

    def _shared(self):
        # 13 blocks of one std row, as an image's blocks are, with K = 1..9.
        qs, _, blocks = _mixed_blocks()
        std = qs[0].std
        steps = [*range(9, 0, -1), 2, 5, 7, 9]
        schedules = [schedule_from_steps(k, 3.0, 0.2, std * std) for k in steps]
        return _stacked(qs)[0], std, schedules, blocks

    def _assert_same(self, a, b):
        assert a[0] == b[0]
        assert a[1].tobytes() == b[1].tobytes()
        assert np.asarray(a[2]).tobytes() == np.asarray(b[2]).tobytes()

    def test_cold_and_warm_cache_give_the_same_output(self):
        mean, std, schedules, blocks = self._shared()
        codec._step_table.cache_clear()
        cold = self._encode(mean, std, schedules, blocks)
        built = codec._step_table.cache_info().misses
        assert built == 9  # one table per distinct K
        warm = self._encode(mean, std, schedules, blocks)
        assert codec._step_table.cache_info().misses == built
        self._assert_same(cold, warm)

    def test_cached_tables_match_the_walk_of_repeated_std_rows(self):
        # The (G, D) form of the same std row takes the uncached walk.
        mean, std, schedules, blocks = self._shared()
        codec._step_table.cache_clear()
        walked = self._encode(mean, np.tile(std, (len(mean), 1)), schedules, blocks)
        assert codec._step_table.cache_info().currsize == 0
        self._assert_same(walked, self._encode(mean, std, schedules, blocks))

    def test_blocks_of_one_schedule_and_their_own_std_rows(self):
        qs, schedule, blocks = _thirteen_blocks()
        assert len({q.std.tobytes() for q in qs}) == len(qs)
        indices, zs, ratios = self._encode(*_stacked(qs), [schedule] * len(qs), blocks)
        for q, block, idx, z, ratio in zip(qs, blocks, indices, zs, ratios):
            alone = encode(q, schedule, RecConfig(omega=3.0, epsilon=0.2, beams=4), 21, block)
            self._assert_same((idx, z, ratio), alone)

    def test_own_std_rows_leave_the_cache_alone(self):
        # A study encodes thousands of targets, each with its own std row.
        rng = np.random.default_rng(12)
        qs = [synthetic_target(2, 4.0, rng) for _ in range(400)]
        schedule = build_schedule(4.0, 3.0, 0.2)
        codec._step_table.cache_clear()
        self._encode(*_stacked(qs), [schedule] * len(qs), list(range(len(qs))), beams=1)
        assert codec._step_table.cache_info().currsize == 0

    def test_cache_is_bounded(self):
        bound = codec._step_table.cache_info().maxsize
        rng = np.random.default_rng(12)
        schedule = build_schedule(4.0, 3.0, 0.2)
        for _ in range(bound + 40):
            q = synthetic_target(2, 4.0, rng)
            self._encode(q.mean[None], q.std, [schedule], [0], beams=1)
        assert codec._step_table.cache_info().currsize == bound

    def test_long_tables_are_built_but_not_cached(self, monkeypatch):
        qs, _, _ = _thirteen_blocks()
        schedule = schedule_from_steps(130, 3.0, 0.2)
        assert (4 * qs[0].dim + 2) * schedule.K > codec.MAX_TABLE_FLOATS
        codec._step_table.cache_clear()
        long = self._encode(qs[0].mean[None], qs[0].std, [schedule], [3], beams=1)
        assert codec._step_table.cache_info().currsize == 0
        monkeypatch.setattr(codec, "MAX_TABLE_FLOATS", 1 << 20)
        self._assert_same(long, self._encode(qs[0].mean[None], qs[0].std, [schedule], [3], beams=1))
        assert codec._step_table.cache_info().currsize == 1

    def test_tables_are_read_only(self):
        qs, schedule, _ = _thirteen_blocks()
        table, scalars = codec._step_table(schedule.steps.tobytes(), qs[0].std.tobytes())
        assert table.shape == (4, schedule.K, qs[0].dim) and scalars.shape == (2, schedule.K)
        with pytest.raises(ValueError):
            table[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            scalars[0, 0] = 1.0


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

    @pytest.mark.parametrize("bad", ["1", 1.0, np.float64(1.0), None])
    def test_refuses_non_integer_indices_before_drawing(self, bad, raw_words_calls):
        # The index rule of pack: a non-integer is a usage error, not a corrupt file.
        schedule = schedule_from_steps(2, 3.0, 0.2)
        with pytest.raises(UsageError, match="integer"):
            decode((bad, 0), schedule, 0, 0, 2)
        with pytest.raises(UsageError, match="integer"):
            codec.decode_blocks([(0, 0), (bad, 0)], [schedule] * 2, 0, [0, 1], 2)
        assert raw_words_calls == []

    def test_numpy_integer_indices_act_as_plain_ints(self):
        schedule = schedule_from_steps(2, 3.0, 0.2)
        expected = decode((5, 0), schedule, 3, 1, 4)
        for code in [(np.int64(5), np.uint16(0)), np.array([5, 0]), [5, 0]]:
            assert decode(code, schedule, 3, 1, 4).tobytes() == expected.tobytes()


def _decoder_case(dims, power_law):
    # 8 blocks of K = 1..6 and two repeats in shuffled order, encoded in one
    # call; version-1 files use the power-law schedule, later ones equal KL.
    rng = np.random.default_rng(dims)
    steps = rng.permutation([*range(1, 7), 2, 5]).tolist()
    qs = [synthetic_target(dims, dims + 3.0 * k, rng) for k in steps]
    variances = None if power_law else np.exp(rng.uniform(-3.0, 0.0, dims))
    schedules = [schedule_from_steps(k, 3.0, 0.2, variances) for k in steps]
    blocks = [int(b) for b in rng.choice(5000, size=len(qs), replace=False)]
    indices, zs, _ = codec.encode_blocks(*_stacked(qs), schedules, CFG, 21, blocks)
    return indices, schedules, blocks, zs


def _stepwise_decode(indices, schedule, seed, block, dims):
    # The reference: one draw per step, z = z + sqrt(sigma_sq[k]) * u_k.
    z = np.zeros(dims)
    for k, idx in enumerate(indices):
        z = z + np.sqrt(float(schedule.sigma_sq[k])) * stream.draw_normals(
            seed, block, k, idx, dims
        )
    return z


class TestDecodeBlocks:
    @pytest.mark.parametrize("power_law", [False, True], ids=["equal-kl", "power-law"])
    @pytest.mark.parametrize("dims", [1, 3, 8, 16])
    def test_matches_encoder_and_lone_decodes(self, dims, power_law):
        indices, schedules, blocks, zs = _decoder_case(dims, power_law)
        assert len({len(code) for code in indices}) == 6
        decoded = codec.decode_blocks(indices, schedules, 21, blocks, dims)
        assert decoded.shape == (8, dims)
        assert decoded.tobytes() == zs.tobytes()
        for code, schedule, block, z in zip(indices, schedules, blocks, decoded):
            assert z.tobytes() == decode(code, schedule, 21, block, dims).tobytes()
            assert z.tobytes() == _stepwise_decode(code, schedule, 21, block, dims).tobytes()

    @pytest.mark.parametrize("rows", [0, 5, 13, 1 << 10])
    def test_slabs_of_whole_blocks(self, rows, monkeypatch):
        # The chosen draws are mapped and added in slabs of whole blocks of at
        # most MAX_CHUNK_FLOATS floats, or one block if it is longer; z does
        # not depend on where the slabs end.
        dims = 3
        indices, schedules, blocks, zs = _decoder_case(dims, False)
        monkeypatch.setattr(codec, "MAX_CHUNK_FLOATS", rows * dims)
        normals_from_words, seen = stream.normals_from_words, []

        def recording(w_lo, w_hi, d):
            seen.append(len(w_lo))
            return normals_from_words(w_lo, w_hi, d)

        monkeypatch.setattr(stream, "normals_from_words", recording)
        decoded = codec.decode_blocks(indices, schedules, 21, blocks, dims)
        assert decoded.tobytes() == zs.tobytes()
        ends = np.cumsum([len(code) for code in indices]).tolist()
        cuts = [0] + [ends.index(end) + 1 for end in np.cumsum(seen).tolist()]
        assert cuts[-1] == len(indices)
        for lo, hi, n in zip(cuts, cuts[1:], seen):
            assert hi - lo == 1 or n <= rows

    def test_no_blocks(self):
        assert codec.decode_blocks([], [], 0, [], 3).shape == (0, 3)

    @pytest.mark.parametrize("bad_block", [0, 4, 7])
    @pytest.mark.parametrize("fault", ["index", "length"])
    def test_rejects_any_corrupt_block_before_drawing(self, bad_block, fault, raw_words_calls):
        indices, schedules, blocks, _ = _decoder_case(3, False)
        code = indices[bad_block]
        m = schedules[bad_block].M
        indices[bad_block] = (*code[:-1], m) if fault == "index" else (*code, 0)
        raw_words_calls.clear()  # the encode's
        with pytest.raises(CorruptStreamError):
            codec.decode_blocks(indices, schedules, 21, blocks, 3)
        assert raw_words_calls == []

    def test_rejects_mismatched_inputs(self):
        schedule = schedule_from_steps(1, 3.0, 0.2)
        with pytest.raises(UsageError):
            codec.decode_blocks([(0,), (1,)], [schedule], 0, [0, 1], 2)


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
