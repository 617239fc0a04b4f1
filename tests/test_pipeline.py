import hashlib
import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_training_patches, raw_v3, reseal, sample_image
from irec import codec, container, pipeline, residual, stream
from irec.chain import K_MAX, build_schedule
from irec.codec import RecConfig
from irec.errors import (
    CorruptStreamError,
    FormatError,
    IrecError,
    ModelMismatchError,
)
from irec.gauss import DiagGaussian, whiten
from irec.model import (
    ImageGray8,
    LinearGaussianModel,
    fit_ppca,
    patchify,
    posterior,
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

# Version-2 (equal-KL schedule) containers of the same image, model, config
# and seed, lossless (187 bytes) and lossy (81 bytes), written by the last
# encoder of version 2. The lossy file decodes to the pixels of
# V2_LOSSY_B4_PIXELS_SHA256.
V2_LOSSLESS_B4_HEX = (
    "495245430201000000000000000000000000000008409a9999999999c93fc449e97bd5fc"
    "479d0400000008000000100000001000000007132d70adf208003529c8fa4d0800ccb450"
    "b6cb0802ea3d0b58120001000000266c7d75ab1c410b55c2fe1cab8b53563bd6c050cc55"
    "7dd55f98669abdd7f5c44d961c132f3352cc694024dd06dd801c8b09706d5cab2e8ab014"
    "76f4b7a0c0d24ae7215096f79a3280eded6613e3a106ada67c694f59b697022d790d3dbc"
    "33ddbc200545b4"
)
V2_LOSSY_B4_HEX = (
    "495245430200000000000000000000000000000008409a9999999999c93fc449e97bd5fc"
    "479d0400000008000000100000001000000007132d70adf208003529c8fa4d0800ccb450"
    "b6cb0802ea3d0b5812"
)
V2_LOSSY_B4_PIXELS_SHA256 = (
    "15d7360286755616eb6508e51bcddfab89e2cdd4d8a8b78ceb53d914d0d0fc0d"
)


def pruned_model(noise_var=4.0):
    return LinearGaussianModel(
        W=np.zeros((64, 4)), mu=np.full(64, 128.0), noise_var=noise_var
    )


def check_decoder_draws(monkeypatch, decompress, data, model):
    # Decoding replays exactly the chosen draws: one stream.raw_words call
    # per step, and the (block, step, sample) addresses drawn are the
    # container's (i, k, i_k), each under the header's seed at lanes
    # 0..ceil(D/2)-1.
    header, blocks, _ = container.unpack(data)
    raw_words = stream.raw_words
    calls = []

    def recording(seed, block, step, samples, lanes):
        calls.append((seed, block, step, samples, lanes))
        return raw_words(seed, block, step, samples, lanes)

    with monkeypatch.context() as patch:
        patch.setattr(stream, "raw_words", recording)
        decompress(data, model)
    assert len(calls) == sum(map(len, blocks))
    addresses = []
    for seed, block, step, samples, lanes in calls:
        assert np.array_equal(seed, header.seed)
        assert np.asarray(lanes).tolist() == list(range(-(-model.latent_dim // 2)))
        grid = np.broadcast_arrays(block, step, samples)
        addresses += zip(*(np.ravel(x).tolist() for x in grid))
    chosen = [(i, k, idx) for i, code in enumerate(blocks) for k, idx in enumerate(code)]
    assert sorted(addresses) == sorted(chosen)
    return blocks


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
            image_width=8, image_height=8,
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

    @pytest.mark.parametrize("at", ["end", "start", "middle"])
    @pytest.mark.parametrize("extra", [b"\x5a\x5a", b"\x00", b"\x01", bytes(4)], ids=bytes.hex)
    def test_edited_residual_section_is_corrupt(self, fitted_model, small_image, at, extra):
        # Bytes inserted into the residual section and packed with a fresh
        # CRC32: only the encoder's canonical section decodes (FORMAT.md §6).
        data = compress_lossless(small_image, fitted_model, CFG, seed=0).data
        header, blocks, section = container.unpack(data)
        cut = {"end": len(section), "start": 0, "middle": len(section) // 2}[at]
        edited = container.pack(header, blocks, residual=section[:cut] + extra + section[cut:])
        with pytest.raises(CorruptStreamError):
            decompress_lossless(edited, fitted_model)

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

    @pytest.mark.parametrize("lossless", [True, False], ids=["lossless", "lossy"])
    def test_decoder_draws_only_the_chosen_samples(self, fitted_model, lossless, monkeypatch):
        img = sample_image(fitted_model, np.random.default_rng(23), 32, 32)
        compress, decompress = (
            (compress_lossless, decompress_lossless) if lossless
            else (compress_lossy, decompress_lossy)
        )
        data = compress(img, fitted_model, CFG, seed=5).data
        blocks = check_decoder_draws(monkeypatch, decompress, data, fitted_model)
        assert len(blocks) == 16 and len(set(map(len, blocks))) > 1

    def test_one_encode_call_per_image(self, fitted_model, monkeypatch):
        # Blocks of every K share one beam search.
        img = sample_image(fitted_model, np.random.default_rng(23), 32, 32)
        calls = []
        encode_blocks = codec.encode_blocks

        def counting(*args):
            calls.append(args)
            return encode_blocks(*args)

        monkeypatch.setattr(codec, "encode_blocks", counting)
        data = compress_lossless(img, fitted_model, CFG, seed=0).data
        step_counts = [len(b) for b in container.unpack(data)[1]]
        assert len(step_counts) == 16 and len(set(step_counts)) > 1
        assert len(calls) == 1

    def test_log_w_per_block_matches_lone_encodes(self, fitted_model):
        img = sample_image(fitted_model, np.random.default_rng(23), 32, 32)
        result = compress_lossless(img, fitted_model, CFG, seed=0)
        prior = DiagGaussian.standard(fitted_model.latent_dim)
        q = whiten(posterior(fitted_model, patchify(img)), prior)
        s_sq = posterior_var(fitted_model)
        assert len(result.log_w_per_block) == len(result.kl_per_block) == 16
        for i, (kl, log_w) in enumerate(zip(result.kl_per_block, result.log_w_per_block)):
            schedule = build_schedule(kl, CFG.omega, CFG.epsilon, s_sq)
            alone = codec.encode(DiagGaussian(q.mean[i], q.std), schedule, CFG, 0, i)
            assert log_w == alone[2]

    def test_stats_accounting(self, fitted_model, small_image):
        result = compress_lossless(small_image, fitted_model, CFG, seed=0)
        assert result.bpp == pytest.approx(8.0 * len(result.data) / 256)
        assert len(result.kl_per_block) == 4


class TestBitFlips:
    @pytest.mark.parametrize(
        "side, lossless", [(8, True), (16, True), (16, False)],
        ids=["8-lossless", "16-lossless", "16-lossy"],
    )
    def test_every_flip_is_detected(self, fitted_model, side, lossless):
        # No single-bit flip of a version-3 file decodes, and none gets as
        # far as the model checks.
        img = sample_image(fitted_model, np.random.default_rng(side), side, side)
        compress, decompress = (
            (compress_lossless, decompress_lossless) if lossless
            else (compress_lossy, decompress_lossy)
        )
        data = compress(img, fitted_model, CFG, seed=3).data
        for pos in range(8 * len(data)):
            mutated = bytearray(data)
            mutated[pos // 8] ^= 1 << (pos % 8)
            with pytest.raises((CorruptStreamError, FormatError)):
                decompress(bytes(mutated), fitted_model)


class TestCutFiles:
    """A file cut short at any byte is rejected, never decoded to an image."""

    @pytest.mark.parametrize("lossless", [True, False], ids=["lossless", "lossy"])
    def test_version_3_cut_at_every_byte_with_resealed_crc(self, fitted_model, lossless):
        img = sample_image(fitted_model, np.random.default_rng(11), 16, 16)
        compress, decompress = (
            (compress_lossless, decompress_lossless) if lossless
            else (compress_lossy, decompress_lossy)
        )
        body = compress(img, fitted_model, CFG, seed=3).data[:-4]
        for cut in range(len(body)):
            data = body[:cut] + zlib.crc32(body[:cut]).to_bytes(4, "little")
            with pytest.raises((CorruptStreamError, FormatError)):
                decompress(data, fitted_model)

    @pytest.mark.parametrize(
        "hex_data, decompress",
        [
            (V1_LOSSLESS_B4_HEX, decompress_lossless),
            (V2_LOSSLESS_B4_HEX, decompress_lossless),
            (V2_LOSSY_B4_HEX, decompress_lossy),
        ],
        ids=["v1-lossless", "v2-lossless", "v2-lossy"],
    )
    def test_committed_files_cut_at_every_byte(self, fitted_model, hex_data, decompress):
        data = bytes.fromhex(hex_data)
        for cut in range(len(data)):
            with pytest.raises((CorruptStreamError, FormatError)):
                decompress(data[:cut], fitted_model)


@pytest.fixture(scope="module")
def edit_targets(fitted_model):
    """(file, decoder) for the committed v1/v2 files and fresh 16x16 v3 files."""
    img = sample_image(fitted_model, np.random.default_rng(11), 16, 16)
    return [
        (bytes.fromhex(V1_LOSSLESS_B4_HEX), decompress_lossless),
        (bytes.fromhex(V2_LOSSLESS_B4_HEX), decompress_lossless),
        (bytes.fromhex(V2_LOSSY_B4_HEX), decompress_lossy),
        (compress_lossless(img, fitted_model, CFG, seed=3).data, decompress_lossless),
        (compress_lossy(img, fitted_model, CFG, seed=3).data, decompress_lossy),
    ]


class TestEditedFiles:
    """Multi-byte edits under a valid CRC32 reach every parser path."""

    @settings(max_examples=500, derandomize=True, deadline=None, database=None)
    @given(
        target=st.integers(0, 4),
        edits=st.lists(
            st.tuples(
                st.sampled_from(("set", "insert", "delete")),
                st.integers(0, 2**16),
                st.integers(0, 255),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_decodes_or_raises_a_format_class(self, fitted_model, edit_targets, target, edits):
        # A decoder returns an image or raises a class of FORMAT.md section 8;
        # any other exception, or a warning under filterwarnings = error,
        # fails the test. Version-3 files are resealed after the edits.
        data, decompress = edit_targets[target]
        out = bytearray(data)
        for op, at, byte in edits:
            at %= len(out) + (op == "insert")
            if op == "set":
                out[at] = byte
            elif op == "insert":
                out.insert(at, byte)
            else:
                del out[at]
        if data[4] == container.VERSION_BYTE:
            out = reseal(bytes(out))
        try:
            decompress(bytes(out), fitted_model)
        except (CorruptStreamError, FormatError, ModelMismatchError):
            pass


class TestStepCap:
    def test_decoder_refuses_a_block_over_k_max(self, fitted_model, equal_kl_calls):
        # M = ceil(exp(3.6)) = 37 at omega 3, epsilon 0.2.
        data = raw_v3([(0,) * (K_MAX + 1)], 37, seed=0, model_id=fitted_model.model_id)
        with pytest.raises(CorruptStreamError, match="K_MAX"):
            decompress_lossy(data, fitted_model)
        assert equal_kl_calls == []


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

    def test_version_2_decodes_bit_exactly(self, fitted_model, small_image):
        lossless = bytes.fromhex(V2_LOSSLESS_B4_HEX)
        lossy = bytes.fromhex(V2_LOSSY_B4_HEX)
        assert (len(lossless), len(lossy)) == (187, 81)
        assert lossless[4] == lossy[4] == 2
        out = decompress_lossless(lossless, fitted_model)
        assert np.array_equal(out.pixels, small_image.pixels)
        out = decompress_lossy(lossy, fitted_model)
        assert hashlib.sha256(out.pixels.tobytes()).hexdigest() == V2_LOSSY_B4_PIXELS_SHA256
        # Both files hold the same blocks; only the residual section differs.
        assert container.unpack(lossless)[1] == container.unpack(lossy)[1]

    @pytest.mark.parametrize(
        "hex_data, decompress",
        [
            (V1_LOSSLESS_B4_HEX, decompress_lossless),
            (V2_LOSSLESS_B4_HEX, decompress_lossless),
            (V2_LOSSY_B4_HEX, decompress_lossy),
        ],
        ids=["v1-lossless", "v2-lossless", "v2-lossy"],
    )
    def test_committed_files_draw_only_the_chosen_samples(
        self, fitted_model, hex_data, decompress, monkeypatch
    ):
        data = bytes.fromhex(hex_data)
        blocks = check_decoder_draws(monkeypatch, decompress, data, fitted_model)
        assert len(set(map(len, blocks))) > 1

    @pytest.mark.parametrize(
        "hex_data", [V1_LOSSLESS_B4_HEX, V2_LOSSLESS_B4_HEX], ids=["v1", "v2"]
    )
    def test_residual_stream_starts_with_0_and_is_read_to_its_end(self, fitted_model, hex_data):
        # The residual section runs to the end of a version-1/2 file, so bytes
        # appended to the file are appended to the coder's stream.
        data = bytes.fromhex(hex_data)
        first = len(data) - len(container.unpack(data)[2])
        assert data[first] == 0
        for tail in (b"\x00", b"\x5a\x5a", bytes(4)):
            with pytest.raises(CorruptStreamError, match="end at its flush"):
                decompress_lossless(data + tail, fitted_model)
        for byte in (1, 0x5A, 0xFF):
            mutated = bytearray(data)
            mutated[first] = byte
            with pytest.raises(CorruptStreamError, match="start with 0"):
                decompress_lossless(bytes(mutated), fitted_model)

    def test_version_byte_selects_the_schedule(self, fitted_model, small_image):
        # The same bytes read as version 2 decode other latents, so the
        # residual no longer restores the image.
        data = bytearray.fromhex(V1_LOSSLESS_B4_HEX)
        data[4] = 2
        out = decompress_lossless(bytes(data), fitted_model)
        assert not np.array_equal(out.pixels, small_image.pixels)

    def test_new_files_are_version_3(self, fitted_model, small_image):
        for compress, decompress in (
            (compress_lossless, decompress_lossless),
            (compress_lossy, decompress_lossy),
        ):
            result = compress(small_image, fitted_model, CFG, seed=0)
            header, _, _ = container.unpack(result.data)
            assert header.version == 3 and result.data[4] == container.VERSION_BYTE
            again = compress(small_image, fitted_model, CFG, seed=0)
            assert again.data == result.data
            out = decompress(result.data, fitted_model)
            if compress is compress_lossless:
                assert np.array_equal(out.pixels, small_image.pixels)
            else:
                assert psnr(small_image, out) == result.psnr

    def test_version_3_holds_the_version_2_codes(self, fitted_model, small_image):
        # Same blocks and same pixels, in fewer bytes.
        for hex_data, compress, decompress in (
            (V2_LOSSLESS_B4_HEX, compress_lossless, decompress_lossless),
            (V2_LOSSY_B4_HEX, compress_lossy, decompress_lossy),
        ):
            old = bytes.fromhex(hex_data)
            new = compress(small_image, fitted_model, CFG, seed=0).data
            assert container.unpack(new)[1] == container.unpack(old)[1]
            assert np.array_equal(
                decompress(new, fitted_model).pixels, decompress(old, fitted_model).pixels
            )
            assert len(new) < len(old)

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
            "83"  # version 3
            "01"  # flags: residual section present
            "01"  # seed = 1 (varint)
            "0000000000000840"  # omega = 3.0
            "9a9999999999c93f"  # epsilon = 0.2
            "f108d1805f76229f"  # model_id
            "08" "08"  # image_width, image_height (varints)
            "01" "00"  # K_min = 1 (varint), K field width 0
            "00"  # block 0: index 0 in 6 bits, 2 padding bits
            "7ffe61db82c06001" "311427b7"  # range coder bytes
            "4d30a66a"  # CRC32 = 0x6aa6304d
        )
        assert np.array_equal(decompress_lossless(data, model).pixels, img.pixels)
