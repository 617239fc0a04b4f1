import hashlib
import math
from collections import Counter
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    GOLDEN_MODEL_PATHS,
    make_training_patches,
    pack_v2,
    raw_v3,
    raw_v5,
    replay_problems,
    reseal,
    sample_image,
)
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
    load_model,
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

# Version-3 containers of the same image, model, config and seed, lossless
# (158 bytes) and lossy (60 bytes), written by the last encoder of version 3.
# They hold the version-2 codes, so they decode to the pixels of
# V3_LOSSLESS_B4_PIXELS_SHA256 (the image itself) and V2_LOSSY_B4_PIXELS_SHA256.
V3_LOSSLESS_B4_HEX = (
    "4952454383010000000000000008409a9999999999c93fc449e97bd5fc479d1010070179"
    "96b856f906a5391f49a665a285b65dd47a16b024266c7d75ab1c410b55c2fe1cab8b5356"
    "3bd6c050cc557dd55f98669abdd7f5c44d961c132f3352cc694024dd06dd801c8b09706d"
    "5cab2e8ab01476f4b7a0c0d24ae7215096f79a3280eded6613e3a106ada67c694f59b697"
    "022d790d3dbc33ddbc215ecdacf4"
)
V3_LOSSY_B4_HEX = (
    "4952454383000000000000000008409a9999999999c93fc449e97bd5fc479d1010070179"
    "96b856f906a5391f49a665a285b65dd47a16b024e172a078"
)
V3_LOSSLESS_B4_PIXELS_SHA256 = (
    "c7bc7a40129c42395e51a7f036718bfab5e777b41f6c67cd6bc31b26ab9e17eb"
)

# Version-4 containers of the same image, model, config and seed, lossless
# (145 bytes) and lossy (47 bytes), written by the last encoder of version 4.
# They hold the version-3 codes.
V4_LOSSLESS_B4_HEX = (
    "49524543840300b817c801c449e97bd5fc479d10100884cb5c2b7c83529c8fa4d332d142"
    "db2eea3d0b5812266c7d75ab1c410b55c2fe1cab8b53563bd6c050cc557dd55f98669abd"
    "d7f5c44d961c132f3352cc694024dd06dd801c8b09706d5cab2e8ab01476f4b7a0c0d24a"
    "e7215096f79a3280eded6613e3a106ada67c694f59b697022d790d3dbc33ddbc21ebb64f"
    "0f"
)
V4_LOSSY_B4_HEX = (
    "49524543840200b817c801c449e97bd5fc479d10100884cb5c2b7c83529c8fa4d332d142"
    "db2eea3d0b581257389a5e"
)
# Version-4 containers of the 16x16 image of default_rng(11), same model and
# config, seed 3: lossless (144 bytes) and lossy (49 bytes), written by the
# last encoder of version 4. Neither decodes when cut at any byte and
# resealed, which does not hold for every version-4 file (FORMAT.md §6).
V4_LOSSLESS_IMG11_HEX = (
    "49524543840303b817c801c449e97bd5fc479d1010081a593e70282d149dbf34ac03a211"
    "693ee361662b0d7ec0c6bc0dc0793ea963b91b90431c71c86c43ed08b2e07d3e2594d0d3"
    "fee7ee6a1f8ac50e3e0ad1a54e0b713835ea2f27216e66e4854ee3fbf9e65a74993a7450"
    "b79342b15f430dfb197a5b6e81ac37063a065e5b9fbbc3fd01db1b725cec644b7aee3b2d"
)
V4_LOSSY_IMG11_HEX = (
    "49524543840203b817c801c449e97bd5fc479d1010081a593e70282d149dbf34ac03a211"
    "693ee361662b0d7ec03f7a06d6"
)

# The first version-5 containers of the same image, model, config and seed
# as V4_*_B4_HEX: lossless (141 bytes) and lossy (43 bytes). Every block
# draws at block address 0, so the codes differ from version 4's.
V5_LOSSLESS_B4_HEX = (
    "49524543850300b817c801c449e97b10100884cb5c2b7cac5940d9359a5ad9812adcdbfe"
    "7a06e361266c7d7475c2514ea8f73d721d22e95c0d72c9ce7c735101de06bb279846530e"
    "91527cf3c9331f94e269cf493bd03fbf54366391f94d83ef21a90144d4e1aecd77b4cffc"
    "53202c8023eed8d983ca3e77a72dba3fd1baf8fe4228a4d95b7cefc5c7451c8065"
)
V5_LOSSY_B4_HEX = (
    "49524543850200b817c801c449e97b10100884cb5c2b7cac5940d9359a5ad9812adcdbfe"
    "7a06e34ed41d64"
)
V5_LOSSY_B4_PIXELS_SHA256 = (
    "845657a64c6d9d25e80e7f5e9336afac8b63de385490494efe435b003fa20506"
)
# (hex, decoder, id) of every committed file, for the tests that run on each.
COMMITTED_FILES = [
    (V1_LOSSLESS_B4_HEX, decompress_lossless, "v1-lossless"),
    (V2_LOSSLESS_B4_HEX, decompress_lossless, "v2-lossless"),
    (V2_LOSSY_B4_HEX, decompress_lossy, "v2-lossy"),
    (V3_LOSSLESS_B4_HEX, decompress_lossless, "v3-lossless"),
    (V3_LOSSY_B4_HEX, decompress_lossy, "v3-lossy"),
    (V4_LOSSLESS_B4_HEX, decompress_lossless, "v4-lossless"),
    (V4_LOSSY_B4_HEX, decompress_lossy, "v4-lossy"),
    (V5_LOSSLESS_B4_HEX, decompress_lossless, "v5-lossless"),
    (V5_LOSSY_B4_HEX, decompress_lossy, "v5-lossy"),
]
COMMITTED = pytest.mark.parametrize(
    "hex_data, decompress", [f[:2] for f in COMMITTED_FILES], ids=[f[2] for f in COMMITTED_FILES]
)


@pytest.fixture(scope="module")
def fresh_files(fitted_model):
    """{lossless: files}: version-5 files of six seeded 16x16 images, one seed each."""
    rng = np.random.default_rng(40)
    images = [sample_image(fitted_model, rng, 16, 16) for _ in range(6)]
    return {
        lossless: [compress(img, fitted_model, CFG, seed=n).data for n, img in enumerate(images)]
        for lossless, compress in ((True, compress_lossless), (False, compress_lossy))
    }


def pruned_model(noise_var=4.0):
    return LinearGaussianModel(
        W=np.zeros((64, 4)), mu=np.full(64, 128.0), noise_var=noise_var
    )


def replayed_blocks(decompress, data, model, calls):
    # Decoding keeps the draw-replay contract (conftest.replay_problems), and
    # today's decoder makes one stream.raw_words call per chosen draw, which a
    # decoder that draws a slab per call (ROADMAP item 3) will not.
    calls.clear()
    decompress(data, model)
    assert replay_problems(data, model.latent_dim, calls) == []
    blocks = container.unpack(data)[1]
    assert len(calls) == sum(map(len, blocks))
    return blocks


class TestReplayProblems:
    """replay_problems passes a recorded decode and names each break of it."""

    @pytest.fixture()
    def recorded(self, fitted_model, small_image, raw_words_calls):
        data = compress_lossy(small_image, fitted_model, CFG, seed=5).data
        raw_words_calls.clear()
        decompress_lossy(data, fitted_model)
        return data, list(raw_words_calls)

    def test_an_unedited_decode_keeps_the_contract(self, fitted_model, recorded):
        data, calls = recorded
        assert replay_problems(data, fitted_model.latent_dim, calls) == []

    @pytest.mark.parametrize("edit, expected", [
        ("dropped", "not drawn"),
        ("duplicated", "drawn but not chosen"),
        ("seed", "seed"),
        ("lanes", "lanes"),
    ])
    def test_names_each_edit_of_the_calls(self, fitted_model, recorded, edit, expected):
        # Each edit is to one address inside the last recorded call, however
        # many that call draws: it is dropped or drawn twice, or its seed or
        # its call's lane count is changed.
        data, calls = recorded
        (seed, *address, lanes), words = calls[-1]
        flat = [np.ravel(x) for x in np.broadcast_arrays(seed, *address)]
        per_address = words // flat[0].size
        if edit == "dropped":
            flat = [x[:-1] for x in flat]
        elif edit == "duplicated":
            flat = [np.append(x, x[-1]) for x in flat]
        elif edit == "seed":
            flat[0] = np.append(flat[0][:-1], flat[0][-1] + 1)
        else:
            lanes += 1
        edited = calls[:-1] + [((*flat, lanes), per_address * flat[0].size)]
        problems = replay_problems(data, fitted_model.latent_dim, edited)
        assert any(expected in problem for problem in problems), problems


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

    def test_version_2_latent_dim_must_match_the_model(self, fitted_model):
        # Same model_id, but the version-2 header names 4 latents for an 8-latent model.
        header = container.ContainerHeader(
            seed=0, omega=3.0, epsilon=0.2, model_id=fitted_model.model_id,
            image_width=8, image_height=8, latent_dim=4, version=2,
        )
        data = pack_v2(header, [(0,)], latent=4)
        assert fitted_model.latent_dim == 8
        with pytest.raises(ModelMismatchError, match="latent dimension"):
            decompress_lossy(data, fitted_model)

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
    def test_edited_residual_section_is_corrupt(self, fitted_model, fresh_files, at, extra):
        # Bytes inserted into the residual section and resealed with a fresh
        # CRC32. In the committed version-4 file only the encoder's canonical
        # section decodes (FORMAT.md §6); in version-5 files the section's
        # length refuses any insertion.
        for data in [bytes.fromhex(V4_LOSSLESS_B4_HEX)] + fresh_files[True]:
            section = container.unpack(data)[2]
            start = len(data) - 4 - len(section)
            cut = start + {"end": len(section), "start": 0, "middle": len(section) // 2}[at]
            with pytest.raises(CorruptStreamError):
                decompress_lossless(reseal(data[:cut] + extra + data[cut:]), fitted_model)

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
    def test_decoder_draws_only_the_chosen_samples(self, fitted_model, lossless, raw_words_calls):
        img = sample_image(fitted_model, np.random.default_rng(23), 32, 32)
        compress, decompress = (
            (compress_lossless, decompress_lossless) if lossless
            else (compress_lossy, decompress_lossy)
        )
        data = compress(img, fitted_model, CFG, seed=5).data
        blocks = replayed_blocks(decompress, data, fitted_model, raw_words_calls)
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
            # Version 5: every block is coded at block address 0.
            alone = codec.encode(DiagGaussian(q.mean[i], q.std), schedule, CFG, 0, 0)
            assert log_w == alone[2]

    def test_encoder_draws_each_address_once(self, fitted_model, raw_words_calls):
        # Version 5 draws every block at block address 0, so the encoder
        # draws each (step, sample) once for all blocks of a chunk (at 4
        # beams, one chunk holds the 16 blocks): K_max * M addresses, where
        # one address per block would take sum(K) * M.
        img = sample_image(fitted_model, np.random.default_rng(23), 32, 32)
        data = compress_lossless(img, fitted_model, CFG, seed=0).data
        ks = [len(code) for code in container.unpack(data)[1]]
        drawn = Counter()
        for (seed, *address, _), _ in raw_words_calls:
            block, step, sample = (np.ravel(x).tolist() for x in np.broadcast_arrays(*address))
            assert seed == 0 and set(block) == {0}
            drawn.update(zip(block, step, sample))
        assert max(drawn.values()) == 1
        assert len(drawn) == max(ks) * 37 < sum(ks) * 37
        assert set(drawn) == {(0, k, i) for k in range(max(ks)) for i in range(37)}

    def test_encoder_draws_each_address_once_across_chunks(self, fitted_model, raw_words_calls):
        # At the default 20 beams a chunk holds MAX_CHUNK_FLOATS // (20 * 37)
        # = 22 blocks, so the 64 blocks of a 64x64 image take three chunks.
        # They share one call's draws: each (0, k, i), k < K_max, i < M, is
        # drawn exactly once per compress, in one normal-draw stream call.
        cfg = RecConfig(omega=3.0, epsilon=0.2)
        assert cfg.beams == 20 and codec.MAX_CHUNK_FLOATS // (20 * 37) < 64
        img = sample_image(fitted_model, np.random.default_rng(23), 64, 64)
        data = compress_lossless(img, fitted_model, cfg, seed=0).data
        k_max = max(len(code) for code in container.unpack(data)[1])
        assert len(raw_words_calls) == 1
        (seed, *address, lanes), words = raw_words_calls[0]
        drawn = list(zip(*(np.ravel(x).tolist() for x in np.broadcast_arrays(*address))))
        assert seed == 0 and words == len(drawn) * lanes
        assert sorted(drawn) == [(0, k, i) for k in range(k_max) for i in range(37)]

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


def cut_and_resealed(data):
    """The file cut at every byte before its CRC32, each cut resealed with a new CRC32."""
    body = data[:-4]
    return [body[:cut] + zlib.crc32(body[:cut]).to_bytes(4, "little") for cut in range(len(body))]


class TestCutFiles:
    """Files cut short at every byte are rejected, never decoded to an image:
    version-5 files and two committed version-4 files even when the cut is
    resealed with a new CRC32, and the committed files as cut. A version-5
    residual section has a length; a version-3 or version-4 one has none, so a
    resealed cut is not rejected in every such file (FORMAT.md section 6)."""

    @pytest.mark.parametrize("lossless", [True, False], ids=["lossless", "lossy"])
    def test_version_4_cut_at_every_byte_with_resealed_crc(self, fitted_model, lossless):
        data = bytes.fromhex(V4_LOSSLESS_IMG11_HEX if lossless else V4_LOSSY_IMG11_HEX)
        decompress = decompress_lossless if lossless else decompress_lossy
        for cut in cut_and_resealed(data):
            with pytest.raises((CorruptStreamError, FormatError)):
                decompress(cut, fitted_model)

    @pytest.mark.parametrize("lossless", [True, False], ids=["lossless", "lossy"])
    def test_version_5_cut_at_every_byte_with_resealed_crc(self, fitted_model, fresh_files,
                                                           lossless):
        decompress = decompress_lossless if lossless else decompress_lossy
        for data in fresh_files[lossless]:
            for cut in cut_and_resealed(data):
                with pytest.raises((CorruptStreamError, FormatError)):
                    decompress(cut, fitted_model)

    @COMMITTED
    def test_committed_files_cut_at_every_byte(self, fitted_model, hex_data, decompress):
        data = bytes.fromhex(hex_data)
        for cut in range(len(data)):
            with pytest.raises((CorruptStreamError, FormatError)):
                decompress(data[:cut], fitted_model)


@pytest.fixture(scope="module")
def edit_targets(fitted_model):
    """(file, decoder) for the committed v1-v4 files and fresh 16x16 v5 files."""
    img = sample_image(fitted_model, np.random.default_rng(11), 16, 16)
    return [
        *[(bytes.fromhex(h), d) for h, d, name in COMMITTED_FILES if not name.startswith("v5")],
        (compress_lossless(img, fitted_model, CFG, seed=3).data, decompress_lossless),
        (compress_lossy(img, fitted_model, CFG, seed=3).data, decompress_lossy),
    ]


class TestEditedFiles:
    """Multi-byte edits under a valid CRC32 reach every parser path."""

    @settings(max_examples=500, derandomize=True, deadline=None, database=None)
    @given(
        target=st.integers(0, 8),
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
        # fails the test. Version-3 to -5 files are resealed after the edits.
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
        if data[4] & 0x80:
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

    def test_decoder_memory_does_not_grow_with_total_k(self, fitted_model, monkeypatch):
        # Four blocks of K_MAX steps (M = 2 at omega 0.5, epsilon 0.2): the
        # decoder maps at most MAX_CHUNK_FLOATS // D draws at a time, or one
        # whole block if it is longer, never the whole file's.
        rng = np.random.default_rng(16)
        blocks = [tuple(rng.integers(0, 2, K_MAX).tolist()) for _ in range(4)]
        data = raw_v3(blocks, 2, omega=0.5, epsilon=0.2, model_id=fitted_model.model_id,
                      width=16, height=16)
        normals_from_words, rows = stream.normals_from_words, []

        def recording(w_lo, w_hi, dims):
            rows.append(len(w_lo))
            return normals_from_words(w_lo, w_hi, dims)

        monkeypatch.setattr(stream, "normals_from_words", recording)
        decompress_lossy(data, fitted_model)
        assert sum(rows) == 4 * K_MAX
        assert max(rows) <= max(codec.MAX_CHUNK_FLOATS // fitted_model.latent_dim, K_MAX)


class TestDecodeMemory:
    """A decode holds memory in proportion to its output image, which is one
    byte per pixel: the traced peak, NumPy's buffers included, of decoding a
    256x256 file stays within DECODE_BYTES_PER_PIXEL per output pixel."""

    DECODE_BYTES_PER_PIXEL = 25

    @pytest.mark.parametrize("latent, lossless", [(8, True), (16, False)])
    def test_peak_per_output_pixel(self, latent, lossless):
        model = load_model(GOLDEN_MODEL_PATHS[latent])
        img = sample_image(model, np.random.default_rng(latent), 256, 256)
        compress = compress_lossless if lossless else compress_lossy
        decompress = decompress_lossless if lossless else decompress_lossy
        data = compress(img, model, CFG, seed=1).data
        decompress(data, model)  # fills the per-model caches: schedules, residual table
        tracemalloc.start()
        try:
            decompress(data, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (256 * 256) <= self.DECODE_BYTES_PER_PIXEL


class TestCompressMemory:
    """A compress holds memory in proportion to its image and the latent count
    L: the traced peak, NumPy's buffers included, of compressing a 256x256
    image stays within COMPRESS_BYTES_PER_PIXEL_PER_LATENT per pixel per
    latent. model.posterior sums in slabs, not over one (N, 64, L) product,
    which alone would hold 8 bytes per pixel per latent."""

    COMPRESS_BYTES_PER_PIXEL_PER_LATENT = 7

    @pytest.mark.parametrize("latent, lossless", [(8, True), (16, False)])
    def test_peak_per_pixel_and_latent(self, latent, lossless):
        model = load_model(GOLDEN_MODEL_PATHS[latent])
        img = sample_image(model, np.random.default_rng(latent), 256, 256)
        compress = compress_lossless if lossless else compress_lossy
        tracemalloc.start()
        try:
            compress(img, model, CFG, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (256 * 256) <= self.COMPRESS_BYTES_PER_PIXEL_PER_LATENT * latent


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

    def test_version_3_decodes_bit_exactly(self, fitted_model, small_image):
        lossless = bytes.fromhex(V3_LOSSLESS_B4_HEX)
        lossy = bytes.fromhex(V3_LOSSY_B4_HEX)
        assert (len(lossless), len(lossy)) == (158, 60)
        assert lossless[4] == lossy[4] == 0x83
        out = decompress_lossless(lossless, fitted_model)
        assert hashlib.sha256(out.pixels.tobytes()).hexdigest() == V3_LOSSLESS_B4_PIXELS_SHA256
        assert np.array_equal(out.pixels, small_image.pixels)
        out = decompress_lossy(lossy, fitted_model)
        assert hashlib.sha256(out.pixels.tobytes()).hexdigest() == V2_LOSSY_B4_PIXELS_SHA256

    @COMMITTED
    def test_committed_files_draw_only_the_chosen_samples(
        self, fitted_model, hex_data, decompress, raw_words_calls
    ):
        data = bytes.fromhex(hex_data)
        blocks = replayed_blocks(decompress, data, fitted_model, raw_words_calls)
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

    def test_version_5_decodes_bit_exactly(self, fitted_model, small_image):
        lossless = bytes.fromhex(V5_LOSSLESS_B4_HEX)
        lossy = bytes.fromhex(V5_LOSSY_B4_HEX)
        assert (len(lossless), len(lossy)) == (141, 43)
        assert lossless[4] == lossy[4] == 0x85
        out = decompress_lossless(lossless, fitted_model)
        assert np.array_equal(out.pixels, small_image.pixels)
        out = decompress_lossy(lossy, fitted_model)
        assert hashlib.sha256(out.pixels.tobytes()).hexdigest() == V5_LOSSY_B4_PIXELS_SHA256

    def test_version_5_checks_the_low_32_bits_of_model_id(self, fitted_model):
        # A model whose id differs above bit 31 passes the check; a 2^-32 chance.
        for flip, ok in ((1 << 40, True), (1 << 31, False), (1, False)):
            data = raw_v5([(0,)], 37, seed=0, model_id=fitted_model.model_id ^ flip)
            if ok:
                decompress_lossy(data, fitted_model)
            else:
                with pytest.raises(ModelMismatchError):
                    decompress_lossy(data, fitted_model)

    def test_new_files_are_version_5(self, fitted_model, small_image):
        for compress, decompress, pinned in (
            (compress_lossless, decompress_lossless, V5_LOSSLESS_B4_HEX),
            (compress_lossy, decompress_lossy, V5_LOSSY_B4_HEX),
        ):
            result = compress(small_image, fitted_model, CFG, seed=0)
            header, _, _ = container.unpack(result.data)
            assert header.version == 5 and result.data[4] == container.VERSION_BYTE
            assert result.data == bytes.fromhex(pinned)
            again = compress(small_image, fitted_model, CFG, seed=0)
            assert again.data == result.data
            out = decompress(result.data, fitted_model)
            if compress is compress_lossless:
                assert np.array_equal(out.pixels, small_image.pixels)
            else:
                assert psnr(small_image, out) == result.psnr

    def test_version_3_holds_the_version_2_codes(self, fitted_model):
        # Same blocks and same pixels, in fewer bytes.
        for old_hex, new_hex, decompress in (
            (V2_LOSSLESS_B4_HEX, V3_LOSSLESS_B4_HEX, decompress_lossless),
            (V2_LOSSY_B4_HEX, V3_LOSSY_B4_HEX, decompress_lossy),
        ):
            old, new = bytes.fromhex(old_hex), bytes.fromhex(new_hex)
            assert container.unpack(new)[1] == container.unpack(old)[1]
            assert np.array_equal(
                decompress(new, fitted_model).pixels, decompress(old, fitted_model).pixels
            )
            assert len(new) < len(old)

    def test_version_4_holds_the_version_3_codes(self, fitted_model):
        # Same blocks and same pixels, in 13 fewer bytes: 12 from omega and
        # epsilon, 1 from the prefix-coded K field.
        for old_hex, new_hex, decompress in (
            (V3_LOSSLESS_B4_HEX, V4_LOSSLESS_B4_HEX, decompress_lossless),
            (V3_LOSSY_B4_HEX, V4_LOSSY_B4_HEX, decompress_lossy),
        ):
            old, new = bytes.fromhex(old_hex), bytes.fromhex(new_hex)
            assert new[4] == 0x84
            assert container.unpack(new)[1] == container.unpack(old)[1]
            assert np.array_equal(
                decompress(new, fitted_model).pixels, decompress(old, fitted_model).pixels
            )
            assert len(new) == len(old) - 13

    def test_posterior_var_matches_patch_posteriors(self, fitted_model, small_image):
        from irec.model import patchify, posterior

        s_sq = posterior_var(fitted_model)
        for patch in patchify(small_image):
            assert np.allclose(posterior(fitted_model, patch).var, s_sq, rtol=1e-12)

    def test_format_example_bytes(self):
        # The annotated version-5 example file of docs/FORMAT.md section 7.
        model, img = self.format_example()
        cfg = RecConfig(omega=3.0, epsilon=0.2, beams=20)
        data = compress_lossless(img, model, cfg, seed=1).data
        assert data == bytes.fromhex(
            "49524543"  # magic
            "85"  # version 5
            "03"  # flags: residual section present, prefix-coded K field
            "01"  # seed = 1 (varint)
            "b817"  # omega = 3000 / 1000 (varint)
            "c801"  # epsilon = 200 / 1000 (varint)
            "f108d180"  # model_id & 0xFFFFFFFF
            "08" "08"  # image_width, image_height (varints)
            "01"  # K field centre = 1 (varint)
            "00"  # block 0: unary 0 (K = 1), index 0 in 6 bits, 1 padding bit
            "0c"  # residual length = 12 (varint)
            "7ffe61db82c06001" "311427b7"  # range coder bytes
            "28443e31"  # CRC32 = 0x313e4428
        )
        assert len(data) == 36
        assert np.array_equal(decompress_lossless(data, model).pixels, img.pixels)

    def test_version_4_format_example_decodes(self):
        # The 39-byte version-4 example of docs/FORMAT.md section 7, as the
        # last encoder of version 4 wrote it.
        model, img = self.format_example()
        data = bytes.fromhex(
            "49524543"  # magic
            "84"  # version 4
            "03"  # flags: residual section present, prefix-coded K field
            "01"  # seed = 1 (varint)
            "b817"  # omega = 3000 / 1000 (varint)
            "c801"  # epsilon = 200 / 1000 (varint)
            "f108d1805f76229f"  # model_id
            "08" "08"  # image_width, image_height (varints)
            "01"  # K field centre = 1 (varint)
            "00"  # block 0: unary 0 (K = 1), index 0 in 6 bits, 1 padding bit
            "7ffe61db82c06001" "311427b7"  # range coder bytes
            "73fd6aad"  # CRC32 = 0xad6afd73
        )
        assert len(data) == 39
        header, blocks, _ = container.unpack(data)
        assert (header.version, header.model_id, blocks) == (4, model.model_id, [(0,)])
        assert np.array_equal(decompress_lossless(data, model).pixels, img.pixels)

    def test_version_3_format_example_decodes(self):
        # The 52-byte version-3 example of docs/FORMAT.md section 7, as the
        # last encoder of version 3 wrote it.
        model, img = self.format_example()
        data = bytes.fromhex(
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
        assert len(data) == 52
        header, blocks, _ = container.unpack(data)
        assert (header.version, header.omega, header.epsilon, blocks) == (3, 3.0, 0.2, [(0,)])
        assert np.array_equal(decompress_lossless(data, model).pixels, img.pixels)

    @staticmethod
    def format_example():
        """The fully pruned 2-latent model and the constant 8x8 image of FORMAT.md section 7."""
        model = LinearGaussianModel(
            W=np.zeros((64, 2)), mu=np.full(64, 128.0), noise_var=1.0
        )
        return model, ImageGray8(8, 8, np.full((8, 8), 128, dtype=np.uint8))
