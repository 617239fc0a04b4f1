import dataclasses
import math
import struct
import timeit

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pack_v2, raw_v3, reseal
from irec.chain import K_MAX
from irec.container import (
    HEADER_SIZE,
    VERSION_BYTE,
    ContainerHeader,
    codelength_report,
    index_bits,
    k_field,
    pack,
    read_varint,
    unpack,
    write_varint,
)
from irec.errors import ConfigError, CorruptStreamError, FormatError, UsageError

# Version-2 files of a 16x8 image (2 blocks, latent_dim 4) holding the blocks
# (3, 1, 4) and (1, 5), without and with the residual section b"\x07",
# written by the last version-2 encoder.
V2_LOSSY_HEX = (
    "495245430200393000000000000000000000000008409a9999999999c93fefbeadde0000"
    "00000200000004000000100000000800000003158c0200ba"
)
V2_LOSSLESS_HEX = (
    "495245430201393000000000000000000000000008409a9999999999c93fefbeadde0000"
    "00000200000004000000100000000800000003158c0200ba8000000007"
)
V2_BLOCKS = [(3, 1, 4), (1, 5)]


def header(omega=3.0, epsilon=0.2, blocks=1, **kw):
    # An (8 * blocks) x 8 image is tiled by exactly `blocks` patches.
    base = dict(
        seed=12345,
        omega=omega,
        epsilon=epsilon,
        model_id=0xDEADBEEF,
        image_width=8 * blocks,
        image_height=8,
    )
    base.update(kw)
    return ContainerHeader(**base)


def relabel(data, blocks, width, height):
    """Overwrite block_count, image_width and image_height of a version-2 file."""
    out = bytearray(data)
    struct.pack_into("<I", out, 38, blocks)
    struct.pack_into("<II", out, 46, width, height)
    return bytes(out)


class TestVarint:
    def test_round_trip(self):
        for n in [0, 1, 127, 128, 300, 2**20, 2**40]:
            data = write_varint(n)
            value, pos = read_varint(data, 0)
            assert (value, pos) == (n, len(data))

    def test_rejects_negative(self):
        with pytest.raises(UsageError):
            write_varint(-1)

    def test_truncated(self):
        with pytest.raises(CorruptStreamError):
            read_varint(b"\x80", 0)

    def test_overlong(self):
        with pytest.raises(CorruptStreamError):
            read_varint(b"\x80" * 10 + b"\x01", 0)


class TestIndexBits:
    def test_examples(self):
        assert index_bits(1, 21) == 5
        assert index_bits(4, 37) == 21  # ceil(4 * log2 37)

    def test_close_to_entropy_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            k = int(rng.integers(1, 30))
            m = int(rng.integers(2, 1000))
            bits = index_bits(k, m)
            assert bits >= k * math.log2(m) - 1e-9
            assert bits <= math.ceil(k * math.log2(m)) + 1

    def test_rejects_invalid(self):
        with pytest.raises(UsageError):
            index_bits(0, 21)


class TestPackUnpack:
    def test_header_size(self):
        # Versions 1 and 2: a 54-byte header, then the first block's K varint.
        data = bytes.fromhex(V2_LOSSY_HEX)
        assert HEADER_SIZE == 54 and data[HEADER_SIZE] == 3
        h, blocks, residual = unpack(data)
        assert (h.version, h.latent_dim, h.block_count) == (2, 4, 2)
        assert (blocks, residual) == (V2_BLOCKS, None)
        assert pack_v2(h, blocks) == data

    def test_header_derives_block_count(self):
        h = header(image_width=17, image_height=9)
        assert h.block_count == 6
        with pytest.raises(TypeError):
            header(block_count=6)
        with pytest.raises(dataclasses.FrozenInstanceError):
            h.seed = 0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", -1),
            ("seed", 2**64),
            ("seed", 1.0),
            ("model_id", -1),
            ("model_id", 2**64),
            ("latent_dim", -1),
            ("latent_dim", 2**32),
            ("image_width", -8),
            ("image_width", 2**32),
            ("image_height", -8),
            ("image_height", 2**32),
        ],
    )
    def test_integer_field_out_of_range(self, field, value):
        # latent_dim is a field of versions 1 and 2 only.
        version = {"version": 2, "latent_dim": 4} if field == "latent_dim" else {}
        with pytest.raises(UsageError, match=field):
            header(**{**version, field: value})
        with pytest.raises(UsageError, match=field):
            dataclasses.replace(header(**version), **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("seed", 2**64 - 1), ("model_id", 2**64 - 1), ("latent_dim", 2**32 - 1)],
    )
    def test_integer_field_extremes_round_trip(self, field, value):
        if field == "latent_dim":
            h = header(version=2, latent_dim=value)
            assert unpack(pack_v2(h, [(1,)], latent=value))[0] == h
            with pytest.raises(UsageError, match="latent_dim"):
                header(latent_dim=value)
        else:
            h = header(**{field: value})
            assert unpack(pack(h, [(1,)]))[0] == h

    def test_tile_count_must_fit_u32(self):
        # 2^19 x 2^19 tiles: each side fits u32, the block count does not.
        with pytest.raises(UsageError, match="block_count"):
            header(image_width=2**22, image_height=2**22)
        with pytest.raises(FormatError, match="block_count"):
            unpack(raw_v3([(1,)], 37, width=2**32 - 1, height=2**32 - 1))
        data = pack_v2(header(), [(1,)])
        with pytest.raises(FormatError, match="block_count"):
            unpack(relabel(data, 1, 2**32 - 1, 2**32 - 1))

    def test_single_zero_index(self):
        data = pack(header(epsilon=0.0), [(0,)])
        # K_min 1 in a 0-bit K field, then the 5-bit index 0 in one byte.
        assert data[-7:-4] == b"\x01\x00\x00"
        assert data == raw_v3([(0,)], 21, epsilon=0.0)

    def test_four_step_payload_width(self):
        one = pack(header(), [(36,)])
        four = pack(header(), [(36, 36, 36, 36)])
        # 21 bits in 3 bytes against 6 bits in 1; both K_min varints are 1 byte.
        assert len(four) - len(one) == 2

    def test_random_round_trips(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            nblocks = int(rng.integers(1, 5))
            blocks = [
                tuple(int(i) for i in rng.integers(0, 37, size=rng.integers(1, 12)))
                for _ in range(nblocks)
            ]
            residual = bytes(rng.integers(0, 256, size=rng.integers(0, 9), dtype=np.uint8))
            use_res = bool(rng.integers(0, 2))
            h = header(blocks=nblocks, seed=int(rng.integers(0, 2**64, dtype=np.uint64)))
            data = pack(h, blocks, residual=residual if use_res else None)
            h2, blocks2, res2 = unpack(data)
            assert blocks2 == blocks
            assert h2 == h
            assert h2.block_count == nblocks
            assert res2 == (residual if use_res else None)

    def test_empty_block_list(self):
        # No image has zero patches: such a header cannot be built, and a
        # hand-built file without blocks is malformed.
        with pytest.raises(UsageError):
            header(blocks=0)
        with pytest.raises(UsageError):
            pack(header(), [()])
        with pytest.raises(FormatError):
            unpack(raw_v3([(0,)], 37, height=0))
        data = pack_v2(header(), [(0,)])[:HEADER_SIZE]
        with pytest.raises(FormatError):
            unpack(relabel(data, 0, 8, 0))

    def test_block_count_mismatch(self):
        with pytest.raises(UsageError):
            pack(header(blocks=2), [(0,)])

    def test_index_overflows_radix(self):
        with pytest.raises(UsageError):
            pack(header(), [(37,)])

    def test_pack_and_unpack_take_linear_time(self):
        # 1,024 and 16,384 blocks of 7 to 11 steps: linear cost is 16x the
        # smaller file's. Shifting one growing int per field, as the
        # bitstream coder once did, made it about 80x.
        rng = np.random.default_rng(3)
        files = {}
        for side in (256, 1024):
            n = (side // 8) ** 2
            digits = rng.integers(0, 37, size=(n, 11)).tolist()
            blocks = [tuple(row[:k]) for row, k in zip(digits, rng.integers(7, 12, size=n))]
            h = header(image_width=side, image_height=side)
            files[n] = (h, blocks, pack(h, blocks))
            assert unpack(files[n][2]) == (h, blocks, None)
        seconds = {}
        for _ in range(3):  # best of 3, both sizes in turn so that load hits both
            for n, (h, blocks, data) in files.items():
                runs = {"pack": lambda: pack(h, blocks), "unpack": lambda: unpack(data)}
                for name, run in runs.items():
                    t = timeit.timeit(run, number=1)
                    seconds[n, name] = min(t, seconds.get((n, name), t))
        for name in ("pack", "unpack"):
            assert seconds[16384, name] < 32 * seconds[1024, name], name


_SIDES = [0, 1, 8, 9, 17, 2**32 - 1, 2**32]
_PARAMS = [(3.0, 0.2), (3.0, 0.0), (0.5, 0.0), (-1.0, 0.2), (3.0, -0.1), (25.0, 0.0)]


class TestVersion3:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.sampled_from([0, 2**64 - 1, 2**64]) | st.integers(0, 2**64 - 1),
        model_id=st.sampled_from([0, 2**64 - 1]),
        width=st.sampled_from(_SIDES),
        height=st.sampled_from(_SIDES),
        params=st.sampled_from(_PARAMS),
        k_min=st.sampled_from([1, 2, 127, 128, K_MAX - 1, K_MAX]),
        k_width=st.integers(0, 8),
        draws=st.integers(0, 2**32 - 1),
        residual=st.none() | st.binary(max_size=6),
    )
    def test_pack_refuses_what_unpack_rejects(
        self, seed, model_id, width, height, params, k_min, k_width, draws, residual
    ):
        # Either pack writes exactly the FORMAT.md layout and unpack returns
        # its input, or pack refuses and unpack rejects the same fields.
        omega, epsilon = params
        rows, cols = -(-width // 8), -(-height // 8)
        count = rows * cols if 0 < rows * cols <= 9 else 1
        try:
            m = header(omega=omega, epsilon=epsilon).M
        except (UsageError, ConfigError):
            m = 2
        rng = np.random.default_rng(draws)
        ks = [k_min + int(rng.integers(0, 2**k_width)) for _ in range(count)]
        blocks = [tuple(int(i) for i in rng.integers(0, m, size=k)) for k in ks]
        fields = dict(seed=seed, omega=omega, epsilon=epsilon, model_id=model_id,
                      width=width, height=height, residual=residual)
        try:
            h = ContainerHeader(seed=seed, omega=omega, epsilon=epsilon, model_id=model_id,
                                image_width=width, image_height=height)
            data = pack(h, blocks, residual)
        except (UsageError, ConfigError):
            if count < rows * cols:
                fields["residual"] = None  # nothing can stand in for the missing blocks
            with pytest.raises((FormatError, CorruptStreamError)):
                unpack(raw_v3(blocks, m, **fields))
            return
        assert data == raw_v3(blocks, m, **fields)
        assert unpack(data) == (h, blocks, residual)
        assert k_field(blocks) == (min(ks), (max(ks) - min(ks)).bit_length())

    def test_version_byte_is_two_flips_from_1_and_2(self):
        assert VERSION_BYTE == 0x83
        assert bin(VERSION_BYTE ^ 1).count("1") == bin(VERSION_BYTE ^ 2).count("1") == 2
        data = pack(header(), [(1,)])
        for bit in range(8):
            mutated = bytearray(data)
            mutated[4] ^= 1 << bit
            with pytest.raises(FormatError, match="version"):
                unpack(bytes(mutated))

    def test_checksum_is_checked_first(self):
        data = bytearray(pack(header(), [(1,)]))
        data[5] = 0xFE  # reserved flag bits, and a stale CRC32
        with pytest.raises(CorruptStreamError, match="CRC32"):
            unpack(bytes(data))
        with pytest.raises(FormatError, match="reserved"):
            unpack(reseal(bytes(data)))

    def test_k_field(self):
        blocks = [(0,) * 7, (0,) * 11, (0,) * 8]
        assert k_field(blocks) == (7, 3)
        assert k_field(blocks[:1]) == (7, 0)
        h = header(blocks=3)
        assert pack(h, blocks) == raw_v3(blocks, 37, width=24)
        # Only the canonical K field is valid, so unpack returns what the file holds.
        for k_min, k_width in ((5, 8), (None, 4), (6, None)):
            with pytest.raises(CorruptStreamError, match="K field not canonical"):
                unpack(raw_v3(blocks, 37, width=24, k_min=k_min, k_width=k_width))

    def test_huge_image_rejected_before_blocks_are_read(self):
        # 2^29 blocks cannot fit in a few bytes; rejected by size, not by
        # building 2^29 step counts.
        with pytest.raises(CorruptStreamError, match="truncated"):
            unpack(raw_v3([(1,)], 37, width=2**32 - 1, height=1))
        with pytest.raises(CorruptStreamError, match="truncated"):
            unpack(raw_v3([(1,)], 37, k_min=2**62, k_width=0))


class TestCorruptInput:
    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_block_over_k_max_is_corrupt(self, version):
        # A block of K_MAX steps parses; one step more makes a corrupt file,
        # refused by the parser before any schedule is built, and pack
        # refuses to write it.
        h = header(blocks=2)
        for k in (K_MAX, K_MAX + 1):
            blocks = [(1,), (0,) * k]
            data = (pack_v2(h, blocks, version=version) if version < 3
                    else raw_v3(blocks, 37, width=16))
            if k <= K_MAX:
                assert unpack(data)[1] == blocks
                assert version < 3 or pack(h, blocks) == data
            else:
                with pytest.raises(CorruptStreamError, match="K_MAX"):
                    unpack(data)
                with pytest.raises(UsageError, match="K_MAX"):
                    pack(h, blocks)

    def test_bad_magic(self):
        data = pack(header(), [(1,)])
        with pytest.raises(FormatError):
            unpack(b"XREC" + data[4:])

    def test_short_header(self):
        with pytest.raises(FormatError):
            unpack(b"IREC\x01")

    def test_bad_version(self):
        data = bytearray(pack(header(), [(1,)]))
        data[4] = 9
        with pytest.raises(FormatError):
            unpack(bytes(data))
        with pytest.raises(UsageError):
            header(version=9)

    @pytest.mark.parametrize("residual", [None, b"\x00" * 5])
    def test_reserved_flag_bits_rejected(self, residual):
        data = pack(header(), [(1,)], residual=residual)
        assert data[5] == (residual is not None)
        legacy = pack_v2(header(), [(1,)], residual=residual)
        for bit in range(1, 8):
            for file, flags_at in ((data, 5), (legacy, 5)):
                mutated = bytearray(file)
                mutated[flags_at] ^= 1 << bit
                if file is data:
                    mutated = reseal(mutated)
                with pytest.raises(FormatError):
                    unpack(bytes(mutated))

    def test_writes_version_3_reads_all(self):
        data = pack(header(), [(1,)])
        assert data[4] == VERSION_BYTE and unpack(data)[0].version == 3
        with pytest.raises(UsageError, match="version 3 only"):
            pack(header(version=2, latent_dim=4), [(1,)])
        legacy = bytearray.fromhex(V2_LOSSLESS_HEX)
        for version in (1, 2):
            legacy[4] = version
            h, blocks, residual = unpack(bytes(legacy))
            assert (h.version, blocks, residual) == (version, V2_BLOCKS, b"\x07")

    @pytest.mark.parametrize(
        "width,height,blocks",
        [(16, 16, 1), (8, 8, 4), (9, 8, 1), (17, 17, 4), (0, 8, 0), (8, 0, 0), (0, 0, 1)],
    )
    def test_block_count_must_tile_image(self, width, height, blocks):
        # A version-2 field; version 3 derives the count from the sides.
        n = max(blocks, 1)
        data = pack_v2(header(blocks=n), [(1,)] * n)
        with pytest.raises(FormatError):
            unpack(relabel(data, blocks, width, height))

    @pytest.mark.parametrize("width,height,blocks", [(1, 1, 1), (9, 8, 2), (17, 17, 9)])
    def test_partial_patches_count(self, width, height, blocks):
        h = header(image_width=width, image_height=height)
        assert len(unpack(pack(h, [(1,)] * blocks))[1]) == blocks

    def test_truncated_payload(self):
        data = pack(header(), [(1, 2, 3, 4)])
        with pytest.raises(CorruptStreamError):
            unpack(data[:-2])
        with pytest.raises(CorruptStreamError, match="truncated block payload"):
            unpack(reseal(data[:-5] + bytes(4)))
        with pytest.raises(CorruptStreamError):
            unpack(pack_v2(header(), [(1, 2, 3, 4)])[:-2])

    @pytest.mark.parametrize(
        "offsets", [b"\xff" * 4, b"\x00\x00\x00\x01"], ids=["4x256", "one-more"]
    )
    def test_k_field_claims_more_steps_than_the_payload_holds(self, offsets):
        # Four one-step blocks behind an 8-bit K field: 7 payload bytes. The
        # crafted offsets claim 256 steps per block, or one step more than
        # the 7 bytes can hold with the K field.
        data = bytearray(raw_v3([(0,)] * 4, 37, width=32, k_width=8))
        data[-11:-7] = offsets
        with pytest.raises(CorruptStreamError, match="truncated block payload"):
            unpack(reseal(bytes(data)))

    def test_version_2_files_cut_at_every_byte(self):
        # 40 steps at M = 37 take ceil(40 log2 37) = 209 bits, 27 bytes: cut
        # to 25, the exact width check catches what k * floor(log2 M) misses.
        for data in (bytes.fromhex(V2_LOSSY_HEX), pack_v2(header(), [(0,) * 40])):
            for cut in range(len(data)):
                with pytest.raises((FormatError, CorruptStreamError)):
                    unpack(data[:cut])

    def test_residual_count_must_be_pixel_count(self):
        # Versions 1 and 2 only; version 3 stores no count.
        data = pack_v2(header(), [(1,)], residual=b"\x07")
        count_at = len(data) - 5
        assert data[count_at:-1] == (8 * 8).to_bytes(4, "little")
        assert unpack(data)[2] == b"\x07"
        for count in (0, 63, 65, 2**32 - 1):
            bad = data[:count_at] + count.to_bytes(4, "little") + data[-1:]
            with pytest.raises(CorruptStreamError, match="residual count"):
                unpack(bad)

    def test_residual_section_shorter_than_count(self):
        data = pack_v2(header(), [(1,)], residual=b"")
        for cut in range(1, 5):
            with pytest.raises(CorruptStreamError, match="count field"):
                unpack(data[:-cut])
        # Version 3: an empty residual section is a valid one.
        assert unpack(pack(header(), [(1,)], residual=b""))[2] == b""

    def test_trailing_bytes(self):
        data = pack(header(), [(1,)])
        with pytest.raises(CorruptStreamError):
            unpack(data + b"\x00")
        with pytest.raises(CorruptStreamError, match="trailing"):
            unpack(reseal(data[:-4] + b"\x00" + data[-4:]))
        with pytest.raises(CorruptStreamError, match="trailing"):
            unpack(pack_v2(header(), [(1,)]) + b"\x00")

    def test_nonzero_padding_rejected(self):
        # A 5-bit index packed into a byte: set a padding bit, or a value
        # above M^K.
        data = bytearray(pack(header(epsilon=0.0), [(0,)]))
        for byte, match in ((0x01, "padding"), (0xF8, "index range")):
            data[-5] = byte  # the bitstream's only byte
            with pytest.raises(CorruptStreamError, match=match):
                unpack(reseal(bytes(data)))
        legacy = bytearray(pack_v2(header(epsilon=0.0), [(0,)]))
        legacy[-1] = 0xFF  # value 255 >= 21^1
        with pytest.raises(CorruptStreamError):
            unpack(bytes(legacy))

    def test_zero_step_block_rejected(self):
        with pytest.raises(CorruptStreamError):
            unpack(raw_v3([(1,)], 37, k_min=0))
        data = bytearray(pack_v2(header(), [(1,)]))
        data[HEADER_SIZE] = 0  # varint K = 0
        with pytest.raises(CorruptStreamError):
            unpack(bytes(data))

    def test_invalid_header_params(self):
        with pytest.raises(FormatError):
            unpack(raw_v3([(1,)], 37, omega=-1.0))
        data = bytearray(pack_v2(header(), [(1,)]))
        data[14:22] = np.float64(-1.0).tobytes()  # omega field
        with pytest.raises(FormatError):
            unpack(bytes(data))

    def test_denormal_omega_rejected(self):
        # Flipping the top exponent bit of omega yields a denormal where
        # exp() rounds to 1, i.e. M = 1 and zero-width index payloads; the
        # parser must reject it instead of misreading garbage step counts.
        data = bytearray(pack(header(), [(1,)]))
        omega_at = 6 + len(write_varint(12345))
        assert data[omega_at : omega_at + 8] == struct.pack("<d", 3.0)
        data[omega_at + 7] ^= 1 << 6
        with pytest.raises(CorruptStreamError, match="CRC32"):
            unpack(bytes(data))
        with pytest.raises(FormatError):
            unpack(reseal(bytes(data)))
        legacy = bytearray(pack_v2(header(), [(1,)]))
        legacy[21] ^= 1 << 6
        with pytest.raises(FormatError):
            unpack(bytes(legacy))

    def test_bit_flip_fuzz_never_crashes(self):
        # Version 3: every flip is caught. Versions 1 and 2: none crashes.
        data = pack(header(blocks=2), [(3, 1, 4), (1, 5)])
        for pos in range(8 * len(data)):
            mutated = bytearray(data)
            mutated[pos // 8] ^= 1 << (pos % 8)
            with pytest.raises((FormatError, CorruptStreamError)):
                unpack(bytes(mutated))
        legacy = bytes.fromhex(V2_LOSSLESS_HEX)
        baseline = unpack(legacy)
        for pos in range(8 * len(legacy)):
            mutated = bytearray(legacy)
            mutated[pos // 8] ^= 1 << (pos % 8)
            try:
                h, blocks, res = unpack(bytes(mutated))
            except (FormatError, CorruptStreamError):
                continue
            assert (h, blocks, res) != baseline


class TestCodelengthReport:
    def test_thirty_nat_block(self):
        h = header()
        blocks = [(0,) * 10]  # K = 10 at omega 3, KL 30
        report = codelength_report(h, blocks, [30.0])
        assert report["payload_bits"] == 53
        assert report["varint_bits"] == 0  # one block: a 0-bit K field
        assert report["ideal_bits"] == pytest.approx(43.2808, abs=1e-3)
        assert report["overhead_ratio"] == pytest.approx(1.224, abs=1e-2)
        # K from 7 to 11: 3 bits per block.
        three = codelength_report(header(blocks=3), [(0,) * 7, (0,) * 11, (0,) * 9], [1.0] * 3)
        assert three["varint_bits"] == 9

    def test_zero_kl_sentinel(self):
        report = codelength_report(header(), [(0,)], [0.0])
        assert report["payload_bits"] == index_bits(1, 37)
        assert math.isinf(report["overhead_ratio"])

    def test_no_oversampling_tight_bound(self):
        h = header(epsilon=0.0)
        k = math.ceil(100.0 / 3.0)
        report = codelength_report(h, [(0,) * k], [100.0])
        assert report["overhead_ratio"] <= 1.10

    def test_oversampling_payload_ratio(self):
        k = 10
        wide = codelength_report(header(), [(0,) * k], [30.0])
        tight = codelength_report(header(epsilon=0.0), [(0,) * k], [30.0])
        ratio = wide["payload_bits"] / tight["payload_bits"]
        assert ratio == pytest.approx(1.19, abs=0.05)
