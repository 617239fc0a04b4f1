import dataclasses
import math
import struct
import timeit

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pack_v2, raw_v3, raw_v4, raw_v5, reseal
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
    thousandths,
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

    @pytest.mark.parametrize("data", ["8000", "ff00", "808000", "ff8000"])
    def test_last_byte_zero_is_overlong(self, data):
        # Each value has a shorter code, so only that one is canonical.
        with pytest.raises(CorruptStreamError, match="overlong varint"):
            read_varint(bytes.fromhex(data), 0)

    def test_overlong_header_varint(self):
        # Seed 0 written as 80 00 (the same value) under a resealed CRC32.
        data = raw_v4([(1,)], 37, seed=0)
        assert data[6] == 0 and unpack(data)[1] == [(1,)]
        with pytest.raises(CorruptStreamError, match="overlong varint"):
            unpack(reseal(data[:6] + b"\x80" + data[6:]))


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
        # Centre 1, then a 1-bit unary K field and the 5-bit index 0 in one byte.
        assert data[-6:-4] == b"\x01\x00"
        assert data == raw_v5([(0,)], 21, epsilon=0)

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

    def test_pack_takes_linear_time_in_k(self):
        # Blocks of 256 and 4,096 steps at M = 37: linear cost is 16x the
        # shorter block's. One multiply-add per index into the growing value
        # made it about 60x.
        rng = np.random.default_rng(4)
        h = header(blocks=4)
        files = {}
        for k in (256, K_MAX):
            blocks = [tuple(row) for row in rng.integers(0, 37, size=(4, k)).tolist()]
            files[k] = blocks
            assert unpack(pack(h, blocks)) == (h, blocks, None)
        seconds = {}
        for _ in range(3):  # best of 3, both sizes in turn so that load hits both
            for k, blocks in files.items():
                t = timeit.timeit(lambda: pack(h, blocks), number=1)
                seconds[k] = min(t, seconds.get(k, t))
        assert seconds[K_MAX] < 32 * seconds[256]


_SIDES = [0, 1, 8, 9, 17, 2**32 - 1, 2**32]
# omega and epsilon in thousandths: valid, omega 0, M above 2^32, M = 2.
_PARAMS = [(3000, 200), (3000, 0), (500, 0), (0, 200), (25000, 0), (1, 0)]


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
        # Either pack writes exactly the FORMAT.md layout of version 5 and
        # unpack returns its input, or pack refuses and unpack rejects the
        # same fields. Version-3 and version-4 files of the same fields
        # (omega and epsilon as the doubles n / 1000 in version 3) read back
        # with the whole model_id when the header is valid, and are rejected
        # otherwise.
        omega, epsilon = params[0] / 1000, params[1] / 1000
        rows, cols = -(-width // 8), -(-height // 8)
        count = rows * cols if 0 < rows * cols <= 9 else 1
        try:
            m = header(omega=omega, epsilon=epsilon).M
        except (UsageError, ConfigError):
            m = 2
        rng = np.random.default_rng(draws)
        ks = [k_min + int(rng.integers(0, 2**k_width)) for _ in range(count)]
        blocks = [tuple(int(i) for i in rng.integers(0, m, size=k)) for k in ks]
        fields = dict(seed=seed, model_id=model_id, width=width, height=height, residual=residual)
        try:
            h = ContainerHeader(seed=seed, omega=omega, epsilon=epsilon, model_id=model_id,
                                image_width=width, image_height=height)
            data = pack(h, blocks, residual)
        except (UsageError, ConfigError):
            if count < rows * cols:
                fields["residual"] = None  # nothing can stand in for the missing blocks
            for raw in (raw_v4, raw_v5):
                with pytest.raises((FormatError, CorruptStreamError)):
                    unpack(raw(blocks, m, omega=params[0], epsilon=params[1], **fields))
            with pytest.raises((FormatError, CorruptStreamError)):
                unpack(raw_v3(blocks, m, omega=omega, epsilon=epsilon, **fields))
            return
        assert data == raw_v5(blocks, m, omega=params[0], epsilon=params[1], **fields)
        assert unpack(data) == (h, blocks, residual)
        assert h.model_id == model_id & 0xFFFFFFFF
        v4 = dataclasses.replace(h, version=4, model_id=model_id)
        assert unpack(raw_v4(blocks, m, omega=params[0], epsilon=params[1], **fields)) == (
            v4, blocks, residual)
        v3 = dataclasses.replace(v4, version=3)
        assert unpack(raw_v3(blocks, m, omega=omega, epsilon=epsilon, **fields)) == (
            v3, blocks, residual)

    def test_version_byte_is_two_flips_from_1_and_2(self):
        # 0x84 and 0x85 are one flip apart: such a flip is a CRC32 mismatch,
        # since the CRC32 covers the version byte. Any other flip is an
        # unsupported version byte.
        assert VERSION_BYTE == 0x85
        for byte in (0x83, 0x84, 0x85):
            assert min(bin(byte ^ other).count("1") for other in (1, 2)) >= 2
        for data in (pack(header(), [(1,)]), raw_v4([(1,)], 37), raw_v3([(1,)], 37)):
            for bit in range(8):
                mutated = bytearray(data)
                mutated[4] ^= 1 << bit
                error, match = ((CorruptStreamError, "CRC32") if 0x83 <= mutated[4] <= 0x85
                                else (FormatError, "version"))
                with pytest.raises(error, match=match):
                    unpack(bytes(mutated))

    def test_checksum_is_checked_first(self):
        data = bytearray(pack(header(), [(1,)]))
        data[5] = 0xFE  # reserved flag bits, and a stale CRC32
        with pytest.raises(CorruptStreamError, match="CRC32"):
            unpack(bytes(data))
        with pytest.raises(FormatError, match="reserved"):
            unpack(reseal(bytes(data)))

    def test_k_field(self):
        # Version 3 always codes the K field in fixed width.
        blocks = [(0,) * 7, (0,) * 11, (0,) * 8]
        assert k_field([7, 11, 8], prefix=False) == (None, 7, 3, 9)
        assert k_field([7], prefix=False) == (None, 7, 0, 0)
        h = dataclasses.replace(header(blocks=3), version=3)
        assert unpack(raw_v3(blocks, 37, width=24)) == (h, blocks, None)
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
        with pytest.raises(CorruptStreamError, match="truncated"):
            unpack(raw_v4([(1,)], 37, width=2**32 - 1, height=1, centre=1))


class TestVersion4:
    def test_thousandths_are_the_decimal_doubles(self):
        # n / 1000, one correctly rounded division, is the double that the
        # decimal literal of n thousandths parses to.
        for n in range(10**6):
            assert n / 1000 == float(f"{n // 1000}.{n % 1000:03d}")

    @pytest.mark.parametrize("field, value", [("omega", 3.0001), ("epsilon", 1e-4)])
    def test_pack_refuses_values_off_the_thousandths(self, field, value):
        with pytest.raises(UsageError, match=f"{field} must be a whole number of thousandths"):
            pack(header(**{field: value}), [(1,)])
        # Version 3 stored them as f64 and still reads them.
        h = header(version=3, **{field: value})
        data = raw_v3([(1,)], h.M, omega=h.omega, epsilon=h.epsilon)
        assert unpack(data) == (h, [(1,)], None)
        with pytest.raises(UsageError, match="version 5 only"):
            pack(h, [(1,)])

    def test_omega_and_epsilon_as_thousandths(self):
        assert (thousandths("omega", 3.0), thousandths("epsilon", 0.2)) == (3000, 200)
        data = pack(header(omega=0.125, epsilon=0.0), [(1,)])
        # seed 12345, then omega 125 and epsilon 0 as varints, then model_id.
        assert data[6:11] == write_varint(12345) + b"\x7d\x00" + b"\xef"
        assert unpack(data)[0] == header(omega=0.125, epsilon=0.0)
        for value in (math.nan, math.inf, -math.inf, 1e306):
            with pytest.raises(UsageError, match="thousandths"):
                thousandths("omega", value)
        with pytest.raises(FormatError, match="omega"):
            unpack(raw_v4([(1,)], 37, omega=0))

    def test_k_field_modes(self):
        # Prefix coding wins where its centre varint and unary bits are fewer
        # than fixed width's K_min varint, u8 width and bits; ties go to fixed.
        # Unary codes: zigzag 1 as "10", 6 as "1111110" and 0 as "0", 10 bits.
        assert k_field([7, 11, 8]) == (8, None, None, 10)
        assert k_field([7]) == (7, None, None, 1)
        assert k_field([9] * 7) == (9, None, None, 7)
        assert k_field([9] * 8) == (None, 9, 0, 0)
        assert k_field(list(range(1, 9))) == (None, 1, 3, 24)
        # The centre is the lower median, not the mode.
        assert k_field([7, 5, 7, 6, 5, 7, 6, 5, 7]) == (6, None, None, 20)
        # The rule spelled out, code by code, on random step counts.
        rng = np.random.default_rng(6)
        for _ in range(500):
            ks = rng.integers(1, int(rng.choice([3, 40, 300])), int(rng.integers(1, 30))).tolist()
            c, k_min = sorted(ks)[(len(ks) - 1) // 2], min(ks)
            unary = sum(2 * (k - c) if k >= c else 2 * (c - k) - 1 for k in ks) + len(ks)
            width = (max(ks) - k_min).bit_length()
            fixed = 8 * len(write_varint(k_min)) + 8 + len(ks) * width
            expected = ((c, None, None, unary) if 8 * len(write_varint(c)) + unary < fixed
                        else (None, k_min, width, len(ks) * width))
            assert k_field(ks) == expected
        for ks in ([7, 11, 8], [9] * 8, list(range(1, 9))):
            blocks = [(0,) * k for k in ks]
            h = header(blocks=len(ks))
            data = pack(h, blocks)
            assert data == raw_v5(blocks, 37, width=8 * len(ks))
            assert bool(data[5] & 2) == (k_field(ks)[0] is not None)
            assert unpack(data) == (h, blocks, None)

    def test_k_field_not_canonical(self):
        blocks = [(0,) * 7, (0,) * 11, (0,) * 8]  # canonical: prefix around 8
        fixed = [(0,) * k for k in range(1, 9)]  # canonical: fixed, K_min 1, width 3
        for data in (
            raw_v4(blocks, 37, width=24, k_min=7),
            raw_v4(blocks, 37, width=24, centre=7),
            raw_v4(blocks, 37, width=24, centre=11),
            raw_v4(fixed, 37, width=64, centre=4),
            raw_v4(fixed, 37, width=64, centre=5),
            raw_v4(fixed, 37, width=64, k_width=4),
            raw_v4([(0,) * 9] * 8, 37, width=64, centre=9),  # a tie
        ):
            with pytest.raises(CorruptStreamError, match="K field not canonical"):
                unpack(data)

    def test_prefix_k_field_bounds(self):
        # Unary codes that take K below 1 or above K_MAX, or that run past
        # the data, are refused before any tuple is read.
        data = bytearray(raw_v4([(0,)], 37, centre=2))  # K field "10": K = 2 - 1
        assert data[-6:-4] == b"\x02\x80"
        data[-6] = 1
        with pytest.raises(CorruptStreamError, match=">= 1"):
            unpack(reseal(bytes(data)))
        data[-5] = 0xFF
        with pytest.raises(CorruptStreamError, match="truncated block payload"):
            unpack(reseal(bytes(data)))
        with pytest.raises(CorruptStreamError, match="K_MAX"):
            unpack(raw_v4([(0,) * (K_MAX + 1)], 37, centre=K_MAX + 1))

    def test_prefix_k_field_takes_linear_time(self):
        # 1,024 and 16,384 blocks, most at K = 9 and one in 1,024 at K_MAX, so
        # the unary codes include runs of 8,174 one bits: linear cost is 16x
        # the smaller file's.
        rng = np.random.default_rng(5)
        files = {}
        for side in (256, 1024):
            n = (side // 8) ** 2
            ks = np.where(np.arange(n) % 1024 == 5, K_MAX, 9).tolist()
            blocks = [tuple(rng.integers(0, 2, k).tolist()) for k in ks]
            h = header(omega=0.5, epsilon=0.2, image_width=side, image_height=side)
            files[n] = pack(h, blocks)
            assert files[n][5] & 2 and unpack(files[n]) == (h, blocks, None)
        seconds = {}
        for _ in range(3):  # best of 3, both sizes in turn so that load hits both
            for n, data in files.items():
                t = timeit.timeit(lambda: unpack(data), number=1)
                seconds[n] = min(t, seconds.get(n, t))
        assert seconds[16384] < 32 * seconds[1024]


class TestVersion5:
    def test_stores_the_low_32_bits_of_model_id(self):
        # 4 bytes instead of 8; a version-4 header keeps all 64 bits.
        h = header(model_id=0x0123456789ABCDEF)
        assert h.model_id == 0x89ABCDEF
        assert header(version=4, model_id=0x0123456789ABCDEF).model_id == 0x0123456789ABCDEF
        data = pack(h, [(1,)])
        assert len(raw_v4([(1,)], 37)) - len(data) == 4
        assert data[6:16] == write_varint(12345) + write_varint(3000) + write_varint(200) + (
            b"\xef\xcd\xab\x89")
        assert unpack(data)[0] == h

    @pytest.mark.parametrize("section", [b"", b"\x07", bytes(range(200))], ids=[0, 1, 200])
    def test_residual_section_has_its_length(self, section):
        # A varint byte count before the section: 1 byte, or 2 from 128 bytes.
        data = pack(header(), [(1,)], residual=section)
        bare = pack(header(), [(1,)])
        assert len(data) - len(bare) - len(section) == len(write_varint(len(section)))
        assert data[-4 - len(section) - len(write_varint(len(section))):-4] == (
            write_varint(len(section)) + section)
        assert unpack(data)[2] == section
        for length in (len(section) - 1, len(section) + 1, len(section) + 128):
            if length >= 0:
                with pytest.raises(CorruptStreamError, match="residual length"):
                    unpack(raw_v5([(1,)], 37, residual=section, residual_length=length))

    def test_every_cut_or_insertion_in_the_residual_section_is_refused(self):
        # Resealed with a fresh CRC32: the length, here 2 bytes, no longer
        # matches the bytes, or is itself cut.
        section = bytes(range(1, 131))
        data = pack(header(), [(1,)], residual=section)
        start = len(data) - 4 - len(section)
        for at in range(start - 2, len(data) - 4):
            with pytest.raises(CorruptStreamError):
                unpack(reseal(data[:at] + data[-4:]))
        for at in range(start, len(data) - 3):
            for byte in (0, 0x5A):
                with pytest.raises(CorruptStreamError, match="residual length"):
                    unpack(reseal(data[:at] + bytes([byte]) + data[at:]))


class TestCorruptInput:
    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    def test_block_over_k_max_is_corrupt(self, version):
        # A block of K_MAX steps parses; one step more makes a corrupt file,
        # refused by the parser before any schedule is built, and pack
        # refuses to write it.
        h = header(blocks=2)
        raw = {3: raw_v3, 4: raw_v4, 5: raw_v5}.get(version)
        for k in (K_MAX, K_MAX + 1):
            blocks = [(1,), (0,) * k]
            data = (pack_v2(h, blocks, version=version) if version < 3
                    else raw(blocks, 37, width=16))
            if k <= K_MAX:
                assert unpack(data)[1] == blocks
                assert version < 5 or pack(h, blocks) == data
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
        # Bit 1 marks a prefix-coded K field in version 4 and is reserved
        # before it; bits 2-7 are reserved in every version.
        blocks = [(1,)] * 8  # a fixed-width K field
        data = pack(header(blocks=8), blocks, residual=residual)
        assert data[5] == (residual is not None)
        v3 = raw_v3([(1,)], 37, residual=residual)
        legacy = pack_v2(header(), [(1,)], residual=residual)
        for file, first in ((data, 2), (v3, 1), (legacy, 1)):
            for bit in range(first, 8):
                mutated = bytearray(file)
                mutated[5] ^= 1 << bit
                if file is not legacy:
                    mutated = reseal(mutated)
                with pytest.raises(FormatError):
                    unpack(bytes(mutated))

    def test_writes_version_5_reads_all(self):
        data = pack(header(), [(1,)])
        assert data[4] == VERSION_BYTE and unpack(data)[0].version == 5
        for old in (header(version=4), header(version=3), header(version=2, latent_dim=4)):
            with pytest.raises(UsageError, match="version 5 only"):
                pack(old, [(1,)])
        assert unpack(raw_v4([(1,)], 37))[0] == header(version=4)
        assert unpack(raw_v3([(1,)], 37))[0] == header(version=3)
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
        # A 5-bit index packed into a byte, after a 1-bit unary K field in
        # version 4: set a padding bit, or a value above M^K.
        for data, over in ((pack(header(epsilon=0.0), [(0,)]), 0x54),
                           (raw_v3([(0,)], 21, epsilon=0.0), 0xF8)):
            data = bytearray(data)
            for byte, match in ((0x01, "padding"), (over, "index range")):
                data[-5] = byte  # the bitstream's only byte
                with pytest.raises(CorruptStreamError, match=match):
                    unpack(reseal(bytes(data)))
        legacy = bytearray(pack_v2(header(epsilon=0.0), [(0,)]))
        legacy[-1] = 0xFF  # value 255 >= 21^1
        with pytest.raises(CorruptStreamError):
            unpack(bytes(legacy))

    @pytest.mark.parametrize("k", [33, 100, K_MAX])
    def test_long_tuples(self, k):
        # A tuple of more than 32 indices is split at M^(K//2) to unpack: its
        # indices still come back in order, and a value of M^K is refused.
        code = tuple(np.random.default_rng(k).integers(0, 37, k).tolist())
        assert unpack(pack(header(), [code]))[1] == [code]
        with pytest.raises(CorruptStreamError, match="index range"):
            unpack(raw_v3([(0,) * (k - 1) + (37,)], 37))

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
        data = bytearray(raw_v3([(1,)], 37))
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
        assert report["varint_bits"] == 1  # one block: a 1-bit unary K field
        assert report["ideal_bits"] == pytest.approx(43.2808, abs=1e-3)
        assert report["overhead_ratio"] == pytest.approx(1.224, abs=1e-2)
        # K of 7, 11 and 9 around the centre 9: unary codes of 4, 5 and 1 bits.
        three = codelength_report(header(blocks=3), [(0,) * 7, (0,) * 11, (0,) * 9], [1.0] * 3)
        assert three["varint_bits"] == 10
        # K from 1 to 8: fixed width, 3 bits per block.
        eight = codelength_report(header(blocks=8), [(0,) * k for k in range(1, 9)], [1.0] * 8)
        assert eight["varint_bits"] == 24

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
