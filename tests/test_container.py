import dataclasses
import math
import struct

import numpy as np
import pytest

from irec.container import (
    HEADER_SIZE,
    ContainerHeader,
    codelength_report,
    index_bits,
    pack,
    read_varint,
    unpack,
    write_varint,
)
from irec.errors import CorruptStreamError, FormatError, UsageError


def header(omega=3.0, epsilon=0.2, blocks=1, latent=4, **kw):
    # An (8 * blocks) x 8 image is tiled by exactly `blocks` patches.
    base = dict(
        seed=12345,
        omega=omega,
        epsilon=epsilon,
        model_id=0xDEADBEEF,
        latent_dim=latent,
        image_width=8 * blocks,
        image_height=8,
    )
    base.update(kw)
    return ContainerHeader(**base)


def relabel(data, blocks, width, height):
    """Overwrite block_count, image_width and image_height of a packed file."""
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
        assert HEADER_SIZE == 54

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
        with pytest.raises(UsageError, match=field):
            header(**{field: value})
        with pytest.raises(UsageError, match=field):
            dataclasses.replace(header(), **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("seed", 2**64 - 1), ("model_id", 2**64 - 1), ("latent_dim", 2**32 - 1)],
    )
    def test_integer_field_extremes_round_trip(self, field, value):
        h = header(**{field: value})
        assert unpack(pack(h, [(1,)]))[0] == h

    def test_tile_count_must_fit_u32(self):
        # 2^19 x 2^19 tiles: each side fits u32, the block count does not.
        with pytest.raises(UsageError, match="block_count"):
            header(image_width=2**22, image_height=2**22)
        data = pack(header(), [(1,)])
        with pytest.raises(FormatError, match="block_count"):
            unpack(relabel(data, 1, 2**32 - 1, 2**32 - 1))

    def test_single_zero_index(self):
        data = pack(header(epsilon=0.0), [(0,)])
        assert data[HEADER_SIZE:] == b"\x01\x00"  # varint K=1, 5-bit payload byte

    def test_four_step_payload_width(self):
        data = pack(header(), [(36, 36, 36, 36)])
        # varint K=4 plus 21 bits packed into 3 bytes
        assert len(data) - HEADER_SIZE == 1 + 3

    def test_random_round_trips(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            nblocks = int(rng.integers(1, 5))
            blocks = [
                tuple(rng.integers(0, 37, size=rng.integers(1, 12)))
                for _ in range(nblocks)
            ]
            residual = bytes(rng.integers(0, 256, size=rng.integers(0, 9), dtype=np.uint8))
            use_res = bool(rng.integers(0, 2))
            h = header(blocks=nblocks, seed=int(rng.integers(0, 2**64, dtype=np.uint64)))
            data = pack(h, blocks, residual=residual if use_res else None)
            h2, blocks2, res2 = unpack(data)
            assert blocks2 == blocks
            assert h2.seed == h.seed
            assert h2.block_count == nblocks
            assert res2 == (residual if use_res else None)

    def test_empty_block_list(self):
        # No image has zero patches: such a header cannot be built, and a
        # hand-built header-only file is malformed.
        with pytest.raises(UsageError):
            header(blocks=0)
        data = pack(header(), [(0,)])[:HEADER_SIZE]
        with pytest.raises(FormatError):
            unpack(relabel(data, 0, 8, 0))

    def test_block_count_mismatch(self):
        with pytest.raises(UsageError):
            pack(header(blocks=2), [(0,)])

    def test_index_overflows_radix(self):
        with pytest.raises(UsageError):
            pack(header(), [(37,)])


class TestCorruptInput:
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
        for bit in range(1, 8):
            mutated = bytearray(data)
            mutated[5] ^= 1 << bit
            with pytest.raises(FormatError):
                unpack(bytes(mutated))

    def test_writes_version_2_reads_both(self):
        data = bytearray(pack(header(), [(1,)]))
        assert data[4] == 2
        data[4] = 1
        assert unpack(bytes(data))[0].version == 1

    @pytest.mark.parametrize(
        "width,height,blocks",
        [(16, 16, 1), (8, 8, 4), (9, 8, 1), (17, 17, 4), (0, 8, 0), (8, 0, 0), (0, 0, 1)],
    )
    def test_block_count_must_tile_image(self, width, height, blocks):
        n = max(blocks, 1)
        data = pack(header(blocks=n), [(1,)] * n)
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

    def test_residual_count_must_be_pixel_count(self):
        data = pack(header(), [(1,)], residual=b"\x07")
        count_at = len(data) - 5
        assert data[count_at:-1] == (8 * 8).to_bytes(4, "little")
        assert unpack(data)[2] == b"\x07"
        for count in (0, 63, 65, 2**32 - 1):
            bad = data[:count_at] + count.to_bytes(4, "little") + data[-1:]
            with pytest.raises(CorruptStreamError, match="residual count"):
                unpack(bad)

    def test_residual_section_shorter_than_count(self):
        data = pack(header(), [(1,)], residual=b"")
        for cut in range(1, 5):
            with pytest.raises(CorruptStreamError, match="count field"):
                unpack(data[:-cut])

    def test_trailing_bytes(self):
        data = pack(header(), [(1,)])
        with pytest.raises(CorruptStreamError):
            unpack(data + b"\x00")

    def test_nonzero_padding_rejected(self):
        # A 5-bit index packed into a byte: set a padding bit above M^K.
        data = bytearray(pack(header(epsilon=0.0), [(0,)]))
        data[-1] = 0xFF  # value 255 >= 21^1
        with pytest.raises(CorruptStreamError):
            unpack(bytes(data))

    def test_zero_step_block_rejected(self):
        data = bytearray(pack(header(), [(1,)]))
        data[HEADER_SIZE] = 0  # varint K = 0
        with pytest.raises(CorruptStreamError):
            unpack(bytes(data))

    def test_invalid_header_params(self):
        data = bytearray(pack(header(), [(1,)]))
        data[14:22] = np.float64(-1.0).tobytes()  # omega field
        with pytest.raises(FormatError):
            unpack(bytes(data))

    def test_denormal_omega_rejected(self):
        # Flipping the top exponent bit of omega yields a denormal where
        # exp() rounds to 1, i.e. M = 1 and zero-width index payloads; the
        # parser must reject it instead of misreading garbage step counts.
        data = bytearray(pack(header(), [(1,)]))
        data[21] ^= 1 << 6
        with pytest.raises(FormatError):
            unpack(bytes(data))

    def test_bit_flip_fuzz_never_crashes(self):
        data = pack(header(blocks=2), [(3, 1, 4), (1, 5)])
        baseline = unpack(data)
        for pos in range(8 * len(data)):
            mutated = bytearray(data)
            mutated[pos // 8] ^= 1 << (pos % 8)
            try:
                h, blocks, res = unpack(bytes(mutated))
            except (FormatError, CorruptStreamError):
                continue
            assert (h, blocks, res) != baseline


class TestCodelengthReport:
    def test_thirty_nat_block(self):
        h = header(latent=16)
        blocks = [(0,) * 10]  # K = 10 at omega 3, KL 30
        report = codelength_report(h, blocks, [30.0])
        assert report["payload_bits"] == 53
        assert report["varint_bits"] == 8
        assert report["ideal_bits"] == pytest.approx(43.2808, abs=1e-3)
        assert report["overhead_ratio"] == pytest.approx(1.224, abs=1e-2)

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
