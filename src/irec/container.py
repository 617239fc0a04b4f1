"""The IREC container: header, block payloads, optional residual.

It depends on no codec type: a block's code is a plain tuple of ints. pack writes
version 5; unpack reads versions 1 to 5. docs/FORMAT.md has annotated examples.

Versions 3 to 5 (0x83 to 0x85) store only what the decoder cannot derive: a
header (seed, omega, epsilon, model_id, image sides, the K field's varint or
two), one MSB-first bitstream (the K field, then each block's index tuple as
the integer sum_k i_k * M^k in ceil(K * log2(M)) bits, zero-padded once),
the residual coder's bytes (residual.py) if flags bit 0 is set, and a CRC32
that unpack checks first. Versions 4 and 5 store omega and epsilon as varint
counts of thousandths, not f64, and code K as zigzag(K - c) in unary
(flags bit 1) where that is shorter than K - K_min in w bits. Version 5
stores the low 32 bits of model_id, and a varint byte count before the
residual coder's bytes; it also draws every block at one address (FORMAT.md §4).

Versions 1 and 2 (version byte 1 or 2; it names the step schedule, see
chain.py) have a 54-byte header that also holds block_count and latent_dim,
one byte-padded payload per block with K as a varint, and a residual count.

pack and the parsers share one rule set (ContainerHeader, whose integer
fields take stream.check_int; chain.check_steps and chain.check_code;
_check_room, k_field, _write_bits/_read_bits): pack refuses what breaks a
rule with UsageError, unpack with FormatError or CorruptStreamError. pack
also refuses an omega or epsilon that is not a whole number of thousandths.
"""

from __future__ import annotations

import math
import struct
import zlib
from bisect import bisect_left
from dataclasses import dataclass, field

from .chain import check_code, check_steps, samples_per_step
from .errors import ConfigError, CorruptStreamError, FormatError, UsageError
from .model import tile_grid
from .stream import check_int

MAGIC = b"IREC"
# Version 1 files use the power-law step schedule, versions 2 to 5 the
# equal-KL schedule. pack writes VERSION; unpack accepts all five.
VERSION = 5
VERSIONS = (1, 2, 3, 4, 5)
# Bit 7 marks the checksummed layout: 0x83 to 0x85 are two or more bit flips
# from 1 and 2, so no single flip hands such a file to an unchecked parser.
# 0x84 and 0x85 are one flip apart, which is safe: the CRC32 covers the
# version byte and is checked before any other field, so that flip is a
# CRC32 mismatch, never a file read by the other version's rules.
VERSION_BYTE = 0x80 | VERSION
FLAG_RESIDUAL = 0x01
FLAG_PREFIX = 0x02  # versions 4 and 5: the K field is prefix-coded

# Versions 1 and 2.
_HEADER = struct.Struct("<4sBBQddQIIII")
HEADER_SIZE = _HEADER.size
_MODEL_ID = {3: struct.Struct("<Q"), 4: struct.Struct("<Q"), 5: struct.Struct("<I")}
_CRC = struct.Struct("<I")

_LN2 = math.log(2.0)
# _value and _digits take one step per digit up to this many digits.
_DIGIT_LOOP = 32
# The header's integer fields (name, least value, bits); block_count is derived.
_FIELD_BITS = (
    ("seed", 0, 64),
    ("model_id", 0, 64),
    ("image_width", 1, 32),
    ("image_height", 1, 32),
)


@dataclass(frozen=True)
class ContainerHeader:
    seed: int
    omega: float
    epsilon: float
    model_id: int  # in version 5, its low 32 bits (model_check)
    image_width: int
    image_height: int
    # A field of versions 1 and 2 only; from version 3 on model_id fixes it.
    latent_dim: int | None = None
    version: int = VERSION
    # Derived in __post_init__: samples per step and one block per 8x8 tile.
    M: int = field(init=False)
    block_count: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "version", check_int("version", self.version))
        if self.version not in VERSIONS:
            raise UsageError(f"unsupported version {self.version}")
        if self.version >= 3 and self.latent_dim is not None:
            raise UsageError(f"version {self.version} stores no latent_dim")
        fields = _FIELD_BITS if self.version >= 3 else _FIELD_BITS + (("latent_dim", 0, 32),)
        for name, lo, bits in fields:
            object.__setattr__(self, name, check_int(name, getattr(self, name), lo, (1 << bits) - 1))
        object.__setattr__(self, "model_id", model_check(self.model_id, self.version))
        rows, cols = tile_grid(self.image_width, self.image_height)
        object.__setattr__(self, "block_count", check_int("block_count", rows * cols, 0, 2**32 - 1))
        # Validates omega/epsilon and the index width bound.
        object.__setattr__(self, "M", samples_per_step(self.omega, self.epsilon))


def model_check(model_id: int, version: int) -> int:
    """What a file of this version stores of a model_id: in version 5 its low 32 bits."""
    return model_id & 0xFFFFFFFF if version == 5 else model_id


def thousandths(name: str, value: float) -> int:
    """The n with n / 1000 == value, the double of n thousandths written out; else UsageError."""
    if not abs(value) < 2**53 or round(value * 1000) / 1000 != value:  # NaN fails too
        raise UsageError(f"{name} must be a whole number of thousandths, got {value!r}")
    return round(value * 1000)


def write_varint(n: int) -> bytes:
    n = check_int("varint", n)
    out = bytearray()
    while True:
        byte = n & 0x7F
        n >>= 7
        out.append(byte | (0x80 if n else 0))
        if not n:
            return bytes(out)


def read_varint(data: bytes, pos: int) -> tuple[int, int]:
    if pos < len(data) and data[pos] < 0x80:  # one byte, as most of the header's are
        return data[pos], pos + 1
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CorruptStreamError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if not byte:  # a last byte of 0 after the first: the same value is shorter
                raise CorruptStreamError("overlong varint")
            return result, pos
        shift += 7
        if shift > 63:
            raise CorruptStreamError("varint too long")


def index_bits(k: int, m: int) -> int:
    """ceil(K * log2(M)): the packed width of one block's index tuple."""
    k, m = check_int("k", k, 1), check_int("m", m, 1)
    return (m**k - 1).bit_length()


def k_field(ks: list[int], prefix: bool = True) -> tuple:
    """The canonical K field of blocks of these K: (c, K_min, w, its bits in the bitstream).

    Fixed width (c = None) codes K - K_min in w = bitlength(K_max - K_min) bits; versions 4
    and 5 code zigzag(K - c) in unary around the lower median c (K_min = w = None) where that and
    its c varint take fewer bits than fixed width and its K_min varint and u8 w."""
    s = sorted(ks)
    n, k_min, centre = len(s), s[0], s[(len(s) - 1) // 2]
    width = (s[-1] - k_min).bit_length()
    b = bisect_left(s, centre)  # the b K below c take 2(c - K) bits, the rest 2(K - c) + 1
    unary = 2 * (sum(s) - 2 * sum(s[:b]) - centre * (n - 2 * b)) - b + n
    fixed = 8 * -(-k_min.bit_length() // 7) + 8 + n * width  # a K_min varint, a u8 w, the bits
    if prefix and 8 * -(-centre.bit_length() // 7) + unary < fixed:
        return centre, None, None, unary
    return None, k_min, width, n * width


def _check_room(k_bits: int, steps: int, m: int, data, pos: int) -> None:
    """Reject k_bits and `steps` steps that overrun data[pos:], before any M**K or list of K."""
    if k_bits + steps * (m.bit_length() - 1) > 8 * (len(data) - pos):
        raise CorruptStreamError("truncated block payload")


def _write_bits(fields: list[tuple[int, int]]) -> bytes:
    """(value, width) fields MSB first, zero-padded once to a byte boundary."""
    bits = "".join([bin(value | 1 << width)[3:] for value, width in fields])
    return (int(bits, 2) << -len(bits) % 8).to_bytes((len(bits) + 7) // 8, "big")


def _read_bits(data, pos: int, widths: list[int], unary: int = 0) -> tuple[list[int], int]:
    """Fields of these widths at data[pos:], as _write_bits wrote them, and their end;
    or, with unary = n, n unary codes instead, each read as its one bits before a zero."""
    end = len(data) if unary else pos + (sum(widths) + 7) // 8
    if end > len(data):
        raise CorruptStreamError("truncated block payload")
    bits = bin(int.from_bytes(data[pos:end], "big") | 1 << 8 * (end - pos))
    values, i = [], 3  # i: the next bit of bits, past "0b1"
    if unary:  # each code is a run of one bits and its zero bit
        values = [len(run) for run in bits[3:].split("0", unary)[:unary]]
        i += sum(values) + unary
        if i > len(bits):
            raise CorruptStreamError("truncated block payload")
    for width in widths:
        values.append(int(bits[i : i + width] or "0", 2))
        i += width
    return values, pos + (i + 4) // 8


def pack(
    header: ContainerHeader,
    blocks: list[tuple[int, ...]],
    residual: bytes | None = None,
) -> bytes:
    """Serialize a version-5 container; a residual (coder bytes) sets the residual flag."""
    if header.version != VERSION:
        raise UsageError(f"pack writes version {VERSION} only, got {header.version}")
    if header.block_count != len(blocks):
        raise UsageError(
            f"block_count {header.block_count} != number of blocks {len(blocks)}"
        )
    m = header.M
    ks = [len(tup) for tup in blocks]
    centre, k_min, width, _ = k_field(ks)
    # (value, width) of each bitstream field: the K field, then the tuples.
    if centre is None:
        fields = [(k - k_min, width) for k in ks]
    else:  # zigzag(K - c) one bits, then a zero bit
        zigzag = (max(2 * (k - centre), 2 * (centre - k) - 1) for k in ks)
        fields = [((2 << z) - 2, z + 1) for z in zigzag]
    for tup in blocks:
        tup = check_code(tup, m, UsageError)
        fields.append((_value(tup, m), index_bits(len(tup), m)))
    flags = FLAG_RESIDUAL * (residual is not None) | FLAG_PREFIX * (centre is not None)
    out = bytearray(MAGIC) + bytes((VERSION_BYTE, flags))
    out += write_varint(header.seed)
    out += write_varint(thousandths("omega", header.omega))
    out += write_varint(thousandths("epsilon", header.epsilon))
    out += _MODEL_ID[VERSION].pack(header.model_id)
    out += write_varint(header.image_width) + write_varint(header.image_height)
    out += write_varint(k_min) + bytes((width,)) if centre is None else write_varint(centre)
    out += _write_bits(fields)
    if residual is not None:
        out += write_varint(len(residual)) + residual
    out += _CRC.pack(zlib.crc32(out))
    return bytes(out)


def unpack(data: bytes) -> tuple[ContainerHeader, list[tuple[int, ...]], bytes | None]:
    """Parse a container of any version; exact inverse of pack on valid input."""
    if len(data) < 6:
        raise FormatError("container shorter than header")
    if data[:4] != MAGIC:
        raise FormatError(f"bad magic {bytes(data[:4])!r}")
    if 0x83 <= data[4] <= VERSION_BYTE:
        return _unpack_checked(data)
    if data[4] in (1, 2):
        return _unpack_v2(data)
    raise FormatError(f"unsupported version byte {data[4]:#04x}")


def _check_flags(flags: int, allowed: int = FLAG_RESIDUAL) -> None:
    if flags & ~allowed:
        raise FormatError(f"reserved flag bits set in {flags:#04x}")


def _header(**fields) -> ContainerHeader:
    try:
        return ContainerHeader(**fields)
    except (UsageError, ConfigError) as exc:
        raise FormatError(str(exc)) from exc


def _unpack_checked(data: bytes):
    """Versions 3 to 5, the checksummed layout."""
    if len(data) < 6 + _CRC.size:
        raise FormatError("container shorter than header")
    body = memoryview(data)[: -_CRC.size]
    (crc,) = _CRC.unpack_from(data, len(body))
    if zlib.crc32(body) != crc:
        raise CorruptStreamError("CRC32 mismatch")
    version, flags = data[4] & 0x7F, data[5]
    _check_flags(flags, FLAG_RESIDUAL | FLAG_PREFIX * (version >= 4))
    seed, pos = read_varint(body, 6)
    if version == 3:  # omega and epsilon as f64
        if pos + 16 > len(body):
            raise CorruptStreamError("truncated header")
        omega, epsilon = struct.unpack_from("<dd", body, pos)
        pos += 16
    else:
        omega, pos = read_varint(body, pos)
        epsilon, pos = read_varint(body, pos)
        omega, epsilon = omega / 1000, epsilon / 1000
    field = _MODEL_ID[version]
    if pos + field.size > len(body):
        raise CorruptStreamError("truncated header")
    (model_id,) = field.unpack_from(body, pos)
    width, pos = read_varint(body, pos + field.size)
    height, pos = read_varint(body, pos)
    header = _header(
        seed=seed, omega=omega, epsilon=epsilon, model_id=model_id,
        image_width=width, image_height=height, version=version,
    )
    m, n = header.M, header.block_count
    centre = k_min = width_k = None
    if flags & FLAG_PREFIX:
        centre, pos = read_varint(body, pos)
        # Codes past 16 + 12n bits are refused unread: no canonical field is that long.
        runs = _read_bits(body[: pos + 2 + (3 * n + 1) // 2], pos, [], unary=n)[0]
        ks, k_bits = [centre + (z >> 1 ^ -(z & 1)) for z in runs], n + sum(runs)
        check_steps(min(ks), CorruptStreamError)
    else:
        k_min, pos = read_varint(body, pos)
        if pos >= len(body):
            raise CorruptStreamError("truncated header")
        width_k = body[pos]
        pos += 1
        k_bits = n * width_k
        _check_room(k_bits, n * k_min, m, body, pos)
        check_steps(k_min, CorruptStreamError)
        ks = [k_min + offset for offset in _read_bits(body, pos, [width_k] * n)[0]]
    check_steps(max(ks), CorruptStreamError)
    _check_room(k_bits, sum(ks), m, body, pos)
    index_widths = {k: index_bits(k, m) for k in set(ks)}
    # The K field again as one field, then the tuples and the padding.
    widths = [k_bits] + [index_widths[k] for k in ks]
    (_, *values, pad), pos = _read_bits(body, pos, widths + [-sum(widths) % 8])
    if pad:
        raise CorruptStreamError("nonzero padding bits")
    blocks = [_digits(value, k, m) for value, k in zip(values, ks)]
    if k_field(ks, version >= 4)[:3] != (centre, k_min, width_k):
        raise CorruptStreamError("K field not canonical")

    residual = None
    if flags & FLAG_RESIDUAL:
        if version == 5:  # the section's byte count, then the section
            length, pos = read_varint(body, pos)
            if length != len(body) - pos:
                raise CorruptStreamError(
                    f"residual length {length} != {len(body) - pos} bytes before the CRC32")
        residual = bytes(body[pos:])
    elif pos != len(body):
        raise CorruptStreamError("trailing bytes after last block")
    return header, blocks, residual


def _value(indices, m: int) -> int:
    """The packed value of an index tuple, its first index least significant.

    The inverse of _digits, split the same way: value = low + M^(K//2) * high.
    """
    k = len(indices)
    if k > _DIGIT_LOOP:
        return _value(indices[: k // 2], m) + m ** (k // 2) * _value(indices[k // 2 :], m)
    value = 0
    for idx in reversed(indices):
        value = value * m + idx
    return value


def _digits(value: int, k: int, m: int) -> tuple[int, ...]:
    """The index tuple of a packed value, least significant digit first.

    A long tuple is split at M^(K//2) and each half recursed into, so it costs
    a few divisions of long ints rather than one per digit.
    """
    if k > _DIGIT_LOOP:
        high, low = divmod(value, m ** (k // 2))
        return _digits(low, k // 2, m) + _digits(high, k - k // 2, m)
    indices = []
    for _ in range(k):
        value, idx = divmod(value, m)
        indices.append(idx)
    if value:
        # value >= M^K: out-of-range digits or, in versions 1 and 2, nonzero
        # padding bits (a split hands any excess to its high half).
        raise CorruptStreamError("block payload exceeds index range")
    return tuple(indices)


def _unpack_v2(data: bytes):
    if len(data) < HEADER_SIZE:
        raise FormatError("container shorter than header")
    (
        _,
        version,
        flags,
        seed,
        omega,
        epsilon,
        model_id,
        block_count,
        latent_dim,
        width,
        height,
    ) = _HEADER.unpack_from(data)
    _check_flags(flags)
    header = _header(
        seed=seed, omega=omega, epsilon=epsilon, model_id=model_id,
        image_width=width, image_height=height, latent_dim=latent_dim, version=version,
    )
    if block_count != header.block_count:
        raise FormatError(
            f"block_count {block_count} does not tile a {width}x{height} image"
        )
    m = header.M

    pos = HEADER_SIZE
    blocks = []
    for _ in range(block_count):
        k, pos = read_varint(data, pos)
        check_steps(k, CorruptStreamError)
        _check_room(0, k, m, data, pos)
        (value,), pos = _read_bits(data, pos, [8 * ((index_bits(k, m) + 7) // 8)])
        blocks.append(_digits(value, k, m))

    residual = None
    if flags & FLAG_RESIDUAL:
        if len(data) - pos < 4:
            raise CorruptStreamError("residual section shorter than its count field")
        count = int.from_bytes(data[pos : pos + 4], "little")
        if count != width * height:
            raise CorruptStreamError(f"residual count {count} != pixel count {width * height}")
        residual = bytes(data[pos + 4 :])
    elif pos != len(data):
        raise CorruptStreamError("trailing bytes after last block")
    return header, blocks, residual


def codelength_report(
    header: ContainerHeader,
    blocks: list[tuple[int, ...]],
    kl_nats: list[float],
) -> dict:
    """Payload accounting against the ideal KL codelength (encoder side).

    varint_bits counts the K field's bits in the bitstream as written, in either
    coding (k_field); the key keeps the name it had when each K was a varint.
    """
    m = header.M
    payload_bits = sum(index_bits(len(t), m) for t in blocks)
    varint_bits = k_field([len(t) for t in blocks])[3]
    ideal_bits = sum(kl_nats) / _LN2
    overhead = payload_bits / ideal_bits if ideal_bits > 0 else math.inf
    return {
        "payload_bits": payload_bits,
        "varint_bits": varint_bits,
        "ideal_bits": ideal_bits,
        "overhead_ratio": overhead,
    }
