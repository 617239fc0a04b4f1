"""The IREC container: header, block payloads, optional residual.

It depends on no codec type: a block's code is a plain tuple of ints. pack
writes version 3; unpack reads versions 1, 2 and 3. See docs/FORMAT.md for
the hex-annotated example.

Version 3 (version byte 0x83) stores only what the decoder cannot derive:

* magic "IREC", the version byte, flags u8 (bit 0 = residual section
  present; bits 1-7 are reserved, never written, and rejected with
  FormatError), seed as LEB128 varint, omega f64, epsilon f64, model_id u64
  (little-endian), image_width and image_height as varints, K_min as a
  varint and the K field width w as u8. The block count is the image's
  tile count and the latent dimension is the model's.
* one bitstream, MSB first: each block's K - K_min in w bits, then each
  block's index tuple, the mixed-radix integer sum_k i_k * M^k in
  ceil(K * log2(M)) bits, zero-padded once to a byte boundary.
* if flags bit 0 is set, the residual coder's bytes (residual.py), up to
* a CRC32 of everything before it, u32 little-endian. unpack checks it
  before it trusts any other field.

Versions 1 and 2 (version byte 1 or 2; it names the step schedule, see
chain.py) have a 54-byte header that also holds block_count and latent_dim,
one byte-padded payload per block with K as a varint, and a residual count.

pack and both parsers share one rule set (ContainerHeader, _check_steps,
_check_room, k_field, _write_bits/_read_bits): pack refuses what breaks a rule
with UsageError, unpack with FormatError or CorruptStreamError.
"""

from __future__ import annotations

import math
import operator
import struct
import zlib
from dataclasses import dataclass

from .chain import K_MAX, samples_per_step
from .errors import ConfigError, CorruptStreamError, FormatError, UsageError
from .model import tile_grid

MAGIC = b"IREC"
# Version 1 files use the power-law step schedule, versions 2 and 3 the
# equal-KL schedule. pack writes VERSION; unpack accepts all three.
VERSION = 3
VERSIONS = (1, 2, 3)
# Bit 7 marks the checksummed layout: 0x83 is two bit flips away from both 1
# and 2, so no single flip hands a version-3 file to the unchecked parser.
VERSION_BYTE = 0x80 | VERSION
FLAG_RESIDUAL = 0x01

# Versions 1 and 2.
_HEADER = struct.Struct("<4sBBQddQIIII")
HEADER_SIZE = _HEADER.size
# Version 3: omega, epsilon and model_id sit between the seed and the sides.
_PARAMS = struct.Struct("<ddQ")
_CRC = struct.Struct("<I")

_LN2 = math.log(2.0)
# The header's integer fields and their widths; block_count is derived.
_FIELD_BITS = (
    ("seed", 64),
    ("model_id", 64),
    ("image_width", 32),
    ("image_height", 32),
)


def _check_uint(name: str, value, bits: int) -> None:
    try:
        value = operator.index(value)
    except TypeError:
        raise UsageError(f"{name} must be an integer, got {value!r}") from None
    if not 0 <= value < 1 << bits:
        raise UsageError(f"{name} {value} out of u{bits} range")


@dataclass(frozen=True)
class ContainerHeader:
    seed: int
    omega: float
    epsilon: float
    model_id: int
    image_width: int
    image_height: int
    # A field of versions 1 and 2 only; in version 3 model_id fixes it.
    latent_dim: int | None = None
    version: int = VERSION

    def __post_init__(self):
        if self.version not in VERSIONS:
            raise UsageError(f"unsupported version {self.version}")
        for name, bits in _FIELD_BITS:
            _check_uint(name, getattr(self, name), bits)
        if self.version == VERSION:
            if self.latent_dim is not None:
                raise UsageError(f"version {VERSION} stores no latent_dim")
        else:
            _check_uint("latent_dim", self.latent_dim, 32)
        if self.image_width == 0 or self.image_height == 0:
            raise UsageError(f"empty image {self.image_width}x{self.image_height}")
        _check_uint("block_count", self.block_count, 32)
        # Validates omega/epsilon and the index width bound.
        samples_per_step(self.omega, self.epsilon)

    @property
    def M(self) -> int:
        return samples_per_step(self.omega, self.epsilon)

    @property
    def block_count(self) -> int:
        """One block per 8x8 tile of the image."""
        rows, cols = tile_grid(self.image_width, self.image_height)
        return rows * cols


def write_varint(n: int) -> bytes:
    if n < 0:
        raise UsageError("varint must be nonnegative")
    out = bytearray()
    while True:
        byte = n & 0x7F
        n >>= 7
        out.append(byte | (0x80 if n else 0))
        if not n:
            return bytes(out)


def read_varint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CorruptStreamError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise CorruptStreamError("varint too long")


def index_bits(k: int, m: int) -> int:
    """ceil(K * log2(M)): the packed width of one block's index tuple."""
    if k < 1 or m < 1:
        raise UsageError("k and m must be >= 1")
    return (m**k - 1).bit_length()


def k_field(blocks: list[tuple[int, ...]]) -> tuple[int, int]:
    """(K_min, w): version 3 codes each block's K as K - K_min in w bits."""
    ks = [len(t) for t in blocks]
    return min(ks), (max(ks) - min(ks)).bit_length()


def _check_steps(k: int, error=CorruptStreamError) -> None:
    """The step-count rule of every version: 1 <= K <= K_MAX."""
    if k < 1:
        raise error("block step count must be >= 1")
    if k > K_MAX:
        raise error(f"block step count {k} exceeds K_MAX = {K_MAX}")


def _check_room(k_bits: int, steps: int, m: int, data, pos: int) -> None:
    """Reject k_bits and `steps` steps that overrun data[pos:], before any M**K or list of K."""
    if k_bits + steps * (m.bit_length() - 1) > 8 * (len(data) - pos):
        raise CorruptStreamError("truncated block payload")


def _write_bits(fields: list[tuple[int, int]]) -> bytes:
    """(value, width) fields MSB first, zero-padded once to a byte boundary."""
    bits = "".join([bin(value | 1 << width)[3:] for value, width in fields])
    return (int(bits, 2) << -len(bits) % 8).to_bytes((len(bits) + 7) // 8, "big")


def _read_bits(data, pos: int, widths: list[int]) -> tuple[list[int], int]:
    """Fields of these widths at data[pos:], as _write_bits wrote them, and their end."""
    end = pos + (sum(widths) + 7) // 8
    if end > len(data):
        raise CorruptStreamError("truncated block payload")
    bits = bin(int.from_bytes(data[pos:end], "big") | 1 << 8 * (end - pos))
    values, i = [], 3  # i: the next bit of bits, past "0b1"
    for width in widths:
        values.append(int(bits[i : i + width] or "0", 2))
        i += width
    return values, end


def pack(
    header: ContainerHeader,
    blocks: list[tuple[int, ...]],
    residual: bytes | None = None,
) -> bytes:
    """Serialize a version-3 container; a residual (coder bytes) sets the residual flag."""
    if header.version != VERSION:
        raise UsageError(f"pack writes version {VERSION} only, got {header.version}")
    if header.block_count != len(blocks):
        raise UsageError(
            f"block_count {header.block_count} != number of blocks {len(blocks)}"
        )
    m = header.M
    k_min, width = k_field(blocks)
    # (value, width) of each bitstream field: the K offsets, then the tuples.
    fields = [(len(tup) - k_min, width) for tup in blocks]
    for tup in blocks:
        _check_steps(len(tup), UsageError)
        value = 0
        for idx in map(int, reversed(tup)):
            if not 0 <= idx < m:
                raise UsageError(f"index {idx} overflows radix {m}")
            value = value * m + idx
        fields.append((value, index_bits(len(tup), m)))
    out = bytearray(MAGIC)
    out += bytes((VERSION_BYTE, 0 if residual is None else FLAG_RESIDUAL))
    out += write_varint(header.seed)
    out += _PARAMS.pack(header.omega, header.epsilon, header.model_id)
    out += write_varint(header.image_width) + write_varint(header.image_height)
    out += write_varint(k_min) + bytes((width,))
    out += _write_bits(fields)
    if residual is not None:
        out += residual
    out += _CRC.pack(zlib.crc32(out))
    return bytes(out)


def unpack(data: bytes) -> tuple[ContainerHeader, list[tuple[int, ...]], bytes | None]:
    """Parse a container of any version; exact inverse of pack on valid input."""
    if len(data) < 6:
        raise FormatError("container shorter than header")
    if data[:4] != MAGIC:
        raise FormatError(f"bad magic {bytes(data[:4])!r}")
    if data[4] == VERSION_BYTE:
        return _unpack_v3(data)
    if data[4] in (1, 2):
        return _unpack_v2(data)
    raise FormatError(f"unsupported version byte {data[4]:#04x}")


def _check_flags(flags: int) -> None:
    if flags & ~FLAG_RESIDUAL:
        raise FormatError(f"reserved flag bits set in {flags:#04x}")


def _header(**fields) -> ContainerHeader:
    try:
        return ContainerHeader(**fields)
    except (UsageError, ConfigError) as exc:
        raise FormatError(str(exc)) from exc


def _unpack_v3(data: bytes):
    if len(data) < 6 + _CRC.size:
        raise FormatError("container shorter than header")
    body = memoryview(data)[: -_CRC.size]
    (crc,) = _CRC.unpack_from(data, len(body))
    if zlib.crc32(body) != crc:
        raise CorruptStreamError("CRC32 mismatch")
    _check_flags(data[5])
    seed, pos = read_varint(body, 6)
    if pos + _PARAMS.size > len(body):
        raise CorruptStreamError("truncated header")
    omega, epsilon, model_id = _PARAMS.unpack_from(body, pos)
    width, pos = read_varint(body, pos + _PARAMS.size)
    height, pos = read_varint(body, pos)
    k_min, pos = read_varint(body, pos)
    if pos >= len(body):
        raise CorruptStreamError("truncated header")
    width_k = body[pos]
    pos += 1
    header = _header(
        seed=seed, omega=omega, epsilon=epsilon, model_id=model_id,
        image_width=width, image_height=height,
    )
    m, n = header.M, header.block_count
    _check_room(n * width_k, n * k_min, m, body, pos)
    _check_steps(k_min)
    ks = [k_min + offset for offset in _read_bits(body, pos, [width_k] * n)[0]]
    _check_steps(max(ks))
    _check_room(n * width_k, sum(ks), m, body, pos)
    index_widths = {k: index_bits(k, m) for k in set(ks)}
    # The K field again as one field, then the tuples and the padding.
    widths = [n * width_k] + [index_widths[k] for k in ks]
    (_, *values, pad), pos = _read_bits(body, pos, widths + [-sum(widths) % 8])
    if pad:
        raise CorruptStreamError("nonzero padding bits")
    blocks = [_digits(value, k, m) for value, k in zip(values, ks)]
    if k_field(blocks) != (k_min, width_k):
        raise CorruptStreamError("K field not canonical")

    residual = None
    if data[5] & FLAG_RESIDUAL:
        residual = bytes(body[pos:])
    elif pos != len(body):
        raise CorruptStreamError("trailing bytes after last block")
    return header, blocks, residual


def _digits(value: int, k: int, m: int) -> tuple[int, ...]:
    """The index tuple of a packed value, least significant digit first."""
    indices = []
    for _ in range(k):
        value, idx = divmod(value, m)
        indices.append(idx)
    if value:
        # value >= M^K: out-of-range digits or, in versions 1 and 2, nonzero
        # padding bits.
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
        _check_steps(k)
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

    varint_bits counts the version-3 K field, w bits per block (see
    k_field); the key keeps the name it had when each K was a varint.
    """
    m = header.M
    payload_bits = sum(index_bits(len(t), m) for t in blocks)
    varint_bits = len(blocks) * k_field(blocks)[1]
    ideal_bits = sum(kl_nats) / _LN2
    overhead = payload_bits / ideal_bits if ideal_bits > 0 else math.inf
    return {
        "payload_bits": payload_bits,
        "varint_bits": varint_bits,
        "ideal_bits": ideal_bits,
        "overhead_ratio": overhead,
    }
