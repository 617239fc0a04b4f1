"""The IREC container: header, per-block index payloads, optional residual.

It depends on no codec type: a block's code is a plain tuple of ints.

Layout (see docs/FORMAT.md for the hex-annotated example):

* header, 54 bytes, little-endian: magic "IREC", version u8 (1 or 2; it
  names the step schedule, see chain.py), flags u8 (bit 0 = residual
  section present; bits 1-7 are reserved, never written, and rejected with
  FormatError), seed u64, omega f64, epsilon f64,
  model_id u64, block_count u32, latent_dim u32, image_width u32,
  image_height u32. ContainerHeader holds each header rule once (a known
  version, a nonempty image, valid omega/epsilon), so pack refuses a bad
  header with UsageError and unpack rejects it with FormatError. Its
  block_count is derived, model.tile_grid's tile count: pack writes it and
  unpack rejects a file whose field differs with FormatError.
* one block per latent: K as LEB128 varint, then the index tuple packed as
  the mixed-radix integer sum_k i_k * M^k written big-endian in
  ceil(K * log2(M)) bits, zero-padded up to a byte boundary.
* if flags bit 0 is set, the residual section fills the rest of the file: a
  u32 count, which pack writes and unpack checks to be width * height, then
  the residual coder's bytes, which are all that pack and unpack pass.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

from .chain import samples_per_step
from .errors import ConfigError, CorruptStreamError, FormatError, UsageError
from .model import tile_grid

MAGIC = b"IREC"
# Version 1 files use the power-law step schedule, version 2 the equal-KL
# schedule. pack writes VERSION; unpack accepts both.
VERSION = 2
VERSIONS = (1, 2)
FLAG_RESIDUAL = 0x01

_HEADER = struct.Struct("<4sBBQddQIIII")
HEADER_SIZE = _HEADER.size

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ContainerHeader:
    seed: int
    omega: float
    epsilon: float
    model_id: int
    latent_dim: int
    image_width: int
    image_height: int
    version: int = VERSION

    def __post_init__(self):
        if self.version not in VERSIONS:
            raise UsageError(f"unsupported version {self.version}")
        if self.image_width == 0 or self.image_height == 0:
            raise UsageError(f"empty image {self.image_width}x{self.image_height}")
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


def pack(
    header: ContainerHeader,
    blocks: list[tuple[int, ...]],
    residual: bytes | None = None,
) -> bytes:
    """Serialize a container; a residual (coder bytes) sets the residual flag."""
    if header.block_count != len(blocks):
        raise UsageError(
            f"block_count {header.block_count} != number of blocks {len(blocks)}"
        )
    m = header.M
    out = bytearray(
        _HEADER.pack(
            MAGIC,
            header.version,
            0 if residual is None else FLAG_RESIDUAL,
            header.seed,
            header.omega,
            header.epsilon,
            header.model_id,
            header.block_count,
            header.latent_dim,
            header.image_width,
            header.image_height,
        )
    )
    for tup in blocks:
        value = 0
        for idx in map(int, reversed(tup)):
            if not 0 <= idx < m:
                raise UsageError(f"index {idx} overflows radix {m}")
            value = value * m + idx
        out += write_varint(len(tup))
        out += value.to_bytes((index_bits(len(tup), m) + 7) // 8, "big")
    if residual is not None:
        out += (header.image_width * header.image_height).to_bytes(4, "little")
        out += residual
    return bytes(out)


def unpack(data: bytes) -> tuple[ContainerHeader, list[tuple[int, ...]], bytes | None]:
    """Parse a container; exact inverse of pack on valid input."""
    if len(data) < HEADER_SIZE:
        raise FormatError("container shorter than header")
    (
        magic,
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
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if flags & ~FLAG_RESIDUAL:
        raise FormatError(f"reserved flag bits set in {flags:#04x}")
    try:
        header = ContainerHeader(
            seed=seed,
            omega=omega,
            epsilon=epsilon,
            model_id=model_id,
            latent_dim=latent_dim,
            image_width=width,
            image_height=height,
            version=version,
        )
    except (UsageError, ConfigError) as exc:
        raise FormatError(str(exc)) from exc
    if block_count != header.block_count:
        raise FormatError(
            f"block_count {block_count} does not tile a {width}x{height} image"
        )
    m = header.M

    pos = HEADER_SIZE
    blocks = []
    for _ in range(block_count):
        k, pos = read_varint(data, pos)
        if k < 1:
            raise CorruptStreamError("block step count must be >= 1")
        # Cheap lower bound on the payload width; rejects absurd step counts
        # before index_bits evaluates m**k.
        if k * math.log2(m) > 8.0 * (len(data) - pos):
            raise CorruptStreamError("truncated block payload")
        nbytes = (index_bits(k, m) + 7) // 8
        if pos + nbytes > len(data):
            raise CorruptStreamError("truncated block payload")
        value = int.from_bytes(data[pos : pos + nbytes], "big")
        pos += nbytes
        if value >= m**k:
            # Covers both out-of-range digits and nonzero padding bits.
            raise CorruptStreamError("block payload exceeds index range")
        indices = []
        for _ in range(k):
            value, idx = divmod(value, m)
            indices.append(idx)
        blocks.append(tuple(indices))

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
    """Payload accounting against the ideal KL codelength (encoder side)."""
    m = header.M
    payload_bits = sum(index_bits(len(t), m) for t in blocks)
    varint_bits = sum(8 * len(write_varint(len(t))) for t in blocks)
    ideal_bits = sum(kl_nats) / _LN2
    overhead = payload_bits / ideal_bits if ideal_bits > 0 else math.inf
    return {
        "payload_bits": payload_bits,
        "varint_bits": varint_bits,
        "ideal_bits": ideal_bits,
        "overhead_ratio": overhead,
    }
