"""Bi-directional circular hash-linked chain of blocks.

Each block has a pointer domain (previous/current/next 256-bit digests)
and a data domain (raw payload bytes).  In the unlocked state the
pointers of block i are the data-domain hashes of blocks i-1, i, i+1
(indices mod chain length), so the chain forms a verifiable circle.

Only the data domain is hashed: a block's content address,
`current_hash`, is stable whether its neighbor pointers are locked or
not.  A chain is a tuple of blocks indexed by position.
"""

import struct
from dataclasses import dataclass

from . import hashing
from .errors import UsageError


@dataclass(frozen=True, slots=True)
class Block:
    previous_hash: bytes
    current_hash: bytes
    next_hash: bytes
    data: bytes  # any bytes-like: a bytearray on upload, a read-only view of the serialized block once parsed


def build_chain(payloads) -> tuple:
    """Build an unlocked circular chain over the given data-domain payloads.

    Returns the blocks as a tuple indexed by chain position.  Block i
    points backward to H(payload[i-1]) and forward to H(payload[i+1])
    with wrap-around, so a single payload yields a self-referential
    block.  The blocks hold the payloads themselves, not copies.
    """
    payloads = list(payloads)
    if not payloads:
        raise UsageError("cannot build a chain from an empty payload list")
    if any(len(p) == 0 for p in payloads):
        raise UsageError("every data-domain payload must be non-empty")

    digests = [hashing.digest(p) for p in payloads]
    m = len(payloads)
    return tuple(
        Block(
            previous_hash=digests[(i - 1) % m],
            current_hash=digests[i],
            next_hash=digests[(i + 1) % m],
            data=payloads[i],
        )
        for i in range(m)
    )


def chain_root(addresses) -> bytes:
    """The digest of the blocks' content addresses in position order: it pins the whole chain."""
    return hashing.digest(b"".join(addresses))


_LEN = struct.Struct(">Q")
_LEN_AT = 3 * hashing.DIGEST_SIZE  # the length field follows the pointer domain
BLOCK_OVERHEAD = _LEN_AT + _LEN.size  # pointer domain + length field: 104 bytes


def serialized_size(block: Block) -> int:
    """Length of `serialize_block(block)`, without building it."""
    return BLOCK_OVERHEAD + len(block.data)


def stated_size(buf, offset: int = 0) -> int:
    """Length of the serialized block at `offset` in `buf`, as its length field states it."""
    return BLOCK_OVERHEAD + _LEN.unpack_from(buf, offset + _LEN_AT)[0]


def serialize_block(block: Block) -> bytes:
    """Bit-exact wire/disk form: prev(32) || cur(32) || next(32) || len(8 BE) || data."""
    return b"".join(
        (
            block.previous_hash,
            block.current_hash,
            block.next_hash,
            _LEN.pack(len(block.data)),
            block.data,
        )
    )


def deserialize_block(raw) -> Block:
    """Parse a serialized block: the pointers are copied, the data is a read-only view of `raw`.

    The one check of a block's form, where its bytes arrive from a peer or
    the disk: a length field that frames `raw` exactly, and a non-empty
    data domain.
    """
    if len(raw) < BLOCK_OVERHEAD:
        raise UsageError(f"serialized block too short: {len(raw)} bytes")
    size = stated_size(raw)
    if len(raw) != size:
        raise UsageError(f"serialized block length mismatch: header says {size - BLOCK_OVERHEAD}")
    if size == BLOCK_OVERHEAD:
        raise UsageError("block data domain must be non-empty")
    view = memoryview(raw)
    return Block(
        previous_hash=bytes(view[0:32]),
        current_hash=bytes(view[32:64]),
        next_hash=bytes(view[64:96]),
        data=view[BLOCK_OVERHEAD:].toreadonly(),
    )
