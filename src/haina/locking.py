"""Pointer locking: XOR the neighbor pointers of every block with a mask.

A locked block's previous/next pointers are useless without the mask,
so a stolen block cannot be used to walk the chain.  The current-hash
(content address) is left untouched so locked blocks stay retrievable
by content addressing.  XOR is its own inverse, so unlocking is the
same operation.
"""

from .chain import Block
from .errors import UsageError

MASK_SIZE = 32


def _xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(MASK_SIZE, "big")


def lock_chain(blocks, mask: bytes) -> tuple:
    """Return the blocks with masked neighbor pointers; the same call unlocks them."""
    if len(mask) != MASK_SIZE or not any(mask):
        raise UsageError(f"mask must be {MASK_SIZE} bytes and nonzero")
    return tuple(unlock_block(b, mask) for b in blocks)


def unlock_block(block: Block, mask: bytes) -> Block:
    """Toggle one block's neighbor pointers under the mask, as a new block.

    A wrong mask simply yields digests that resolve nowhere; that is the
    security property, not an error.
    """
    if len(mask) != MASK_SIZE:
        raise UsageError(f"mask must be {MASK_SIZE} bytes, got {len(mask)}")
    return Block(_xor(block.previous_hash, mask), block.current_hash, _xor(block.next_hash, mask), block.data)
