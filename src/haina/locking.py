"""Pointer locking: XOR the neighbor pointers of every block with a mask.

A locked block's previous/next pointers are useless without the mask,
so a stolen block cannot be used to walk the chain.  The current-hash
(content address) is left untouched so locked blocks stay retrievable
by content addressing.  XOR is its own inverse, so unlocking is the
same operation.
"""

from .chain import Block, Chain
from .errors import UsageError

MASK_SIZE = 32


def _xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(MASK_SIZE, "big")


def check_mask(mask: bytes) -> bytes:
    if len(mask) != MASK_SIZE:
        raise UsageError(f"mask must be {MASK_SIZE} bytes, got {len(mask)}")
    if not any(mask):
        raise UsageError("mask must be nonzero")
    return bytes(mask)


def lock_chain(chain: Chain, mask: bytes) -> Chain:
    """Return a copy of the chain with masked neighbor pointers."""
    check_mask(mask)
    return Chain(blocks=tuple(unlock_block(b, mask) for b in chain.blocks))  # the XOR is its own inverse


def unlock_chain(chain: Chain, mask: bytes) -> Chain:
    """Inverse of lock_chain: the same XOR."""
    return lock_chain(chain, mask)


def unlock_pointers(block: Block, mask: bytes):
    """Recover a locked block's neighbor content addresses without mutating it.

    Returns (previous, next).  A wrong mask simply yields digests that
    resolve nowhere; that is the security property, not an error.
    """
    if len(mask) != MASK_SIZE:
        raise UsageError(f"mask must be {MASK_SIZE} bytes, got {len(mask)}")
    return _xor(block.previous_hash, mask), _xor(block.next_hash, mask)


def unlock_block(block: Block, mask: bytes) -> Block:
    previous, nxt = unlock_pointers(block, mask)
    return Block(previous_hash=previous, current_hash=block.current_hash, next_hash=nxt, data=block.data)
