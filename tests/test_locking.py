import random

import pytest

from haina.chain import build_chain, content_address, verify_chain
from haina.crypto import generate_mask
from haina.errors import UsageError
from haina.locking import lock_chain, unlock_block, unlock_chain, unlock_pointers


def test_lock_unlock_roundtrip_bytewise():
    chain = build_chain([b"A", b"B", b"C"])
    mask = generate_mask(random.Random(1))
    assert unlock_chain(lock_chain(chain, mask), mask) == chain


def test_lock_is_bitwise_xor():
    chain = build_chain([b"A"])
    locked = lock_chain(chain, b"\x0f" * 32)
    expected = bytes(b ^ 0x0F for b in chain.blocks[0].previous_hash)
    assert locked.blocks[0].previous_hash == expected


def test_locked_pointers_differ_from_unlocked():
    rng = random.Random(2)
    for _ in range(20):
        chain = build_chain([rng.randbytes(rng.randint(1, 30)) for _ in range(rng.randint(1, 8))])
        mask = generate_mask(rng)
        locked = lock_chain(chain, mask)
        for before, after in zip(chain.blocks, locked.blocks):
            assert after.previous_hash != before.previous_hash
            assert after.next_hash != before.next_hash
            assert after.current_hash == before.current_hash


def test_zero_mask_rejected():
    with pytest.raises(UsageError):
        lock_chain(build_chain([b"a"]), b"\x00" * 32)


def test_unlock_restores_chain_law():
    chain = build_chain([b"a", b"b", b"c", b"d"])
    mask = generate_mask(random.Random(3))
    unlocked = unlock_chain(lock_chain(chain, mask), mask)
    assert verify_chain(unlocked) == []


def test_unlock_pointers_does_not_mutate():
    chain = build_chain([b"a", b"b"])
    mask = b"\x11" * 32
    locked = lock_chain(chain, mask)
    block = locked.blocks[0]
    prev, nxt = unlock_pointers(block, mask)
    assert prev == chain.blocks[0].previous_hash
    assert nxt == chain.blocks[0].next_hash
    assert block.previous_hash != prev  # stored form untouched


def test_single_block_unlocks_to_self():
    chain = build_chain([b"solo"])
    mask = generate_mask(random.Random(4))
    block = lock_chain(chain, mask).blocks[0]
    prev, nxt = unlock_pointers(block, mask)
    assert prev == nxt == block.current_hash


def test_wrong_mask_resolves_nowhere():
    rng = random.Random(5)
    chain = build_chain([rng.randbytes(16) for _ in range(6)])
    addresses = {content_address(b) for b in chain.blocks}
    mask = generate_mask(rng)
    wrong = generate_mask(rng)
    assert wrong != mask
    for block in lock_chain(chain, mask).blocks:
        prev, nxt = unlock_pointers(block, wrong)
        assert prev not in addresses
        assert nxt not in addresses


def test_anti_traverse_locked_pointers_outside_address_set():
    # A stolen locked block alone gives no usable neighbor address.
    rng = random.Random(6)
    for _ in range(50):
        m = rng.randint(2, 10)
        chain = build_chain([rng.randbytes(rng.randint(4, 40)) for _ in range(m)])
        addresses = {content_address(b) for b in chain.blocks}
        mask = generate_mask(rng)
        for block in lock_chain(chain, mask).blocks:
            assert block.previous_hash not in addresses
            assert block.next_hash not in addresses
            prev, nxt = unlock_pointers(block, mask)
            assert prev in addresses and nxt in addresses


def test_unlock_block_returns_unlocked_copy():
    chain = build_chain([b"x", b"y"])
    mask = b"\x42" * 32
    locked = lock_chain(chain, mask)
    back = unlock_block(locked.blocks[1], mask)
    assert back == chain.blocks[1]
