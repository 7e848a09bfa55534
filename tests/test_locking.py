import random

import pytest

from haina.chain import build_chain
from haina.crypto import generate_mask
from haina.errors import UsageError
from haina.locking import lock_chain, unlock_block

from oracles import verify_chain


def test_lock_unlock_roundtrip_bytewise():
    chain = build_chain([b"A", b"B", b"C"])
    mask = generate_mask(random.Random(1))
    assert lock_chain(lock_chain(chain, mask), mask) == chain


def test_lock_is_bitwise_xor():
    chain = build_chain([b"A"])
    locked = lock_chain(chain, b"\x0f" * 32)
    expected = bytes(b ^ 0x0F for b in chain[0].previous_hash)
    assert locked[0].previous_hash == expected


def test_locked_pointers_differ_from_unlocked():
    rng = random.Random(2)
    for _ in range(20):
        chain = build_chain([rng.randbytes(rng.randint(1, 30)) for _ in range(rng.randint(1, 8))])
        mask = generate_mask(rng)
        locked = lock_chain(chain, mask)
        for before, after in zip(chain, locked):
            assert after.previous_hash != before.previous_hash
            assert after.next_hash != before.next_hash
            assert after.current_hash == before.current_hash


def test_zero_mask_rejected():
    with pytest.raises(UsageError):
        lock_chain(build_chain([b"a"]), b"\x00" * 32)


@pytest.mark.parametrize("size", [0, 31, 33])
def test_wrong_mask_length_rejected(size):
    chain = build_chain([b"a", b"b"])
    with pytest.raises(UsageError):
        lock_chain(chain, b"\x01" * size)
    with pytest.raises(UsageError):
        unlock_block(chain[0], b"\x01" * size)


def test_unlock_restores_chain_law():
    chain = build_chain([b"a", b"b", b"c", b"d"])
    mask = generate_mask(random.Random(3))
    unlocked = lock_chain(lock_chain(chain, mask), mask)
    assert verify_chain(unlocked) == []


def test_unlock_block_does_not_mutate():
    chain = build_chain([b"a", b"b"])
    mask = b"\x11" * 32
    locked = lock_chain(chain, mask)
    block = locked[0]
    back = unlock_block(block, mask)
    assert back.previous_hash == chain[0].previous_hash
    assert back.next_hash == chain[0].next_hash
    assert block.previous_hash != back.previous_hash  # stored form untouched


def test_single_block_unlocks_to_self():
    chain = build_chain([b"solo"])
    mask = generate_mask(random.Random(4))
    block = lock_chain(chain, mask)[0]
    back = unlock_block(block, mask)
    assert back.previous_hash == back.next_hash == block.current_hash


def test_wrong_mask_resolves_nowhere():
    rng = random.Random(5)
    chain = build_chain([rng.randbytes(16) for _ in range(6)])
    addresses = {b.current_hash for b in chain}
    mask = generate_mask(rng)
    wrong = generate_mask(rng)
    assert wrong != mask
    for block in lock_chain(chain, mask):
        back = unlock_block(block, wrong)
        assert back.previous_hash not in addresses
        assert back.next_hash not in addresses


def test_anti_traverse_locked_pointers_outside_address_set():
    # A stolen locked block alone gives no usable neighbor address.
    rng = random.Random(6)
    for _ in range(50):
        m = rng.randint(2, 10)
        chain = build_chain([rng.randbytes(rng.randint(4, 40)) for _ in range(m)])
        addresses = {b.current_hash for b in chain}
        mask = generate_mask(rng)
        for block in lock_chain(chain, mask):
            assert block.previous_hash not in addresses
            assert block.next_hash not in addresses
            back = unlock_block(block, mask)
            assert back.previous_hash in addresses and back.next_hash in addresses


def test_unlock_block_returns_unlocked_copy():
    chain = build_chain([b"x", b"y"])
    mask = b"\x42" * 32
    locked = lock_chain(chain, mask)
    back = unlock_block(locked[1], mask)
    assert back == chain[1]
