import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haina.chain import (
    BLOCK_OVERHEAD,
    Block,
    build_chain,
    deserialize_block,
    serialize_block,
    serialized_size,
)
from haina.errors import UsageError
from haina.locking import lock_chain

from oracles import verify_chain

H = lambda b: hashlib.sha256(b).digest()


def test_single_payload_self_referential():
    chain = build_chain([b"P"])
    block = chain[0]
    assert block.previous_hash == block.current_hash == block.next_hash == H(b"P")


def test_three_payloads_pointers():
    chain = build_chain([b"A", b"B", b"C"])
    b1, b2, b3 = chain
    assert b2.previous_hash == H(b"A")
    assert b2.current_hash == H(b"B")
    assert b2.next_hash == H(b"C")
    assert b1.previous_hash == H(b"C")
    assert b3.next_hash == H(b"A")


def test_empty_payload_list_rejected():
    with pytest.raises(UsageError):
        build_chain([])


def test_empty_payload_rejected():
    with pytest.raises(UsageError):
        build_chain([b"ok", b""])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.binary(min_size=1, max_size=64), min_size=2, max_size=64),
)
def test_build_then_verify_is_clean(payloads):
    assert verify_chain(build_chain(payloads)) == []


def _with_data(chain, index, data):
    blocks = list(chain)
    old = blocks[index]
    blocks[index] = Block(old.previous_hash, old.current_hash, old.next_hash, data)
    return tuple(blocks)


def test_tamper_locality_three_blocks():
    chain = build_chain([b"A", b"B", b"C"])
    flipped = bytes([chain[1].data[0] ^ 1])
    tampered = _with_data(chain, 1, flipped)
    violations = set(verify_chain(tampered))
    assert violations == {(1, "current"), (0, "next"), (2, "previous")}


@pytest.mark.parametrize("m,i", [(2, 0), (4, 3), (7, 2)])
def test_tamper_locality_wraps_mod_m(m, i):
    chain = build_chain([bytes([j + 1]) * 4 for j in range(m)])
    tampered = _with_data(chain, i, b"\xee" * 4)
    violations = set(verify_chain(tampered))
    assert violations == {
        (i, "current"),
        ((i - 1) % m, "next"),
        ((i + 1) % m, "previous"),
    }


def test_single_field_corruption():
    chain = build_chain([b"A", b"B", b"C"])
    blocks = list(chain)
    b1 = blocks[0]
    blocks[0] = Block(b1.previous_hash, b1.current_hash, b"\x00" * 32, b1.data)
    assert verify_chain(blocks) == [(0, "next")]


def test_circularity_m_hops_return():
    payloads = [bytes([j + 1]) * 8 for j in range(6)]
    chain = build_chain(payloads)
    by_address = {b.current_hash: b for b in chain}
    for start in chain:
        cursor = start
        for _ in range(len(chain)):
            cursor = by_address[cursor.next_hash]
        assert cursor is start
        cursor = start
        for _ in range(len(chain)):
            cursor = by_address[cursor.previous_hash]
        assert cursor is start


def test_content_address_is_data_hash_and_lock_invariant():
    chain = build_chain([b"A", b"B"])
    block = chain[0]
    assert block.current_hash == H(b"A")
    locked = lock_chain(chain, b"\x55" * 32)
    assert locked[0].current_hash == block.current_hash


def test_equal_data_equal_address():
    c1 = build_chain([b"same", b"other"])
    c2 = build_chain([b"same", b"third"])
    assert c1[0].current_hash == c2[0].current_hash


def test_block_serialization_roundtrip():
    chain = build_chain([b"hello", b"world"])
    block = chain[1]
    raw = serialize_block(block)
    assert len(raw) == serialized_size(block)
    assert raw[:32] == block.previous_hash
    assert raw[96:104] == len(block.data).to_bytes(8, "big")
    back = deserialize_block(raw)
    assert back == block


@pytest.mark.parametrize("wrap", [bytes, bytearray])
def test_deserialized_data_is_a_read_only_view_of_the_buffer(wrap):
    raw = wrap(serialize_block(build_chain([b"hello", b"world"])[0]))
    block = deserialize_block(raw)
    assert block.data.readonly and block.data.obj is raw and block.data == b"hello"
    assert all(type(p) is bytes for p in (block.previous_hash, block.current_hash, block.next_hash))


def test_deserialize_rejects_bad_length():
    raw = serialize_block(build_chain([b"x"])[0])
    with pytest.raises(UsageError):
        deserialize_block(raw + b"z")
    with pytest.raises(UsageError):
        deserialize_block(raw[:50])


def test_deserialize_rejects_an_empty_data_domain():
    empty = serialize_block(build_chain([b"x"])[0])[:BLOCK_OVERHEAD - 8] + bytes(8)
    with pytest.raises(UsageError, match="data domain must be non-empty"):
        deserialize_block(empty)
