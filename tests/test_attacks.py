"""Attacks on the pointer mask, as tests.

Each test plays one attack with honest code and test wrappers only, and
asserts that it fails.  An attack that works today is marked
`xfail(strict=True, raises=AssertionError)`: only the attack's own
assertion may fail, and the suite fails once the attack stops working,
so the change that closes it must take the mark off.
"""

import random

import pytest

from haina import hashing
from haina.chain import deserialize_block
from haina.client import download, upload
from haina.experiments import ClusterSpec, build_cluster
from haina.frames import MsgType

from oracles import stored_addresses


def _attack(reason):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def _stored_blocks(service):
    """The locked blocks a node stores, as it stores them."""
    return [deserialize_block(service.store.get(address)) for address in stored_addresses(service.store)]


class _LogsAskedAddresses:
    """Curious node: honest in every reply, but keeps each address a HAS_BLOCK asks it about."""

    def __init__(self, service):
        self.service = service
        self.asked = set()

    def handle(self, frame):
        if frame.type is MsgType.HAS_BLOCK:
            for key in ("address", "address2"):
                if key in frame.header:
                    self.asked.add(bytes.fromhex(frame.header[key]))
        return self.service.handle(frame)


@_attack("P-leak: a HAS_BLOCK address XOR the locked pointer to it is the mask; closed by item 3")
def test_no_node_learns_the_mask_from_a_download():
    net, nf, services, cfg = build_cluster(ClusterSpec(nodes=8, latency_ms=5.0, seed=1))
    file = random.Random(1).randbytes(6400)
    report = upload(file, 20, cfg, nf, net, seed=1)
    curious = {address: _LogsAskedAddresses(services[address]) for address in nf.addresses}
    for address, node in curious.items():
        net.add_node(address, node)
    if download(report.meta, nf, net).data != file:
        pytest.fail("the download itself went wrong")
    leaks = [
        address
        for address, node in curious.items()
        for block in _stored_blocks(services[address])
        for pointer in (block.previous_hash, block.next_hash)
        for asked in node.asked
        if _xor(asked, pointer) == report.meta.mask
    ]
    assert not leaks, f"{len(set(leaks))} of {len(nf)} nodes can compute the mask"


@_attack("P-seam: the node holding both seam blocks XORs out the mask; closed by item 4")
def test_seam_holder_cannot_unlock_a_pointer_to_a_block_it_lacks():
    net, nf, services, cfg = build_cluster(ClusterSpec(nodes=2, latency_ms=5.0, seed=3))
    report = upload(random.Random(3).randbytes(900), 5, cfg, nf, net, seed=3)
    holder = report.placements[0]
    if report.placements[-1] != holder:
        pytest.fail("on 2 nodes with odd n the last block should share block 0's node")
    held = stored_addresses(services[holder].store)
    elsewhere = set().union(*(stored_addresses(s.store) for s in services.values())) - held
    # the holder knows only its own blocks: their locked pointers and their content addresses
    blocks = _stored_blocks(services[holder])
    pointers = [p for block in blocks for p in (block.previous_hash, block.next_hash)]
    guesses = {_xor(p, hashing.digest(block.data)) for p in pointers for block in blocks}
    opened = {_xor(p, guess) for p in pointers for guess in guesses} & elsewhere
    assert not opened, f"{len(opened)} addresses of blocks on other nodes unlocked"
