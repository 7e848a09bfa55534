"""Attacks on the pointer mask, the file key and placement, as tests.

Each test plays one attack with honest code and test wrappers only, and
asserts that it fails.  An attack that works today is marked
`xfail(strict=True, raises=AssertionError)`: only the attack's own
assertion may fail, and the suite fails once the attack stops working,
so the change that closes it must take the mark off.
"""

import random

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from haina import hashing
from haina.chain import deserialize_block
from haina.client import download, upload
from haina.crypto import CIPHER_BLOCK, CIPHER_KEY_SIZE, KEY_SIZE, decrypt_file, extract_key_shards, shard_sizes
from haina.errors import HainaError
from haina.experiments import ClusterSpec, build_cluster
from haina.frames import Frame, MsgType
from haina.locking import unlock_block

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


def _get_block(net, nf, origin, address):
    """A block as any client can fetch it: one GET_BLOCK to every roster node; None if no reply hashes to `address`."""
    query = Frame(MsgType.GET_BLOCK, {"address": address.hex()})
    for result in net.exchange(origin, [(node, query) for node in nf.addresses]):
        if not isinstance(result, HainaError) and result[0].type is MsgType.BLOCK_DATA:
            block = deserialize_block(result[0].body)
            if hashing.digest(block.data) == address:
                return block
    return None


def _rebuild(net, nf, observer, own, asked):
    """The file `observer` rebuilds from its stored blocks `own`, the addresses `asked` of it, and GET_BLOCKs.

    It has no meta file.  Returns None where a step finds nothing.
    """
    blocks = {block.current_hash: block for block in own}
    for address in asked - blocks.keys():
        block = _get_block(net, nf, observer, address)
        if block is not None:
            blocks[address] = block
    # one (asked address, stored pointer) pair XORs to the mask: it is the
    # candidate under which the most next pointers open to a known block
    candidates = {_xor(a, p) for block in own for p in (block.previous_hash, block.next_hash) for a in asked}
    if not candidates:
        return None
    mask = max(candidates, key=lambda m: sum(_xor(b.next_hash, m) in blocks for b in blocks.values()))
    unlocked = {address: unlock_block(block, mask) for address, block in blocks.items()}
    # the header is the one block no HAS_BLOCK asked about, and so the one pointed to but unknown
    header = {b.next_hash for b in unlocked.values()} - unlocked.keys()
    if len(header) != 1:
        return None
    (address,) = header
    block = _get_block(net, nf, observer, address)
    if block is None:
        return None
    unlocked[address] = unlock_block(block, mask)
    chain = [unlocked[address]]
    while chain[-1].next_hash != address:
        if chain[-1].next_hash not in unlocked or len(chain) == len(unlocked):
            return None
        chain.append(unlocked[chain[-1].next_hash])
    sizes = shard_sizes(KEY_SIZE, len(chain))
    key = extract_key_shards([bytes(b.data[:k]) for b, k in zip(chain, sizes)])
    ciphertext = bytearray(b"".join(b.data[k:] for b, k in zip(chain, sizes)))
    # a file whose length is a multiple of 16 ends in a padding block of sixteen 0x10 bytes:
    # its keystream block is the enciphered counter, and counting back gives the IV
    keystream = _xor(ciphertext[-CIPHER_BLOCK:], bytes([CIPHER_BLOCK]) * CIPHER_BLOCK)
    counter = Cipher(algorithms.SM4(key[:CIPHER_KEY_SIZE]), modes.ECB()).decryptor().update(keystream)
    iv = (int.from_bytes(counter, "big") - len(ciphertext) // CIPHER_BLOCK + 1) % 2**128
    try:
        decrypt_file(ciphertext, key, iv.to_bytes(CIPHER_BLOCK, "big"))
    except HainaError:
        return None
    return ciphertext


@_attack("P-observer: a roster node rebuilds a downloaded file from the HAS_BLOCKs it was asked; closed by item 3")
def test_a_roster_node_cannot_rebuild_a_file_it_saw_downloaded():
    net, nf, services, cfg = build_cluster(ClusterSpec(nodes=8, latency_ms=5.0, seed=1))
    file = random.Random(1).randbytes(6400)
    report = upload(file, 20, cfg, nf, net, seed=1)
    observer = nf.addresses[-1]
    own = _stored_blocks(services[observer])
    if not own:
        pytest.fail("the observer should hold blocks of the file")
    curious = _LogsAskedAddresses(services[observer])
    net.add_node(observer, curious)
    if download(report.meta, nf, net).data != file:
        pytest.fail("the download itself went wrong")
    rebuilt = _rebuild(net, nf, observer, own, curious.asked) == file
    assert not rebuilt, "the observer rebuilt the file"


class _Colludes:
    """Byzantine node: names only its partner as a candidate, and claims room for anything in every election."""

    def __init__(self, service, partner):
        self.service = service
        self.partner = partner

    def handle(self, frame):
        if frame.type is MsgType.ELECTION:
            return Frame(MsgType.TAKEPART, {"freespace": str(10**18)})
        reply = self.service.handle(frame)
        if reply.type is MsgType.STORE_ACK and "candidates" in reply.header:
            reply = Frame(reply.type, {**reply.header, "candidates": self.partner}, reply.body)
        return reply


@_attack("P-steer: two colluders that name only each other take most of a file; closed by item 12")
def test_two_colluders_hold_no_more_than_the_rate_allows():
    held = []
    for seed in range(1, 11):
        net, nf, services, cfg = build_cluster(ClusterSpec(nodes=47, latency_ms=5.0, jitter_ms=1.0, seed=seed))
        colluders = nf.addresses[:2]
        for node, partner in zip(colluders, reversed(colluders)):
            net.add_node(node, _Colludes(services[node], partner))
        file = random.Random(seed).randbytes(64 * 1024)
        report = upload(file, 64, cfg, nf, net, seed=seed)
        if download(report.meta, nf, net).data != file:
            pytest.fail("the download itself went wrong")
        held.append(sum(node in colluders for node in report.placements))
    # at rate 0.1 one node may hold 6 of 64 blocks (7 / 64 > 0.1), so two may hold 12
    assert max(held) <= 12, f"the colluders held {held} of 64 blocks"
