"""User-side orchestration: upload placement and bidirectional recovery.

Upload runs the whole pre-processing pipeline, places block after
block through the election protocol, checks each store's STORE_ACK
against the block's SHA-256 content address, and emits the meta file.
Download walks the stored chain from the header block with one cursor
(forward) or two (forward and backward), copying each block's key shard
and ciphertext slice into place as it arrives, then decrypts the one
ciphertext buffer in place.
"""

import math
import random
import time
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

from . import frames, hashing
from .chain import BLOCK_OVERHEAD, build_chain, chain_root, deserialize_block, serialize_block, serialized_size
from .crypto import (
    CIPHER_BLOCK,
    KEY_SIZE,
    ciphertext_size,
    decrypt_file,
    embed_key_shards,
    encrypt_file,
    extract_key_shards,
    generate_key,
    generate_mask,
    shard_sizes,
    split_ciphertext,
)
from .errors import (
    HainaError,
    IncompleteChainError,
    IntegrityError,
    NetworkError,
    ParseError,
    UsageError,
)
from .frames import Frame, MsgType
from .locking import lock_chain, unlock_block
from .metafile import MetaFile
from .nodefile import NodeFile
from .por import PorConfig, check_rate, check_store, pick_first_beginner
from .resolve import resolve

USER_ADDRESS = "user:0"
MAX_STORE_RETRIES = 3  # failed stores (an ERROR reply, no reply, a bad STORE_ACK) tolerated per block
# a walk keeps each position's unlocked pointer domain: previous || current || next
_PREVIOUS, _CURRENT, _NEXT = (slice(i * hashing.DIGEST_SIZE, (i + 1) * hashing.DIGEST_SIZE) for i in range(3))


def _pointer_domain(block) -> bytes:
    """A block's pointers as one string: previous || current || next."""
    return block.previous_hash + block.current_hash + block.next_hash


@dataclass
class UploadReport:
    meta: MetaFile
    placements: list  # block index (0-based) -> node address
    decision_ms: list  # per-block campaign duration at the beginner
    transfer_ms: list  # per-block store round-trip minus the campaign
    stage_ms: dict  # wall-clock: encrypt, chain_build
    escalations: list  # (block index, new rate)
    block_sizes: list  # serialized block sizes


@dataclass
class FetchResult:
    pointers: list  # unlocked pointer domains by chain position; None where no cursor got through
    rounds: int
    missing: list  # the targets of the stopped cursors whose position stayed empty, each once


@dataclass
class DownloadReport:
    data: bytearray  # the decryption buffer itself; compares equal to bytes
    fetch_ms: float  # transport.now() from before the header fetch to the end of the walk
    rounds: int
    stage_ms: dict  # header_fetch on transport.now(); decrypt wall-clock


def _place_block(transport, node, block, next_size, elect, cfg, nf):
    """Store one block on `node`: returns (candidates or None, campaign ms, rtt).

    Raises the HainaError that failed the store: NetworkError for a
    refused connect, a timeout or any reply but STORE_ACK (a failed
    campaign is an ERROR); IntegrityError for a `stored` digest that
    fails `check_store`; ParseError for a malformed `campaign_ms` or a
    missing or bad candidate list.  Every candidate must be another
    roster member: a beginner that named itself would hold two
    neighbouring blocks, and so the mask.
    """
    header = {"next_size": str(next_size), "elect": "1" if elect else "0"}
    frame = Frame(MsgType.STORE_READY, header, serialize_block(block))
    # a store round-trip nests the campaign, so it needs headroom
    ack, rtt = transport.request(USER_ADDRESS, node, frame, cfg.timeout_ms * 4)
    if ack.type is not MsgType.STORE_ACK:
        reason = ack.header.get("reason", ack.type.name)
        raise NetworkError(f"store on {node} rejected: {reason}")
    if not check_store(ack, block.current_hash):
        raise IntegrityError(f"{node} failed the storage check")
    try:
        campaign_ms = float(ack.header.get("campaign_ms", "0") or 0)
        if not 0 <= campaign_ms < math.inf:
            raise ValueError
    except ValueError:
        raise ParseError("campaign_ms", "not a finite non-negative number") from None
    if not elect:
        return None, campaign_ms, rtt
    if "candidates" not in ack.header:
        raise ParseError("candidates", f"beginner {node} returned none")
    candidates = tuple(ack.header["candidates"].split(","))
    followers = set(nf.addresses)  # a set: the tuple's linear scans cost more than building it
    followers.discard(node)
    for address in candidates:
        if address not in followers:
            raise ParseError("candidates", f"{address!r} is not a follower on the roster")
    return candidates, campaign_ms, rtt


def upload(
    file: bytes,
    n: int,
    cfg: PorConfig,
    nf: NodeFile,
    transport,
    rng=None,
    seed: int = None,
) -> UploadReport:
    """Encrypt, shard, chain, lock, and place a file on the cluster.

    With `seed` (or an explicit `rng`) the whole run is reproducible:
    the 32-byte file key, the mask, the IV and the first-beginner draws
    all come from the injected randomness, in that order.  Without
    either, every draw comes from the OS entropy source.  One seed gives
    every file the same key and IV, and so the same SM4-CTR keystream.

    A store fails on any error `_place_block` raises: an ERROR reply
    (a failed campaign among them), a refused connect or a timeout, a
    STORE_ACK that fails `check_store`, or a malformed one; the block
    then moves to an untried node, chosen as on the first try.  A node
    whose store failed is passed over for the rest of the upload while
    any other untried candidate is left.  Past MAX_STORE_RETRIES retries
    of one block, or with no untried node left, upload raises the last
    attempt's error, its message prefixed with the block and the attempt
    count.
    """
    if not file:
        raise UsageError("cannot upload an empty file")
    if len(nf) < 2:
        raise UsageError("storage needs at least 2 nodes in the roster")
    if rng is None:
        rng = random.SystemRandom() if seed is None else random.Random(seed)

    t0 = time.perf_counter()
    key = generate_key(rng)
    mask = generate_mask(rng)
    iv = rng.randbytes(CIPHER_BLOCK)
    domains = embed_key_shards(split_ciphertext(ciphertext_size(len(file)), n), key)
    encrypt_file(file, key, iv, domains)  # the data domains are the only copy of the ciphertext
    encrypt_ms = (time.perf_counter() - t0) * 1000.0

    t0 = time.perf_counter()
    blocks = build_chain(domains)
    del domains  # from here each data domain lives in its block alone
    if len({b.current_hash for b in blocks}) < n:
        # content addressing cannot tell identical data domains apart;
        # only degenerate slice sizes (a few bytes) can collide
        raise UsageError(
            f"block count {n} produces duplicate block contents for this file; "
            "choose a smaller block count"
        )
    root, header_digest = chain_root(b.current_hash for b in blocks), blocks[0].current_hash
    blocks = list(lock_chain(blocks, mask))  # a list, so a stored block's slot can be cleared
    chain_ms = (time.perf_counter() - t0) * 1000.0

    sizes = [serialized_size(b) for b in blocks]
    # SimNet never encodes frames, so check the TCP frame cap before any block is
    # placed: the largest frame is the largest block's BLOCK_DATA
    largest = sizes.index(max(sizes))
    total = frames.block_data_size(sizes[largest])
    if total > frames.MAX_FRAME:
        raise UsageError(
            f"block {largest + 1} needs a {total}-byte frame, over the {frames.MAX_FRAME}-byte cap; "
            "choose a larger block count"
        )
    counts = Counter()  # the paper's provisional records: blocks per node in this event, dropped with it
    placements, decision_ms, transfer_ms, escalations = [], [], [], []
    rate = cfg.rate
    candidates = nf.addresses  # the nodes that may hold the current block
    shunned = set()  # the nodes a store of this upload failed on

    for i, block in enumerate(blocks):
        elect = i < n - 1
        failed = set()  # the nodes this block's store failed on
        while True:
            # every try picks an untried node the same way: a roster draw for
            # block 0, the fairness check over the election's candidates after it
            if i == 0:
                current = pick_first_beginner(nf, rng.getrandbits(32))
                while current in failed:
                    current = pick_first_beginner(nf, rng.getrandbits(32))
            else:
                untried = [a for a in candidates if a not in failed] if failed else candidates  # no copy on a first try
                # a node that failed an earlier block goes last: only when no other untried candidate is left
                fresh = [a for a in untried if a not in shunned] if shunned else untried
                current, rate, escalated = check_rate(fresh or untried, counts, n, rate, cfg.rate)
                if escalated:
                    escalations.append((i, rate))
            try:
                elected, campaign_ms, rtt = _place_block(transport, current, block, sizes[(i + 1) % n], elect, cfg, nf)
                break
            except HainaError as error:
                failed.add(current)
                shunned.add(current)
                if len(failed) > MAX_STORE_RETRIES or failed.issuperset(candidates):
                    # the last error's class, field and exit code, with the block and the attempt count
                    error.args = (f"block {i + 1} not stored after {len(failed)} attempts; the last: {error}",)
                    raise
        # stored and checked: drop the client's copy, so client and nodes hold the file once
        blocks[i] = block = None
        counts[current] += 1
        placements.append(current)
        decision_ms.append(campaign_ms)
        transfer_ms.append(rtt - campaign_ms)
        if elect:
            candidates = elected
            if i == n - 2 and len(candidates) > 1:
                # the last block neighbours block 0 on the circle: a node holding
                # both would hold H(last) and H(last) xor mask, and so the mask
                candidates = [a for a in candidates if a != placements[0]]

    meta = MetaFile(
        first_beginner=placements[0],
        header_digest=header_digest,
        mask=mask,
        block_count=n,
        iv=iv,
        file_length=len(file),
        chain_root=root,
    )
    return UploadReport(
        meta=meta,
        placements=placements,
        decision_ms=decision_ms,
        transfer_ms=transfer_ms,
        stage_ms={"encrypt": encrypt_ms, "chain_build": chain_ms},
        escalations=escalations,
        block_sizes=sizes,
    )


def _fetch(transport, addresses, holders, timeout_ms):
    """Fetch each content address from its holders' node addresses, in one exchange.

    `holders[i]` lists the nodes to ask for `addresses[i]`; every holder
    of every address gets its GET_BLOCK at once, and no exchange is made
    when no address has a holder.  A reply counts only if it is
    BLOCK_DATA, deserializes, and both its data domain's digest and its
    `current_hash` (from which the chain root is computed) equal its
    address; each address keeps the first such reply in holder order.
    Returns one locked Block per address, or None where no holder served it.
    """
    blocks = [None] * len(addresses)
    asked = [(i, node) for i, nodes in enumerate(holders) for node in nodes]
    if not asked:
        return blocks
    queries = [(node, Frame(MsgType.GET_BLOCK, {"address": addresses[i].hex()})) for i, node in asked]
    for (i, _), result in zip(asked, transport.exchange(USER_ADDRESS, queries, timeout_ms)):
        if blocks[i] is not None or isinstance(result, HainaError) or result[0].type is not MsgType.BLOCK_DATA:
            continue
        try:
            block = deserialize_block(result[0].body)
        except UsageError:
            continue
        if hashing.digest(block.data) == addresses[i] == block.current_hash:
            blocks[i] = block
    return blocks


def _fetch_chain(meta: MetaFile, header, fetcher, cursors, keep) -> FetchResult:
    """Walk the chain from the header's unlocked pointer domain with a list of (position, step) cursors.

    Each block the walk fetches is unlocked and handed to `keep(position,
    block)`; the walk then holds only its pointer domain, `pointers[p]` for
    chain position p (`header` is position 0's).  A cursor with step 1
    fills p from p-1's next pointer, one with step -1 from p+1's previous
    pointer.  Each round drops the cursors whose position is filled and
    hands the others' distinct target addresses, in cursor order, to
    `fetcher`, which returns one locked Block or None per address.  A
    cursor that got its block fills its position and steps on; one that
    did not stops.
    """
    n = meta.block_count
    pointers = [header] + [None] * (n - 1)
    cursors = [(p % n, step) for p, step in cursors]
    stopped = []  # (position, target) of each cursor that did not get its block
    rounds = 0
    while True:
        walking = []  # (position, step, target, the target's index in the fetcher's list)
        asked = {}
        for p, step in cursors:
            if pointers[p] is None:
                target = pointers[p - 1][_NEXT] if step == 1 else pointers[(p + 1) % n][_PREVIOUS]
                walking.append((p, step, target, asked.setdefault(target, len(asked))))
        if not walking:
            break
        got = fetcher(list(asked))
        cursors = []
        for p, step, target, i in walking:
            if got[i] is None:
                stopped.append((p, target))
            elif pointers[p] is None:  # an earlier cursor of this round may have filled p
                block = unlock_block(got[i], meta.mask)
                keep(p, block)
                pointers[p] = _pointer_domain(block)
                cursors.append(((p + step) % n, step))
        got = block = None  # this round's blocks go before the next round's arrive
        rounds += 1
    missing = list(dict.fromkeys(target for p, target in stopped if pointers[p] is None))
    return FetchResult(pointers=pointers, rounds=rounds, missing=missing)


def bdam_fetch(meta: MetaFile, header: bytes, fetcher, keep) -> FetchResult:
    """Concurrent forward and backward cursor fetch of the full chain."""
    return _fetch_chain(meta, header, fetcher, [(1, 1), (meta.block_count - 1, -1)], keep)


def unidirectional_fetch(meta: MetaFile, header: bytes, fetcher, keep) -> FetchResult:
    """Baseline: forward cursor only."""
    return _fetch_chain(meta, header, fetcher, [(1, 1)], keep)


def download(
    meta: MetaFile,
    nf: NodeFile,
    transport,
    mode: str = "bi",
    timeout_ms: float = 1000.0,
) -> DownloadReport:
    """Recover a file from the cluster using its meta file.

    `mode` is "bi" (both cursors) or "uni" (forward only); both produce
    identical bytes, only the fetch timing differs.  Every fetch time is
    a `transport.now()` difference: virtual on the simulator, wall on
    sockets.
    """
    if mode not in ("bi", "uni"):
        raise UsageError(f"mode must be 'bi' or 'uni', not {mode!r}")
    n = meta.block_count
    # position p's ciphertext slice is buf[bounds[p] : bounds[p + 1]]
    bounds = list(accumulate(shard_sizes(ciphertext_size(meta.file_length), n), initial=0))
    shard_lengths = shard_sizes(KEY_SIZE, n)
    if frames.block_data_size(BLOCK_OVERHEAD + shard_lengths[0] + bounds[1]) > frames.MAX_FRAME:
        # checked before the buffer is allocated: no block that could be served holds so long a slice
        raise ParseError("file_length", f"{n} blocks under the frame cap cannot hold {meta.file_length} bytes")
    shards = [None] * n
    buf = bytearray(bounds[-1])  # the ciphertext
    view = memoryview(buf)  # the slices are copied through it: a bytearray's own slice assignment copies twice

    def keep(p, block):
        # the block's key shard and ciphertext slice go to their places, and the block is dropped
        data, k, start, end = block.data, shard_lengths[p], bounds[p], bounds[p + 1]
        if len(data) != k + end - start:
            raise IntegrityError(f"block {p + 1} has {len(data)} data bytes, not the {k + end - start} its layout gives")
        shards[p] = bytes(data[:k])
        view[start:end] = data[k:]

    def fetcher(addresses):
        # one HAS_BLOCK broadcast for the whole round, then its GET_BLOCKs at once
        return _fetch(transport, addresses, resolve(transport, USER_ADDRESS, addresses, nf, timeout_ms), timeout_ms)

    # header block: ask the recorded first beginner, fall back to resolution
    start = transport.now()
    header = [meta.header_digest]
    (header_block,) = _fetch(transport, header, [[meta.first_beginner]], timeout_ms)
    if header_block is None:
        (header_block,) = fetcher(header)
        if header_block is None:
            raise IncompleteChainError(header)
    header_ms = transport.now() - start
    header_block = unlock_block(header_block, meta.mask)
    keep(0, header_block)
    header_pointers = _pointer_domain(header_block)
    del header_block  # the walk starts from the pointers alone

    fetch = bdam_fetch if mode == "bi" else unidirectional_fetch
    result = fetch(meta, header_pointers, fetcher, keep)
    fetch_ms = transport.now() - start
    if result.missing:
        raise IncompleteChainError(result.missing)
    if chain_root(p[_CURRENT] for p in result.pointers) != meta.chain_root:
        # every block matches its address, but a holder that knows the mask can forge pointers
        raise IntegrityError("the fetched blocks are not the chain the meta file records")

    view.release()  # decrypt_file cuts the buffer to the file, which a live view would forbid
    t0 = time.perf_counter()
    decrypt_file(buf, extract_key_shards(shards), meta.iv)
    decrypt_ms = (time.perf_counter() - t0) * 1000.0
    if len(buf) != meta.file_length:
        raise IntegrityError(f"recovered {len(buf)} bytes but the meta file records {meta.file_length}")

    return DownloadReport(
        data=buf,
        fetch_ms=fetch_ms,
        rounds=result.rounds,
        stage_ms={"header_fetch": header_ms, "decrypt": decrypt_ms},
    )


def speedup(bi_ms: float, uni_ms: float) -> float:
    """Fractional time saved by the bidirectional fetch: 1 - bi/uni."""
    if uni_ms <= 0:
        raise UsageError("baseline time must be positive")
    return 1.0 - bi_ms / uni_ms
