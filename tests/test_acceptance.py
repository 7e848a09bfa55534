"""Acceptance suite: one criterion per test, one printed pass/fail line each.

These tests exercise the whole stack end to end on the simulated
cluster and pin the system-level guarantees: byte-exact round-trips,
anti-traverse locking, placement adjacency and fairness, fetch speedup,
decision latency, exact capacity accounting, and the core codec /
structure properties.
"""

import random
import time

import pytest

from haina.chain import Block, build_chain
from haina.client import download, upload
from haina.crypto import (
    KEY_SIZE,
    embed_key_shards,
    extract_key_shards,
    generate_mask,
    split_ciphertext,
)
from haina.errors import ParseError
from haina.experiments import ClusterSpec, build_cluster, run_experiment
from haina.frames import Frame, MsgType, decode_frame, encode_frame
from haina.locking import lock_chain, unlock_block
from haina.metafile import MetaFile, parse_meta_file, serialize_meta_file
from haina.metrics import rows_to_csv

from oracles import verify_chain


@pytest.fixture
def report(capfd):
    """Print one live pass/fail line per criterion, then assert."""

    def _report(name, ok, detail=""):
        with capfd.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        assert ok, f"{name}: {detail}"

    return _report


def _min_size(n):
    # smallest plaintext that gives every block a slice of >= 8 bytes, so
    # random data domains are unique and content addresses never collide
    return {1: 1, 2: 1, 4: 16, 20: 144, 64: 496}[n]


def test_round_trip_correctness(report):
    """>= 200 randomized upload/download round-trips, byte-exact, under 2 minutes."""
    rng = random.Random(2024)
    cases = [(1, 1), (1, 2), (144, 20), (496, 64), (4 * 1024 * 1024, 64), (4 * 1024 * 1024, 20)]
    while len(cases) < 200:
        n = rng.choice([1, 2, 4, 20, 64])
        size = max(_min_size(n), int(2 ** rng.uniform(0, 22)))
        cases.append((min(size, 4 * 1024 * 1024), n))

    t0 = time.monotonic()
    net, nf, services, cfg = build_cluster(ClusterSpec(nodes=5, quota_gb=2.0, latency_ms=5.0, seed=9))
    failures = 0
    for size, n in cases:
        file = rng.randbytes(size)
        rep = upload(file, n, cfg, nf, net, rng=rng)
        if download(rep.meta, nf, net).data != file:
            failures += 1
    elapsed = time.monotonic() - t0
    report(
        "round-trip correctness",
        failures == 0 and elapsed < 120.0,
        f"{len(cases) - failures}/{len(cases)} byte-exact in {elapsed:.1f}s (limit 120s)",
    )


def test_anti_traverse(report):
    """A locked block's stored pointers resolve nowhere; with the mask both resolve."""
    rng = random.Random(7)
    bad_locked = bad_unlocked = 0
    for _ in range(100):
        m = rng.randint(2, 12)
        chain = build_chain([rng.randbytes(rng.randint(1, 200)) for _ in range(m)])
        addresses = {b.current_hash for b in chain}
        mask = generate_mask(rng)
        locked = lock_chain(chain, mask)
        for i, block in enumerate(locked):
            if block.previous_hash in addresses or block.next_hash in addresses:
                bad_locked += 1
            back = unlock_block(block, mask)
            want_prev = chain[(i - 1) % m].current_hash
            want_next = chain[(i + 1) % m].current_hash
            if back.previous_hash != want_prev or back.next_hash != want_next:
                bad_unlocked += 1
    report(
        "anti-traverse locking",
        bad_locked == 0 and bad_unlocked == 0,
        f"100 chains: {bad_locked} masked pointers resolved, {bad_unlocked} unmask failures",
    )


def test_placement_adjacency(report):
    """No two consecutive blocks of a chain land on the same node."""
    rng = random.Random(11)
    violations = uploads = 0
    for nodes in (2, 3, 5, 47):
        net, nf, services, cfg = build_cluster(ClusterSpec(nodes=nodes, latency_ms=5.0, seed=nodes))
        for n in (2, 5, 20):
            for _ in range(3):
                rep = upload(rng.randbytes(1000), n, cfg, nf, net, rng=rng)
                uploads += 1
                violations += sum(1 for a, b in zip(rep.placements, rep.placements[1:]) if a == b)
    report(
        "placement adjacency",
        violations == 0,
        f"{uploads} uploads across 2/3/5/47-node clusters, {violations} adjacent repeats",
    )


def test_placement_fairness(report):
    """Per-event cap rate*N holds absent escalation; placements mass on low roster indices."""
    per_index = {}
    uncovered = 0
    for event in range(30):
        spec = ClusterSpec(
            nodes=47, blocks=20, events=1, file_bytes=4000, latency_ms=10.0, rate=0.1, seed=500 + event
        )
        rows = run_experiment(spec, "fairness")
        escalated = any(r.context.get("stage") == "rate_escalation" for r in rows)
        for r in rows:
            if r.kind != "block_node":
                continue
            if r.value > int(spec.rate * spec.blocks) and not escalated:
                uncovered += 1
            idx = int(r.context["nf_index"])
            per_index[idx] = per_index.get(idx, 0) + r.value
    low = sum(v for i, v in per_index.items() if i <= 23)
    high = sum(v for i, v in per_index.items() if i >= 24)
    nonuniform = max(per_index.values()) > min(per_index.get(i, 0) for i in range(1, 48))
    report(
        "placement fairness",
        uncovered == 0 and nonuniform and low > 2 * high,
        f"30 events x 20 blocks on 47 nodes: {uncovered} uncovered over-cap, "
        f"low-index mass {low:.0f} vs high {high:.0f}",
    )


def test_bidirectional_fetch_speedup(report):
    """Two-cursor fetch saves 40-55% vs one cursor at 20 ms per fetch, 21 blocks."""
    spec = ClusterSpec(nodes=7, blocks=21, events=3, file_bytes=8400, latency_ms=5.0, seed=21)
    speedups = [r.value / 100.0 for r in run_experiment(spec, "bdam_speedup") if r.kind == "speedup_pct"]
    ok = bool(speedups) and all(0.40 <= s <= 0.55 for s in speedups)
    report(
        "bidirectional fetch speedup",
        ok,
        f"{len(speedups)} events, speedup {min(speedups):.3f}..{max(speedups):.3f} (band 0.40..0.55)",
    )


def test_decision_latency(report):
    """Mean per-block decision time in [2l, 4l] for one-way latency l; seeded runs bit-identical."""
    latency = 25.0
    spec = ClusterSpec(nodes=9, blocks=12, events=5, file_bytes=6000, latency_ms=latency, seed=6)
    first = run_experiment(spec, "decision_time")
    second = run_experiment(spec, "decision_time")
    values = [r.value for r in first if r.kind == "decision_ms"]
    mean = sum(values) / len(values)
    reproducible = rows_to_csv(first) == rows_to_csv(second)
    report(
        "decision latency",
        2 * latency <= mean <= 4 * latency and reproducible,
        f"mean {mean:.1f} ms over {len(values)} campaigns (band {2 * latency:.0f}..{4 * latency:.0f} ms), "
        f"seeded rerun {'bit-identical' if reproducible else 'DIVERGED'}",
    )


def test_capacity_accounting(report):
    """Sum of node storage equals total chain bytes exactly, for 2, 5, and 47 nodes."""
    totals = {}
    exact = True
    for nodes in (2, 5, 47):
        spec = ClusterSpec(nodes=nodes, blocks=10, events=4, file_bytes=20000, latency_ms=5.0, seed=3)
        by_stage = {
            r.context["stage"]: r.value
            for r in run_experiment(spec, "capacity")
            if "stage" in r.context
        }
        exact &= by_stage["total_stored_bytes"] == by_stage["total_chain_bytes"]
        totals[nodes] = by_stage["total_chain_bytes"]
    same_everywhere = len(set(totals.values())) == 1
    report(
        "capacity accounting",
        exact and same_everywhere,
        f"stored == chain bytes exactly on 2/5/47 nodes ({int(totals[5])} bytes, no replication)",
    )


def _fuzz_frames(iterations):
    """Mutate valid encodings; decode must return a Frame or raise ParseError."""
    rng = random.Random(99)
    seeds = [
        encode_frame(Frame(MsgType.PING)),
        encode_frame(Frame(MsgType.STORE_ACK, {"stored": "00" * 32, "campaign_ms": "12.5"})),
        encode_frame(Frame(MsgType.BLOCK_DATA, {"address": "ff" * 32}, rng.randbytes(300))),
        encode_frame(Frame(MsgType.ERROR, {"reason": "boom"})),
    ]
    crashes = 0
    for _ in range(iterations):
        raw = bytearray(rng.choice(seeds))
        for _ in range(rng.randint(1, 4)):
            op = rng.randrange(3)
            if op == 0 and raw:
                raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
            elif op == 1:
                del raw[rng.randrange(len(raw) + 1) :]
            else:
                raw.extend(rng.randbytes(rng.randint(1, 16)))
        try:
            decode_frame(bytes(raw))
        except ParseError:
            pass
        except Exception:
            crashes += 1
    return crashes


def test_unit_property_suite(report):
    """Codec and structure properties: involution, sharding, splitting, fuzz, tamper locality."""
    rng = random.Random(4)
    problems = []

    # XOR lock involution
    for _ in range(50):
        chain = build_chain([rng.randbytes(rng.randint(1, 64)) for _ in range(rng.randint(1, 8))])
        if lock_chain(lock_chain(chain, generate_mask(rng)), generate_mask(random.Random(0))) == chain:
            problems.append("wrong mask inverted a lock")
        mask = generate_mask(rng)
        if lock_chain(lock_chain(chain, mask), mask) != chain:
            problems.append("lock/unlock is not an involution")

    # key-shard round-trip and split/concat inverse for every block count
    for n in range(1, 65):
        ef = rng.randbytes(16 * max(4, (n + 15) // 16))
        sizes = split_ciphertext(len(ef), n)
        if sum(sizes) != len(ef) or min(sizes) < 1:
            problems.append(f"split/concat broken at n={n}")
        key = rng.randbytes(KEY_SIZE)
        domains, start = embed_key_shards(sizes, key), 0
        for domain, size in zip(domains, sizes):  # fill each block's room with its slice, in order
            domain[len(domain) - size :] = ef[start : start + size]
            start += size
        got_key = extract_key_shards([d[: len(d) - size] for d, size in zip(domains, sizes)])
        if got_key != key or b"".join(d[len(d) - size :] for d, size in zip(domains, sizes)) != ef:
            problems.append(f"key shard round-trip broken at n={n}")

    # frame codec fuzz
    crashes = _fuzz_frames(100_000)
    if crashes:
        problems.append(f"{crashes} fuzz crashes")
    for frame in (Frame(MsgType.PING), Frame(MsgType.BLOCK_DATA, {"address": "aa" * 32}, b"x" * 99)):
        if decode_frame(encode_frame(frame)) != frame:
            problems.append("frame codec round-trip broken")

    # meta file codec round-trip
    for _ in range(20):
        meta = MetaFile(
            "node001:9000",
            rng.randbytes(32),
            generate_mask(rng),
            rng.randint(1, 64),
            rng.randbytes(16),
            file_length=rng.randint(1, 10**9),
            chain_root=rng.randbytes(32),
        )
        if parse_meta_file(serialize_meta_file(meta)) != meta:
            problems.append("meta codec round-trip broken")

    # tamper locality: corrupting one data domain is pinned to that block and its neighbors
    for _ in range(20):
        m = rng.randint(3, 10)
        chain = build_chain([rng.randbytes(20) for _ in range(m)])
        i = rng.randrange(m)
        blocks = list(chain)
        tampered = bytearray(blocks[i].data)
        tampered[0] ^= 0xFF
        blocks[i] = Block(
            blocks[i].previous_hash, blocks[i].current_hash, blocks[i].next_hash, bytes(tampered)
        )
        violations = verify_chain(blocks)
        touched = {index for index, _ in violations}
        expected = {(i - 1) % m, i, (i + 1) % m}
        if touched != expected or ("current" not in {field for index, field in violations if index == i}):
            problems.append(f"tamper at {i}/{m} reported blocks {sorted(touched)}")

    report(
        "unit and property suite",
        not problems,
        problems[0] if problems else "involution, sharding, split, 100000-frame fuzz, meta codec, tamper locality all green",
    )
