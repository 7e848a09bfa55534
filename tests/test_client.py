import hashlib
import random
import socket
import threading
import time
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest

from haina import frames, hashing
from haina.blockstore import BlockStore
from haina.chain import Block, build_chain, chain_root, deserialize_block, serialize_block
from haina.client import USER_ADDRESS, bdam_fetch, download, speedup, unidirectional_fetch, upload
from haina.crypto import KEY_SIZE, ciphertext_size
from haina.errors import CampaignError, IncompleteChainError, IntegrityError, NetworkError, ParseError, UsageError
from haina.experiments import ClusterSpec, build_cluster
from haina.frames import Frame, MsgType, error_frame
from haina.locking import lock_chain, unlock_block
from haina.metafile import MetaFile, parse_meta_file, serialize_meta_file
from haina.node import NodeServer, NodeService
from haina.nodefile import make_node_file
from haina.por import PorConfig, run_campaign
from haina.realnet import RealNet

from oracles import stored_addresses, verify_chain


def _cluster(nodes=5, latency=5.0, seed=0, **kw):
    spec = ClusterSpec(nodes=nodes, latency_ms=latency, seed=seed, **kw)
    return build_cluster(spec)


def _first_draw(nf, seed):
    """The node `upload(..., seed=seed)` draws first for block 0: its draws replayed in order."""
    probe = random.Random(seed)
    probe.randbytes(32)  # file key
    probe.randbytes(32)  # mask, nonzero at its first draw
    probe.randbytes(16)  # iv
    return nf.addresses[probe.getrandbits(32) % len(nf)]


class TestUploadDownloadRoundTrip:
    @pytest.mark.parametrize("size,n", [(1, 1), (100, 4), (5000, 20), (64 * 1024, 20)])
    def test_roundtrip(self, size, n):
        net, nf, services, cfg = _cluster()
        rng = random.Random(size * 31 + n)
        file = rng.randbytes(size)
        report = upload(file, n, cfg, nf, net, rng=rng)
        assert len(report.placements) == n
        got = download(report.meta, nf, net)
        assert got.data == file

    def test_meta_file_survives_serialization(self):
        net, nf, services, cfg = _cluster()
        rng = random.Random(1)
        file = rng.randbytes(100)
        report = upload(file, 4, cfg, nf, net, rng=rng)
        meta = parse_meta_file(serialize_meta_file(report.meta))
        assert meta == report.meta
        assert download(meta, nf, net).data == file

    def test_no_consecutive_placements_equal(self):
        net, nf, services, cfg = _cluster()
        rng = random.Random(2)
        report = upload(rng.randbytes(2000), 20, cfg, nf, net, rng=rng)
        for a, b in zip(report.placements, report.placements[1:]):
            assert a != b

    def test_single_block_chain(self):
        net, nf, services, cfg = _cluster(nodes=2)
        rng = random.Random(3)
        file = rng.randbytes(50)
        report = upload(file, 1, cfg, nf, net, rng=rng)
        assert len(report.placements) == 1
        assert download(report.meta, nf, net).data == file

    def test_upload_sends_one_request_per_block(self, record_messages):
        # the STORE_ACK is the storage check: no second request per block
        net, nf, services, cfg = _cluster(nodes=5, seed=53)
        messages = record_messages(net)
        rng = random.Random(53)
        upload(rng.randbytes(2000), 8, cfg, nf, net, rng=rng)
        sent = Counter(entry[3] for entry in messages if entry[1] == USER_ADDRESS)
        assert sent == {"STORE_READY": 8}

    def test_upload_hashes_each_data_domain_twice_and_never_the_file(self, monkeypatch):
        # the client's build_chain and the node's put each hash every data domain,
        # and chain_root hashes the n content addresses: no pass over the plaintext
        net, nf, services, cfg = _cluster(nodes=5, seed=41)
        file, n = random.Random(41).randbytes(5000), 8
        hashed = []
        digest = hashing.digest

        def counted(data):
            hashed.append(len(data))
            return digest(data)

        monkeypatch.setattr(hashing, "digest", counted)
        upload(file, n, cfg, nf, net, seed=41)
        assert sum(hashed) == 2 * (KEY_SIZE + ciphertext_size(len(file))) + hashing.DIGEST_SIZE * n

    def test_empty_file_rejected(self, record_messages):
        net, nf, services, cfg = _cluster()
        messages = record_messages(net)
        with pytest.raises(UsageError, match="empty file"):
            upload(b"", 4, cfg, nf, net, seed=1)
        assert messages == []

    def test_paper_cluster_operation_sends_a_fixed_message_mix(self, record_messages):
        # 63 elections x 46 polls, and 47 HAS_BLOCKs for each of 95 resolves
        net, nf, services, cfg = _cluster(nodes=47, seed=5)
        messages = record_messages(net)
        file = random.Random(5).randbytes(256 * 1024)
        report = upload(file, 64, cfg, nf, net, seed=5)
        assert download(report.meta, nf, net, mode="bi").data == file
        assert download(report.meta, nf, net, mode="uni").data == file
        # each request and its reply are logged under their own type
        assert Counter(entry[3] for entry in messages) == {
            "ELECTION": 2898, "TAKEPART": 2898,
            "HAS_BLOCK": 4465, "HAS_BLOCK_REPLY": 4465,
            "GET_BLOCK": 128, "BLOCK_DATA": 128,
            "STORE_READY": 64, "STORE_ACK": 64,
        }

    def test_duplicate_block_contents_rejected_before_any_request(self, record_messages):
        # 47 bytes pad to 48, so blocks 32-47 each hold one ciphertext byte and no key shard
        net, nf, services, cfg = _cluster()
        messages = record_messages(net)
        with pytest.raises(UsageError, match="duplicate block contents"):
            upload(random.Random(1).randbytes(47), 48, cfg, nf, net, seed=1)
        assert messages == []

    def test_oversized_block_count_rejected(self):
        net, nf, services, cfg = _cluster()
        with pytest.raises(UsageError, match="block count"):
            upload(b"tiny", 1000, cfg, nf, net, rng=random.Random(4))

    # 4 blocks of 1364 bytes: 1406-byte STORE_READY frames, 1455-byte BLOCK_DATA replies
    @pytest.mark.parametrize("cap,fits", [(1024, False), (1406, False), (1455, True)])
    def test_frame_cap_checked_before_any_block_is_placed(self, monkeypatch, cap, fits):
        net, nf, services, cfg = _cluster()
        monkeypatch.setattr(frames, "MAX_FRAME", cap)
        rng = random.Random(6)
        file = rng.randbytes(5000)
        if fits:
            report = upload(file, 4, cfg, nf, net, rng=rng)
            assert download(report.meta, nf, net).data == file
            return
        with pytest.raises(UsageError, match="cap"):
            upload(file, 4, cfg, nf, net, rng=rng)
        assert all(s.store.used_bytes == 0 for s in services.values())

    def test_header_digest_matches_first_block_address(self):
        net, nf, services, cfg = _cluster()
        rng = random.Random(5)
        report = upload(rng.randbytes(300), 3, cfg, nf, net, rng=rng)
        holder = services[report.placements[0]]
        assert holder.store.has(report.meta.header_digest)

    def test_seeded_meta_file_is_byte_identical(self):
        # SHA-256 of the version-2 meta file this seeded upload writes under SM4-CTR
        # with a drawn file key.  With the key H(ts || H(file)) it was 6d50aa3a...: the
        # 32-byte key draw moves the mask, the IV and the placements after it.  Under
        # SM4-CBC it was 43192156...: "mode", and with the ciphertext the header
        # digest and chain root, changed.  Version 1's was aa190095...
        net, nf, services, cfg = _cluster(seed=7)
        report = upload(random.Random(7).randbytes(1000), 8, cfg, nf, net, seed=123)
        digest = hashlib.sha256(serialize_meta_file(report.meta)).hexdigest()
        assert digest == "536e622a35b4f175a3a10421b5013432c611ec110808d9aa954b0eb53bfc25f5"

    def test_unseeded_uploads_do_not_depend_on_the_clock(self, monkeypatch):
        monkeypatch.setattr(time, "time_ns", lambda: 1_700_000_000_000_000_000)
        masks = set()
        for _ in range(2):
            net, nf, services, cfg = _cluster()
            masks.add(upload(b"same file" * 10, 4, cfg, nf, net).meta.mask)
        assert len(masks) == 2

    @pytest.mark.parametrize("nodes", [3, 5, 7])
    def test_last_block_never_lands_on_the_header_node(self, nodes):
        # block 0's holder would see H(last) and H(last) xor mask, and so the mask
        net, nf, services, cfg = _cluster(nodes=nodes, seed=nodes)
        rng = random.Random(nodes)
        for _ in range(40):
            report = upload(rng.randbytes(2000), 20, cfg, nf, net, rng=rng)
            assert report.placements[-1] != report.placements[0]

    def test_seeded_upload_is_reproducible(self, record_messages):
        outcomes = []
        for _ in range(2):
            net, nf, services, cfg = _cluster(seed=7)
            messages = record_messages(net)
            file = random.Random(7).randbytes(1000)
            report = upload(file, 8, cfg, nf, net, seed=123)
            outcomes.append((report.placements, report.decision_ms, report.meta, messages))
        assert outcomes[0] == outcomes[1]


def _traced_peak(op):
    """(result of op(), peak bytes traced while it ran), counting only its own allocations."""
    tracemalloc.start()
    try:
        return op(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """Peak traced memory per file byte: the in-process nodes' stored copies count towards an upload's."""

    @pytest.mark.parametrize("size", [1 << 20, (1 << 20) + 7])
    def test_peak_is_at_most_two_and_a_half_files(self, size):
        net, nf, services, cfg = _cluster(nodes=5, seed=47)
        rng = random.Random(size)
        upload(rng.randbytes(size), 16, cfg, nf, net, rng=rng)  # warm-up
        file = rng.randbytes(size)
        report, peak = _traced_peak(lambda: upload(file, 16, cfg, nf, net, rng=rng))
        assert peak <= 2.5 * size, f"upload peaked at {peak / size:.2f}x the file"
        for mode in ("bi", "uni"):
            got, peak = _traced_peak(lambda: download(report.meta, nf, net, mode=mode).data)
            assert got == file
            assert peak <= 2.5 * size, f"{mode} download peaked at {peak / size:.2f}x the file"

    @pytest.mark.parametrize("size", [1 << 20, (1 << 20) + 7])
    def test_upload_holds_one_file_with_the_nodes(self, size):
        # each block is dropped once its STORE_ACK checks out, so the nodes' stored copies replace it
        net, nf, services, cfg = _cluster(nodes=5, seed=47)
        rng = random.Random(size)
        upload(rng.randbytes(size), 16, cfg, nf, net, rng=rng)  # warm-up
        file = rng.randbytes(size)
        report, peak = _traced_peak(lambda: upload(file, 16, cfg, nf, net, rng=rng))
        assert peak <= 1.15 * size, f"upload peaked at {peak / size:.2f}x the file"
        assert download(report.meta, nf, net).data == file

    @pytest.mark.parametrize("mode", ["bi", "uni"])
    @pytest.mark.parametrize("size", [1 << 20, (1 << 20) + 7])
    def test_download_of_stored_blocks_holds_one_file(self, size, mode):
        # the blocks are stored before tracing starts, and each is dropped once decrypted
        net, nf, services, cfg = _cluster(nodes=5, seed=48)
        file = random.Random(size).randbytes(size)
        report = upload(file, 16, cfg, nf, net, seed=size)
        got, peak = _traced_peak(lambda: download(report.meta, nf, net, mode=mode).data)
        assert got == file
        assert peak <= 1.3 * size, f"{mode} download peaked at {peak / size:.2f}x the file"

    def test_loopback_download_holds_the_file_about_once(self):
        # 8 loopback nodes in this process, whose handler threads are traced too; each
        # fetched block leaves its key shard and ciphertext slice in place and is dropped
        servers = [NodeServer(("127.0.0.1", 0), None) for _ in range(8)]
        addresses = [f"127.0.0.1:{server.server_address[1]}" for server in servers]
        nf = make_node_file(addresses)
        for server, address in zip(servers, addresses):
            server.service = NodeService(address, BlockStore(10**9), nf, PorConfig(), RealNet())
            server.serve_background()
        net = RealNet()
        try:
            file = random.Random(64).randbytes(64 * 1024)
            meta = upload(file, 64, PorConfig(), nf, net, seed=64).meta
            assert download(meta, nf, net).data == file  # warm-up: every connection is pooled
            for mode in ("bi", "uni"):
                # the least of three: node threads that happen to run at once add their buffers to one peak
                peaks = []
                for _ in range(3):
                    got, peak = _traced_peak(lambda: download(meta, nf, net, mode=mode).data)
                    assert got == file
                    peaks.append(peak)
                assert min(peaks) <= 2.4 * len(file), f"{mode} download peaked at {min(peaks) / len(file):.2f}x the file"
        finally:
            net.close()
            stoppers = [threading.Thread(target=server.shutdown) for server in servers]
            for stopper in stoppers:
                stopper.start()
            for stopper in stoppers:
                stopper.join(timeout=5)
            for server in servers:
                server.server_close()
                server.service.transport.close()


class TestFaultInjection:
    def test_unreachable_first_beginner_retried(self):
        net, nf, services, cfg = _cluster(nodes=5, seed=11)
        rng = random.Random(11)
        # take the node the first draw would select fully offline
        first_pick = _first_draw(nf, 11)
        net.remove_node(first_pick)
        file = rng.randbytes(200)
        report = upload(file, 4, cfg, nf, net, seed=11)
        assert report.placements[0] != first_pick
        assert download(report.meta, nf, net).data == file

    def test_byzantine_node_skipped_via_retry(self, record_messages):
        net, nf, services, cfg = _cluster(nodes=5, seed=13)
        messages = record_messages(net)
        bad = nf.addresses[0]
        net.add_node(bad, _CorruptsStoredBytes(services[bad]))
        rng = random.Random(13)
        file = rng.randbytes(500)
        report = upload(file, 4, cfg, nf, net, rng=rng)
        assert any(entry[2] == bad and entry[3] == "STORE_READY" for entry in messages)
        assert bad not in report.placements
        assert download(report.meta, nf, net).data == file

    def test_failed_store_is_resent_byte_for_byte(self):
        # the corrupt node gets block 1 first, and is passed over for every later block
        net, nf, services, cfg = _cluster(nodes=5, seed=5)
        bad = nf.addresses[0]
        net.add_node(bad, _CorruptsStoredBytes(services[bad]))
        stores = []  # (node, header, body) of every STORE_READY, in order
        request = net.request

        def recorded(origin, dst, frame, timeout_ms=1000.0):
            if frame.type is MsgType.STORE_READY:
                stores.append((dst, dict(frame.header), bytes(frame.body)))
            return request(origin, dst, frame, timeout_ms)

        net.request = recorded
        rng = random.Random(5)
        file = rng.randbytes(500)
        report = upload(file, 8, cfg, nf, net, rng=rng)
        failed = [i for i, (node, _, _) in enumerate(stores) if node == bad]
        assert failed == [1] and len(stores) == 8 + len(failed)
        for i in failed:
            assert stores[i + 1][0] != bad
            assert stores[i + 1][1:] == stores[i][1:]
        assert download(report.meta, nf, net).data == file

    def test_meta_file_pins_the_chain_the_nodes_hold(self):
        net, nf, services, cfg = _cluster(nodes=5, seed=23)
        report = upload(random.Random(23).randbytes(3000), 6, cfg, nf, net, seed=23)
        meta = report.meta
        address, blocks = meta.header_digest, []
        for node in report.placements:  # walk the chain through the stores, in placement order
            block = unlock_block(deserialize_block(services[node].store.get(address)), meta.mask)
            assert hashing.digest(block.data) == address
            blocks.append(block)
            address = block.next_hash
        assert address == meta.header_digest
        assert verify_chain(blocks) == []
        assert blocks[0].current_hash == meta.header_digest
        assert chain_root(b.current_hash for b in blocks) == meta.chain_root

    def test_meta_file_length_no_block_could_hold_is_refused_before_any_request(self, record_messages):
        net, nf, services, cfg = _cluster(nodes=5, seed=29)
        meta = upload(random.Random(29).randbytes(3000), 6, cfg, nf, net, seed=29).meta
        messages = record_messages(net)
        with pytest.raises(ParseError, match="file_length"):
            download(replace(meta, file_length=10**15), nf, net)  # a buffer that size could not be allocated
        assert messages == []

    def test_meta_file_length_within_the_padded_size_is_refused_after_decryption(self):
        # 3,000 and 2,999 bytes both pad to 3,008, so every block fits the edited layout
        net, nf, services, cfg = _cluster(nodes=5, seed=29)
        meta = upload(random.Random(29).randbytes(3000), 6, cfg, nf, net, seed=29).meta
        with pytest.raises(IntegrityError, match="recovered 3000 bytes but the meta file records 2999"):
            download(replace(meta, file_length=2999), nf, net)

    def test_campaign_with_no_follower_raises_the_beginners_campaign_error(self):
        net, nf, services, cfg = _cluster(nodes=5, seed=29)
        for address in nf.addresses:
            net.add_node(address, _RefusesElections(services[address]))
        with pytest.raises(CampaignError, match="^no candidate can hold a [0-9]+-byte block$") as err:
            upload(random.Random(29).randbytes(300), 4, cfg, nf, net, seed=29)
        assert err.value.exit_code == 3

    def test_offline_node_named_in_error(self):
        net, nf, services, cfg = _cluster(nodes=5, seed=17)
        rng = random.Random(17)
        report = upload(rng.randbytes(800), 4, cfg, nf, net, rng=rng)
        victim = report.placements[2]
        assert victim != report.placements[0]
        expected_missing = stored_addresses(services[victim].store)
        net.remove_node(victim)
        with pytest.raises(IncompleteChainError) as err:
            download(report.meta, nf, net)
        assert set(err.value.missing) == expected_missing

    def test_each_unresolved_address_named_once(self):
        # blocks 0 and 2 share a node; the backward cursor stops on block 2, then the forward one
        net, nf, services, cfg = _cluster(nodes=2, seed=7)
        report = upload(random.Random(7).randbytes(300), 3, cfg, nf, net, seed=7)
        holder = services[report.placements[0]]
        assert report.placements[2] == report.placements[0]
        (lost,) = stored_addresses(holder.store) - {report.meta.header_digest}
        kept, holder.store = holder.store, BlockStore(holder.store.quota_bytes)
        holder.store.put(kept.get(report.meta.header_digest))
        with pytest.raises(IncompleteChainError) as err:
            download(report.meta, nf, net, mode="bi")
        assert err.value.missing == [lost]

    def test_wrong_mask_cannot_traverse(self):
        net, nf, services, cfg = _cluster(seed=19)
        rng = random.Random(19)
        report = upload(rng.randbytes(400), 4, cfg, nf, net, rng=rng)
        wrong = bytes(b ^ 0xA5 for b in report.meta.mask)
        bad_meta = parse_meta_file(
            serialize_meta_file(report.meta).replace(
                report.meta.mask.hex().encode(), wrong.hex().encode()
            )
        )
        with pytest.raises(IncompleteChainError):
            download(bad_meta, nf, net)


class TestStoreRetries:
    """A failed store moves the block on; when the budget or the untried nodes run out, upload raises."""

    @staticmethod
    def _corrupt(net, services, addresses):
        for address in addresses:
            net.add_node(address, _CorruptsStoredBytes(services[address]))

    def test_every_node_corrupt_is_an_integrity_error(self, record_messages):
        net, nf, services, cfg = _cluster(nodes=3, seed=29)
        messages = record_messages(net)
        self._corrupt(net, services, nf.addresses)
        with pytest.raises(IntegrityError, match="block 1 .* after 3 attempts") as err:
            upload(random.Random(29).randbytes(300), 4, cfg, nf, net, rng=random.Random(29))
        assert err.value.exit_code == 4
        stores = {entry[2] for entry in messages if entry[3] == "STORE_READY"}
        assert stores == set(nf.addresses)

    def test_honest_node_asked_before_the_beginner_draws_run_out(self):
        # with this seed, once both corrupt nodes failed block 1, the next 16
        # draws land on them again; a draw of a failed node sends nothing, so spends no budget
        net, nf, services, cfg = _cluster(nodes=3, seed=0)
        honest = nf.addresses[2]
        self._corrupt(net, services, nf.addresses[:2])
        with pytest.raises(IntegrityError, match="block 2 .* after 2 attempts") as err:
            upload(random.Random(58).randbytes(200), 2, cfg, nf, net, rng=random.Random(58))
        assert err.value.exit_code == 4
        assert services[honest].store.used_bytes > 0  # block 1 landed on it

    def test_corrupting_first_draw_moves_the_header_block(self, record_messages):
        net, nf, services, cfg = _cluster(nodes=5, seed=31)
        messages = record_messages(net)
        first_pick = _first_draw(nf, 31)
        self._corrupt(net, services, [first_pick])
        file = random.Random(31).randbytes(2000)
        report = upload(file, 12, cfg, nf, net, seed=31)
        assert any(entry[2] == first_pick and entry[3] == "STORE_READY" for entry in messages)
        assert report.meta.first_beginner == report.placements[0]
        assert report.placements[0] != first_pick
        assert report.placements[-1] != report.placements[0]
        assert download(report.meta, nf, net).data == file

    def test_first_draw_is_where_an_honest_cluster_puts_the_header_block(self):
        # the tests that fault `_first_draw`'s node still pass if upload draws another node
        # first, so they would test nothing; this keeps the mirror and upload in step
        for seed in range(10):
            net, nf, services, cfg = _cluster(nodes=5, seed=seed)
            report = upload(random.Random(seed).randbytes(2000), 8, cfg, nf, net, seed=seed)
            assert report.placements[0] == _first_draw(nf, seed), f"seed {seed}"

    @pytest.mark.parametrize("seed", range(5))
    def test_full_first_draw_moves_the_header_block(self, seed):
        net, nf, services, cfg = _cluster(nodes=5, seed=seed)
        full = _first_draw(nf, seed)
        services[full].store = BlockStore(10)  # answers the STORE_READY with "quota exceeded"
        file = random.Random(seed).randbytes(2000)
        report = upload(file, 8, cfg, nf, net, seed=seed)
        assert full not in report.placements
        assert download(report.meta, nf, net).data == file

    @pytest.mark.parametrize("seed", range(10))
    def test_elected_node_answering_stores_with_an_error_is_skipped(self, seed, record_messages):
        # its quota stays untouched, so it tops every election and is asked first
        net, nf, services, cfg = _cluster(nodes=5, seed=seed)
        messages = record_messages(net)
        refuser = nf.addresses[seed % len(nf)]
        net.add_node(refuser, _RefusesStores(services[refuser]))
        file = random.Random(seed).randbytes(3000)
        report = upload(file, 12, cfg, nf, net, seed=seed)
        asked = [i for i, entry in enumerate(messages) if entry[2] == refuser and entry[3] == "STORE_READY"]
        assert asked and all(messages[i + 1][3] == "ERROR" for i in asked)
        assert refuser not in report.placements
        assert download(report.meta, nf, net).data == file

    def test_every_node_refusing_is_a_network_error(self):
        net, nf, services, cfg = _cluster(nodes=5, seed=37)
        for address in nf.addresses:
            net.add_node(address, _RefusesStores(services[address]))
        with pytest.raises(NetworkError, match="block 1 not stored after 4 attempts") as err:
            upload(random.Random(37).randbytes(300), 4, cfg, nf, net, seed=37)
        assert err.value.exit_code == 3

    def test_a_retry_that_escalates_records_it(self):
        # replaying the recorded escalations over the placements, no node holds
        # more than one block past the rate in force when it took the block
        n = 30
        for seed in range(40):
            net, nf, services, cfg = _cluster(nodes=5, seed=seed)
            self._corrupt(net, services, nf.addresses[:1])
            rng = random.Random(seed)
            report = upload(rng.randbytes(3000), n, cfg, nf, net, rng=rng)
            rate, escalations, counts = cfg.rate, dict(report.escalations), Counter()
            for i, node in enumerate(report.placements):
                rate = escalations.get(i, rate)
                counts[node] += 1
                assert counts[node] <= rate * n + 1, f"seed {seed}: block {i + 1} is {node}'s {counts[node]}th"

    def test_a_node_whose_store_failed_is_passed_over_for_the_rest_of_the_upload(self, record_messages):
        # it holds no block, so the fairness check's rule (a) would put it first for every
        # later block it is a candidate for; it is never the only untried candidate here
        for seed in range(40):
            net, nf, services, cfg = _cluster(nodes=5, seed=seed)
            messages = record_messages(net)
            bad = nf.addresses[0]
            self._corrupt(net, services, [bad])
            rng = random.Random(seed)
            report = upload(rng.randbytes(3000), 30, cfg, nf, net, rng=rng)
            sent = sum(1 for entry in messages if entry[2] == bad and entry[3] == "STORE_READY")
            assert sent == 1, f"seed {seed}: {sent} STORE_READYs to the corrupt node"
            assert bad not in report.placements

    def test_loopback_first_draw_on_a_closed_port_moves_the_header_block(self):
        servers = [NodeServer(("127.0.0.1", 0), None) for _ in range(3)]
        with socket.socket() as probe:  # bound after the servers, so none of them can have its port
            probe.bind(("127.0.0.1", 0))
            closed = f"127.0.0.1:{probe.getsockname()[1]}"
        nf = make_node_file([f"127.0.0.1:{server.server_address[1]}" for server in servers] + [closed])
        for server in servers:
            address = f"127.0.0.1:{server.server_address[1]}"
            server.service = NodeService(address, BlockStore(10**9), nf, PorConfig(), RealNet())
            server.serve_background()
        seed = next(s for s in range(100) if _first_draw(nf, s) == closed)
        net = RealNet()
        try:
            file = random.Random(seed).randbytes(500)
            report = upload(file, 4, PorConfig(), nf, net, seed=seed)
            assert closed not in report.placements
            assert download(report.meta, nf, net).data == file
        finally:
            net.close()
            for server in servers:
                server.shutdown()
                server.server_close()
                server.service.transport.close()


class _RefusesStores:
    """Faulty node: answers every STORE_READY with an ERROR, as a node whose disk fails would."""

    def __init__(self, service):
        self.service = service

    def handle(self, frame):
        if frame.type is MsgType.STORE_READY:
            return error_frame("block not stored: disk failing")
        return self.service.handle(frame)


class _RefusesElections:
    """Faulty follower: answers every ELECTION with an ERROR."""

    def __init__(self, service):
        self.service = service

    def handle(self, frame):
        if frame.type is MsgType.ELECTION:
            return error_frame("not taking part")
        return self.service.handle(frame)


class _CorruptsStoredBytes:
    """Byzantine node: acknowledges every store but keeps the block with its last byte flipped."""

    def __init__(self, service):
        self.service = service

    def handle(self, frame):
        if frame.type is MsgType.STORE_READY:
            body = bytearray(frame.body)
            body[-1] ^= 0xFF
            frame = Frame(frame.type, frame.header, bytes(body))
        return self.service.handle(frame)


class _FlipsServedBytes:
    """Byzantine node: serves every block with its last byte flipped."""

    def __init__(self, service):
        self.service = service

    def handle(self, frame):
        reply = self.service.handle(frame)
        if reply.type is MsgType.BLOCK_DATA:
            body = bytearray(reply.body)
            body[-1] ^= 0x01
            reply = Frame(reply.type, reply.header, bytes(body))
        return reply


class _AppendsAByte:
    """Byzantine node: serves every block with one byte more than its length field frames."""

    def __init__(self, service):
        self.service = service

    def handle(self, frame):
        reply = self.service.handle(frame)
        if reply.type is MsgType.BLOCK_DATA:
            reply = Frame(reply.type, reply.header, bytes(reply.body) + b"\0")
        return reply


class _FlipsNextPointer:
    """Byzantine node: serves every block with the first byte of its next pointer flipped.

    The data domain is untouched, so each block still hashes to its address.
    """

    def __init__(self, service):
        self.service = service

    def handle(self, frame):
        reply = self.service.handle(frame)
        if reply.type is MsgType.BLOCK_DATA:
            body = bytearray(reply.body)
            body[64] ^= 0x01  # bytes 64..95 hold the next pointer
            reply = Frame(reply.type, reply.header, bytes(body))
        return reply


class _ClaimsEveryBlock:
    """Byzantine node: answers every HAS_BLOCK address with has = 1."""

    def __init__(self, service):
        self.service = service

    def handle(self, frame):
        if frame.type is MsgType.HAS_BLOCK:
            return Frame(MsgType.HAS_BLOCK_REPLY, {"has": "1" * (1 + ("address2" in frame.header))})
        return self.service.handle(frame)


class _BragsUnreadableFreespace:
    """Malformed follower: takes part in every election with freespace "lots"."""

    def __init__(self, service):
        self.service = service

    def handle(self, frame):
        if frame.type is MsgType.ELECTION:
            return Frame(MsgType.TAKEPART, {"freespace": "lots"})
        return self.service.handle(frame)


class TestMalformedElectionReply:
    def _cluster_with_bragger(self):
        net, nf, services, cfg = _cluster(nodes=5, seed=43)
        bragger = nf.addresses[1]
        net.add_node(bragger, _BragsUnreadableFreespace(services[bragger]))
        return net, nf, services, cfg, bragger

    def test_campaign_drops_the_follower(self):
        net, nf, services, cfg, bragger = self._cluster_with_bragger()
        beginner = nf.addresses[0]
        result = run_campaign(net, beginner, 100, nf, cfg)
        assert set(result.candidates) == set(nf.addresses) - {beginner, bragger}

    def test_upload_succeeds_without_the_follower(self):
        net, nf, services, cfg, bragger = self._cluster_with_bragger()
        rng = random.Random(43)
        file = rng.randbytes(3000)
        report = upload(file, 12, cfg, nf, net, rng=rng)
        assert bragger not in report.placements[1:]  # only the random first pick skips the election
        assert download(report.meta, nf, net).data == file


class _RewritesStoreAck:
    """Malformed beginner: sets one header field of every STORE_ACK it sends.

    "{self}" names the node, "{follower}" another roster member.
    """

    def __init__(self, service, key, value):
        self.service = service
        self.key = key
        follower = next(a for a in service.nf.addresses if a != service.address)
        self.value = value.replace("{self}", service.address).replace("{follower}", follower)

    def handle(self, frame):
        reply = self.service.handle(frame)
        if reply.type is MsgType.STORE_ACK:
            reply = Frame(reply.type, {**reply.header, self.key: self.value}, reply.body)
        return reply


CANDIDATE = "%s"


class TestMalformedStoreAck:
    @pytest.mark.parametrize(
        "key,value",
        [
            ("candidates", "not json"),
            ("candidates", '[{"bogus": 1}]'),
            ("candidates", "[1]"),
            ("candidates", CANDIDATE % "10.6.6.6:7000"),
            ("candidates", CANDIDATE % "{self}"),
            ("candidates", ""),
            ("candidates", CANDIDATE % "{follower},"),
            ("candidates", CANDIDATE % "{follower},10.6.6.6:7000"),
            ("campaign_ms", "fast"),
            ("campaign_ms", "nan"),
            ("campaign_ms", "inf"),
            ("campaign_ms", "-1"),
        ],
        ids=[
            "not-json",
            "unknown-key",
            "not-a-record",
            "off-roster",
            "beginner-itself",
            "empty",
            "trailing-comma",
            "off-roster-after-a-follower",
            "campaign-ms-not-a-number",
            "campaign-ms-nan",
            "campaign-ms-infinite",
            "campaign-ms-negative",
        ],
    )
    def test_upload_raises_parse_error_naming_the_field(self, key, value):
        net, nf, services, cfg = _cluster(nodes=5, seed=47)
        for address in nf.addresses:
            net.add_node(address, _RewritesStoreAck(services[address], key, value))
        with pytest.raises(ParseError, match=key):
            upload(random.Random(47).randbytes(500), 4, cfg, nf, net, seed=47)


class TestByzantineHolders:
    """A node that lies costs time, never wrong bytes."""

    def _upload_then_turn(self, honest_copy, serves=_FlipsServedBytes):
        net, nf, services, cfg = _cluster(nodes=5, seed=41)
        rng = random.Random(41)
        file = rng.randbytes(3000)
        report = upload(file, 9, cfg, nf, net, rng=rng)
        flipper = report.placements[0]  # holds the header, so both fetch paths meet it
        liar = next(a for a in nf.addresses if a != flipper)
        copy_to = next(a for a in nf.addresses if a not in (flipper, liar))
        stolen = stored_addresses(services[flipper].store)
        if honest_copy:
            for address in stolen:
                services[copy_to].store.put(services[flipper].store.get(address))
        # both liars answer first, and every holder is asked at once: the first reply to arrive is not the one kept
        for node in (flipper, liar):
            net.matrix[("user:0", node)] = net.matrix[(node, "user:0")] = 1.0
        net.add_node(flipper, serves(services[flipper]))
        net.add_node(liar, _ClaimsEveryBlock(services[liar]))
        return net, nf, report, file, stolen

    @pytest.mark.parametrize("mode", ["bi", "uni"])
    def test_second_honest_holder_serves_the_right_bytes(self, mode):
        net, nf, report, file, _ = self._upload_then_turn(honest_copy=True)
        assert download(report.meta, nf, net, mode=mode).data == file

    def test_undecodable_block_is_a_miss_an_honest_copy_makes_up(self):
        net, nf, report, file, _ = self._upload_then_turn(honest_copy=True, serves=_AppendsAByte)
        assert download(report.meta, nf, net).data == file

    def test_undecodable_block_without_an_honest_copy_is_missing(self):
        net, nf, report, file, stolen = self._upload_then_turn(honest_copy=False, serves=_AppendsAByte)
        with pytest.raises(IncompleteChainError) as err:
            download(report.meta, nf, net)
        assert set(err.value.missing) <= stolen

    def test_each_fetch_step_is_one_exchange(self, record_messages):
        net, nf, report, file, _ = self._upload_then_turn(honest_copy=True)
        messages = record_messages(net)
        exchanges = []
        exchange = net.exchange

        def counted(origin, requests, timeout_ms=1000.0):
            exchanges.append(len(requests))
            return exchange(origin, requests, timeout_ms)

        net.exchange = counted
        for mode, rounds in (("bi", 4), ("uni", 8)):
            exchanges.clear()
            messages.clear()
            result = download(report.meta, nf, net, mode=mode)
            assert result.data == file and result.rounds == rounds
            # the first beginner's bad header; a resolve and one fetch for the header, then for each round
            assert len(exchanges) == 1 + 2 + 2 * rounds
            assert sum(entry[3] == "GET_BLOCK" for entry in messages) == 18

    @pytest.mark.parametrize("mode", ["bi", "uni"])
    def test_without_an_honest_holder_download_raises(self, mode):
        net, nf, report, file, stolen = self._upload_then_turn(honest_copy=False)
        with pytest.raises(IncompleteChainError) as err:
            download(report.meta, nf, net, mode=mode)
        assert set(err.value.missing) <= stolen


class TestFlippedNextPointer:
    """Only the forward cursor follows next pointers, so the backward one walks past a flip."""

    @pytest.mark.parametrize("seed", [41, 43, 47])
    def test_bi_recovers_and_uni_raises(self, seed):
        net, nf, services, cfg = _cluster(nodes=5, seed=seed)
        rng = random.Random(seed)
        file = rng.randbytes(3000)
        report = upload(file, 9, cfg, nf, net, rng=rng)
        flipper = report.placements[4]  # a middle block's holder, the only copy of its blocks
        net.add_node(flipper, _FlipsNextPointer(services[flipper]))
        assert download(report.meta, nf, net, mode="bi").data == file
        with pytest.raises(IncompleteChainError):
            download(report.meta, nf, net, mode="uni")


class _ForgesPointers:
    """Byzantine holder that knows the mask: serves chosen blocks with forged fields, re-locked under it.

    `forged` maps a block's address to the unlocked fields that replace its own.
    """

    def __init__(self, service, mask, forged):
        self.service = service
        self.mask = mask
        self.forged = forged

    def handle(self, frame):
        reply = self.service.handle(frame)
        if reply.type is MsgType.BLOCK_DATA:
            block = deserialize_block(reply.body)
            if block.current_hash in self.forged:
                block = replace(unlock_block(block, self.mask), **self.forged[block.current_hash])
                reply = Frame(reply.type, reply.header, serialize_block(unlock_block(block, self.mask)))
        return reply


class TestForgedChain:
    """A holder that knows the mask can redirect the walk; the meta file's chain root catches it.

    6,399 bytes pad to 6,400, so the slices have equal sizes: a block put in
    another's position keeps the file's length and its last piece intact,
    and blocks 32 and on carry no key shard.
    """

    def _upload(self, n):
        """(net, nf, services, report, every block's address in position order)."""
        net, nf, services, cfg = _cluster(nodes=12, latency=5.0, seed=3)
        report = upload(random.Random(3).randbytes(6399), n, cfg, nf, net, seed=3)
        stored = {a: s.store.get(a) for s in services.values() for a in stored_addresses(s.store)}
        h = [report.meta.header_digest]
        while len(h) < n:
            h.append(unlock_block(deserialize_block(stored[h[-1]]), report.meta.mask).next_hash)
        return net, nf, services, report, h

    @staticmethod
    def _forge(net, services, mask, forged):
        for address, service in services.items():
            net.add_node(address, _ForgesPointers(service, mask, forged))

    def test_uni_walk_redirected_past_a_block(self):
        net, nf, services, report, h = self._upload(40)
        self._forge(net, services, report.meta.mask, {h[34]: {"next_hash": h[36]}, h[39]: {"next_hash": h[39]}})
        with pytest.raises(IntegrityError, match="not the chain the meta file records"):
            download(report.meta, nf, net, mode="uni")

    def test_bi_backward_walk_redirected_past_a_block(self):
        net, nf, services, report, h = self._upload(64)
        self._forge(net, services, report.meta.mask, {h[60]: {"previous_hash": h[58]}})
        with pytest.raises(IntegrityError, match="not the chain the meta file records"):
            download(report.meta, nf, net, mode="bi")

    def test_block_claiming_the_honest_current_hash_is_refused(self):
        # block 34's holder stores a made-up block whose current_hash field reads
        # block 35's address and whose pointers lead back into the chain
        net, nf, services, report, h = self._upload(40)
        mask = report.meta.mask
        fake = Block(h[34], h[35], h[36], random.Random(4).randbytes(160))
        services[report.placements[34]].store.put(serialize_block(unlock_block(fake, mask)))
        self._forge(net, services, mask, {h[34]: {"next_hash": hashing.digest(fake.data)}})
        with pytest.raises(IncompleteChainError) as err:
            download(report.meta, nf, net, mode="uni")
        assert err.value.missing == [hashing.digest(fake.data)]


class TestBidirectionalFetch:
    def test_bi_and_uni_identical_output(self):
        net, nf, services, cfg = _cluster(seed=23)
        rng = random.Random(23)
        file = rng.randbytes(3000)
        report = upload(file, 9, cfg, nf, net, rng=rng)
        bi = download(report.meta, nf, net, mode="bi")
        uni = download(report.meta, nf, net, mode="uni")
        assert bi.data == uni.data == file

    def test_round_counts(self):
        net, nf, services, cfg = _cluster(nodes=7, seed=29)
        rng = random.Random(29)
        report = upload(rng.randbytes(4200), 21, cfg, nf, net, rng=rng)
        bi = download(report.meta, nf, net, mode="bi")
        uni = download(report.meta, nf, net, mode="uni")
        assert bi.rounds == 10  # ceil((21-1)/2)
        assert uni.rounds == 20

    @pytest.mark.parametrize("n", [2, 20, 21])
    def test_one_has_block_broadcast_per_round(self, n, record_messages):
        net, nf, services, cfg = _cluster(nodes=7, seed=29)
        rng = random.Random(29)
        report = upload(rng.randbytes(4200), n, cfg, nf, net, rng=rng)
        messages = record_messages(net)
        for mode, broadcasts in (("bi", -(-(n - 1) // 2)), ("uni", n - 1)):
            messages.clear()
            assert download(report.meta, nf, net, mode=mode).rounds == broadcasts
            queries = [entry for entry in messages if entry[3] == "HAS_BLOCK"]
            assert len(queries) == broadcasts * len(nf)

    def test_two_block_chain_meets_immediately(self):
        net, nf, services, cfg = _cluster(nodes=3, seed=31)
        rng = random.Random(31)
        file = rng.randbytes(64)
        report = upload(file, 2, cfg, nf, net, rng=rng)
        bi = download(report.meta, nf, net, mode="bi")
        assert bi.rounds == 1
        assert bi.data == file

    def test_uniform_latency_speedup_band(self):
        # both cursors halve the fetch rounds; the shared header fetch
        # keeps the saving under the ideal 50%
        net, nf, services, cfg = _cluster(nodes=7, latency=10.0, seed=37)
        rng = random.Random(37)
        report = upload(rng.randbytes(8000), 21, cfg, nf, net, rng=rng)
        bi = download(report.meta, nf, net, mode="bi")
        uni = download(report.meta, nf, net, mode="uni")
        f = speedup(bi.fetch_ms, uni.fetch_ms)
        assert 0.40 <= f <= 0.55

    @pytest.mark.parametrize("jitter_ms", [0.0, 5.0])
    @pytest.mark.parametrize("mode", ["bi", "uni"])
    def test_fetch_ms_is_the_clock_advance(self, mode, jitter_ms):
        # the README spec: 47 nodes, 20 blocks, 25 ms links
        net, nf, services, cfg = _cluster(nodes=47, latency=25.0, seed=1, jitter_ms=jitter_ms)
        rng = random.Random(1)
        report = upload(rng.randbytes(65536), 20, cfg, nf, net, rng=rng)
        before = net.clock
        fetch_ms = download(report.meta, nf, net, mode=mode, timeout_ms=cfg.timeout_ms).fetch_ms
        assert net.clock - before == fetch_ms


class _Fetcher:
    """In-memory fetcher over a locked chain; records the positions asked in each call."""

    def __init__(self, locked, lost=()):
        self.positions = {b.current_hash: p for p, b in enumerate(locked)}
        self.held = {b.current_hash: b for p, b in enumerate(locked) if p not in lost}
        self.calls = []

    def __call__(self, addresses):
        self.calls.append([self.positions[a] for a in addresses])
        return [self.held.get(a) for a in addresses]


def _walk(n, mode, lost=()):
    """Walk an n-block chain in memory with `lost` positions unfetchable.

    Returns (chain, fetcher, FetchResult, the unlocked blocks the walk handed on, by position).
    """
    mask = bytes(range(1, 33))
    chain = build_chain([bytes([p]) * 3 for p in range(n)])
    locked = lock_chain(chain, mask)
    root = chain_root(b.current_hash for b in chain)
    meta = MetaFile("node:1", chain[0].current_hash, mask, n, bytes(16), 3 * n, root)
    fetcher = _Fetcher(locked, lost)
    fetch = bdam_fetch if mode == "bi" else unidirectional_fetch
    kept = {0: chain[0]}  # the caller keeps the header block; the walk starts from its pointers
    result = fetch(meta, _pointers(chain[0]), fetcher, kept.__setitem__)
    return chain, fetcher, result, [kept.get(p) for p in range(n)]


def _pointers(block):
    return block.previous_hash + block.current_hash + block.next_hash


class TestWalk:
    """Pins the cursors' walk: the positions asked in each round, the rounds, and what a stop leaves."""

    BI = {1: [], 2: [[1]], 3: [[1, 2]], 4: [[1, 3], [2]], 5: [[1, 4], [2, 3]],
          21: [[1 + r, 20 - r] for r in range(10)]}

    @pytest.mark.parametrize("n", sorted(BI))
    @pytest.mark.parametrize("mode", ["bi", "uni"])
    def test_positions_asked_in_each_round(self, n, mode):
        chain, fetcher, result, kept = _walk(n, mode)
        asked = self.BI[n] if mode == "bi" else [[p] for p in range(1, n)]
        assert fetcher.calls == asked
        assert result.rounds == len(asked)
        assert kept == list(chain)
        assert result.pointers == [_pointers(b) for b in chain]
        assert result.missing == []

    # n = 8: bi asks [1, 7], [2, 6], [3, 5], [4]
    @pytest.mark.parametrize(
        "mode,lost,empty,missing",
        [
            ("bi", {2}, [2], [2]),  # forward target lost: backward walks down to it, then stops too
            ("bi", {6}, [6], [6]),  # backward target lost: forward walks up to it, then stops too
            ("bi", {2, 6}, [2, 3, 4, 5, 6], [2, 6]),
            ("bi", {4}, [4], [4]),  # the meeting position: both cursors ask it in one round
            ("uni", {2}, [2, 3, 4, 5, 6, 7], [2]),
        ],
        ids=["bi-forward", "bi-backward", "bi-both", "bi-meeting", "uni"],
    )
    def test_stopped_cursors_leave_their_positions_empty(self, mode, lost, empty, missing):
        chain, fetcher, result, kept = _walk(8, mode, lost)
        assert [p for p, b in enumerate(kept) if b is None] == empty
        assert [p for p, d in enumerate(result.pointers) if d is None] == empty
        assert result.missing == [chain[p].current_hash for p in missing]


class TestSpeedup:
    def test_direct_arithmetic(self):
        assert speedup(10, 20) == 0.5

    def test_equal_times_zero(self):
        assert speedup(42, 42) == 0.0

    def test_nonpositive_baseline_rejected(self):
        with pytest.raises(UsageError):
            speedup(1, 0)
