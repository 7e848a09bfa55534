import errno
import gc
import io
import os
import random
import socket
import socketserver
import sys
import threading
import time
import tracemalloc
import warnings

import pytest

from haina import blockstore, frames, node, realnet
from haina.blockstore import LOG_NAME, BlockStore
from haina.chain import BLOCK_OVERHEAD, build_chain, deserialize_block, serialize_block
from haina.client import download, upload
from haina.errors import IntegrityError, NetworkError, ParseError, UsageError
from haina.experiments import ClusterSpec, build_cluster
from haina.frames import Frame, MsgType, decode_frame, encode_frame
from haina.node import NodeServer, NodeService
from haina.nodefile import make_node_file, parse_node_file
from haina.por import PorConfig, run_campaign
from haina.realnet import RealNet, recv_frame, send_frame
from haina.resolve import resolve
from haina.simnet import SimNet

from oracles import NON_CANONICAL_INTS, stored_addresses


def _block(data=b"payload"):
    chain = build_chain([data])
    return chain[0]


def _empty_record():
    """A serialized block whose length field states 0 data bytes."""
    return serialize_block(_block())[: BLOCK_OVERHEAD - 8] + bytes(8)


class TestBlockStore:
    def test_put_get_roundtrip(self):
        store = BlockStore(10**6)
        raw = serialize_block(_block())
        address = store.put(raw)
        assert address == _block().current_hash
        assert store.get(address) == raw
        assert store.has(address)

    def test_put_of_a_view_keeps_its_own_bytes(self, tmp_path):
        # a received frame's body is a view of the frame buffer; the store must not alias it
        in_memory, in_log = BlockStore(10**6), BlockStore(10**6, data_dir=str(tmp_path))
        for store in (in_memory, in_log):
            buf = bytearray(serialize_block(_block()))
            address = store.put(memoryview(buf).toreadonly())
            buf[-1] ^= 0xFF
            assert store.get(address) == serialize_block(_block())
        assert type(in_memory.get(address)) is bytes

    def test_quota_accounting(self):
        raw = serialize_block(_block())
        store = BlockStore(len(raw))
        store.put(raw)
        assert store.freespace == 0
        with pytest.raises(UsageError, match="quota"):
            store.put(serialize_block(_block(b"other")))

    def test_duplicate_put_is_idempotent(self):
        store = BlockStore(10**6)
        raw = serialize_block(_block())
        store.put(raw)
        store.put(raw)
        assert store.used_bytes == len(raw)

    def _race_puts(self, data_dir=None):
        """Race 32 puts against a quota that fits 8 of them; returns (store, blocks, accepted blocks)."""

        class SlowCheckStore(BlockStore):
            @property
            def freespace(self):
                free = super().freespace
                time.sleep(0.001)  # widen the gap between the quota check and the insert
                return free

        raws = [serialize_block(_block(bytes([i]) * 64)) for i in range(32)]
        store = SlowCheckStore(8 * len(raws[0]), data_dir)
        barrier = threading.Barrier(len(raws))
        accepted = []

        def put(raw):
            barrier.wait()
            try:
                store.put(raw)
                accepted.append(raw)
            except UsageError:
                pass

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=put, args=(raw,)) for raw in raws]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        return store, raws, accepted

    def test_concurrent_puts_never_exceed_quota(self):
        store, raws, accepted = self._race_puts()
        assert len(accepted) == 8
        assert store.used_bytes == store.quota_bytes

    def test_concurrent_puts_append_whole_records(self, tmp_path):
        store, raws, accepted = self._race_puts(str(tmp_path))
        assert len(accepted) == 8
        size = len(raws[0])
        log = (tmp_path / LOG_NAME).read_bytes()
        assert sorted(log[i : i + size] for i in range(0, len(log), size)) == sorted(accepted)
        reopened = BlockStore(store.quota_bytes, data_dir=str(tmp_path))
        assert stored_addresses(reopened) == {deserialize_block(raw).current_hash for raw in accepted}
        assert reopened.used_bytes == store.quota_bytes

    def test_persistence_roundtrip(self, tmp_path):
        raw = serialize_block(_block())
        store = BlockStore(10**6, data_dir=str(tmp_path))
        address = store.put(raw)
        reopened = BlockStore(10**6, data_dir=str(tmp_path))
        assert reopened.get(address) == raw
        assert reopened.used_bytes == len(raw)

    @pytest.mark.parametrize("kept", [50, BLOCK_OVERHEAD + 3], ids=["in-pointers", "in-data"])
    def test_torn_last_record_is_dropped_and_cut_off(self, tmp_path, kept):
        first, second = serialize_block(_block(b"first")), serialize_block(_block(b"second"))
        store = BlockStore(10**6, data_dir=str(tmp_path))
        store.put(first)
        address = store.put(second)
        log = tmp_path / LOG_NAME
        log.write_bytes(first + second[:kept])
        reopened = BlockStore(10**6, data_dir=str(tmp_path))
        assert stored_addresses(reopened) == {_block(b"first").current_hash}
        assert reopened.used_bytes == len(first)
        assert log.read_bytes() == first
        # the next put lands right after the last whole record
        assert reopened.put(second) == address
        assert log.read_bytes() == first + second
        again = BlockStore(10**6, data_dir=str(tmp_path))
        assert again.get(address) == second and again.used_bytes == len(first + second)

    @pytest.mark.parametrize(
        "garbage", [b"\x00" * 7, b"\xff" * 300, b"\x00" * BLOCK_OVERHEAD], ids=["short", "huge-length", "empty-record"]
    )
    def test_trailing_garbage_is_dropped(self, tmp_path, garbage):
        raw = serialize_block(_block())
        address = BlockStore(10**6, data_dir=str(tmp_path)).put(raw)
        log = tmp_path / LOG_NAME
        log.write_bytes(raw + garbage)
        reopened = BlockStore(10**6, data_dir=str(tmp_path))
        assert stored_addresses(reopened) == {address}
        assert reopened.used_bytes == len(raw)
        assert log.read_bytes() == raw

    def test_damaged_length_mid_log_moves_the_rest_to_the_cut_file(self, tmp_path):
        store = BlockStore(10**6, data_dir=str(tmp_path))
        for data in (b"first", b"second", b"third"):
            store.put(serialize_block(_block(data)))
        log, cut = tmp_path / LOG_NAME, tmp_path / (LOG_NAME + ".cut")
        damaged = bytearray(log.read_bytes())
        damaged[96] ^= 1  # the first record's length field, most significant byte
        log.write_bytes(damaged)
        reopened = BlockStore(10**6, data_dir=str(tmp_path))
        assert stored_addresses(reopened) == set() and reopened.used_bytes == 0
        assert log.read_bytes() == b""
        assert cut.read_bytes() == bytes(damaged)  # the three records, one bit off from what was written
        # a later cut is appended, not written over the first
        log.write_bytes(b"\x00" * 7)
        BlockStore(10**6, data_dir=str(tmp_path))
        assert cut.read_bytes() == bytes(damaged) + b"\x00" * 7

    def test_a_record_with_no_data_cuts_the_log(self, tmp_path):
        first, second = serialize_block(_block(b"first")), serialize_block(_block(b"second"))
        log, cut = tmp_path / LOG_NAME, tmp_path / (LOG_NAME + ".cut")
        log.write_bytes(first + _empty_record() + second)
        reopened = BlockStore(10**6, data_dir=str(tmp_path))
        assert stored_addresses(reopened) == {_block(b"first").current_hash}
        assert reopened.used_bytes == len(first) and log.read_bytes() == first
        assert cut.read_bytes() == _empty_record() + second

    def test_reopening_a_log_reads_it_one_record_at_a_time(self, tmp_path):
        store = BlockStore(10**8, data_dir=str(tmp_path))
        rng = random.Random(64)
        for _ in range(64):
            store.put(serialize_block(_block(rng.randbytes(128 * 1024))))
        del store
        size = (tmp_path / LOG_NAME).stat().st_size
        tracemalloc.start()
        try:
            reopened = BlockStore(10**8, data_dir=str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(stored_addresses(reopened)) == 64 and reopened.used_bytes == size
        # the index alone: the log is read where it is mapped, not copied record by record
        assert peak < 2 * size / 64, f"reopening peaked at {peak / (size / 64):.2f} records"

    def test_a_data_dir_store_keeps_only_an_index_in_memory(self, tmp_path):
        store = BlockStore(10**8, data_dir=str(tmp_path))
        rng = random.Random(8)
        tracemalloc.start()
        try:
            for _ in range(64):
                store.put(serialize_block(_block(rng.randbytes(128 * 1024))))
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert store.used_bytes > 8 * 2**20
        assert retained < 2**20, f"{retained} bytes retained after {store.used_bytes} bytes of puts"

    def test_a_served_view_outlives_later_puts(self, tmp_path):
        store = BlockStore(10**8, data_dir=str(tmp_path))
        first = serialize_block(_block(b"first"))
        view = store.get(store.put(first))
        later = [serialize_block(_block(bytes([i]) * 5000)) for i in range(8)]
        addresses = [store.put(raw) for raw in later]
        served = [store.get(address) for address in addresses]
        assert served[-1].obj is not view.obj  # the log was mapped again for the later records
        assert view.readonly and view == first
        assert [bytes(record) for record in served] == later

    def test_a_store_reopened_on_a_cut_log_serves_what_it_appends(self, tmp_path):
        first, second = serialize_block(_block(b"first")), serialize_block(_block(b"second"))
        (tmp_path / LOG_NAME).write_bytes(first + b"\xff" * 4096)
        reopened = BlockStore(10**6, data_dir=str(tmp_path))
        address = reopened.put(second)
        assert reopened.get(_block(b"first").current_hash) == first
        assert reopened.get(address) == second

    @pytest.mark.parametrize("damage", ["short", "empty", "deleted"])
    def test_a_log_shorter_than_its_index_is_refused(self, tmp_path, damage):
        raw = serialize_block(_block())
        store = BlockStore(10**6, data_dir=str(tmp_path))
        address = store.put(raw)
        log = tmp_path / LOG_NAME
        if damage == "deleted":
            log.unlink()
        else:
            os.truncate(log, len(raw) - 1 if damage == "short" else 0)
        with pytest.raises(IntegrityError, match=LOG_NAME):
            store.get(address)
        service = NodeService("a:1", store, make_node_file(["a:1"]))
        reply = service.handle(Frame(MsgType.GET_BLOCK, {"address": address.hex()}))
        assert reply.type is MsgType.ERROR and LOG_NAME in reply.header["reason"]

    def test_data_dir_holds_only_the_log_and_a_duplicate_appends_nothing(self, tmp_path):
        store = BlockStore(10**6, data_dir=str(tmp_path))
        raw = serialize_block(_block())
        store.put(raw)
        store.put(raw)
        assert [p.name for p in tmp_path.iterdir()] == [LOG_NAME]
        assert (tmp_path / LOG_NAME).read_bytes() == raw

    @pytest.mark.parametrize("short", [False, True], ids=["enospc", "short-write"])
    def test_failed_append_stores_nothing(self, tmp_path, monkeypatch, short):
        kept, raw = serialize_block(_block(b"kept")), serialize_block(_block())
        address = _block().current_hash
        store = BlockStore(10**6, data_dir=str(tmp_path))
        store.put(kept)
        service = NodeService("a:1", store, make_node_file(["a:1"]))

        class FullDisk(io.FileIO):
            """A log on a disk that fills up halfway through the next write."""

            def write(self, data):
                written = super().write(data[: len(data) // 2])
                if short:
                    return written
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(blockstore, "open", lambda path, mode, buffering: FullDisk(path, mode), raising=False)
        store_ready = Frame(MsgType.STORE_READY, {"next_size": "0", "elect": "0"}, raw)
        assert service.handle(store_ready).type is MsgType.ERROR
        assert not store.has(address)
        assert store.used_bytes == len(kept)
        assert (tmp_path / LOG_NAME).read_bytes() == kept
        monkeypatch.undo()
        assert service.handle(store_ready).type is MsgType.STORE_ACK
        assert BlockStore(10**6, data_dir=str(tmp_path)).get(address) == raw


def _sim_pair(quota=10**9):
    nodes = ("a:1", "b:1")
    net = SimNet(5.0)
    nf = make_node_file(nodes)
    services = {}
    for addr in nodes:
        services[addr] = NodeService(addr, BlockStore(quota), nf, transport=net)
        net.add_node(addr, services[addr])
    return net, nf, services


class TestNodeService:
    def test_ping_pong(self):
        net, _, _ = _sim_pair()
        reply, _ = net.request("u:0", "a:1", Frame(MsgType.PING))
        assert reply.type is MsgType.PONG

    def test_get_nf_serves_canonical_bytes(self):
        net, nf, _ = _sim_pair()
        reply, _ = net.request("u:0", "a:1", Frame(MsgType.GET_NF))
        assert reply.type is MsgType.NF_DATA
        assert reply.body == nf.canonical_bytes()
        assert reply.header["digest"] == nf.digest.hex()
        assert parse_node_file(reply.body) == nf

    def test_store_ack_names_the_stored_address(self):
        net, _, _ = _sim_pair()
        block = _block()
        frame = Frame(MsgType.STORE_READY, {"next_size": "0", "elect": "0"}, serialize_block(block))
        reply, _ = net.request("u:0", "a:1", frame)
        assert reply.type is MsgType.STORE_ACK
        address = block.current_hash
        assert reply.header["stored"] == address.hex()

    def test_block_with_no_data_is_refused_and_stores_nothing(self):
        net, _, services = _sim_pair()
        frame = Frame(MsgType.STORE_READY, {"next_size": "0", "elect": "0"}, _empty_record())
        reply, _ = net.request("u:0", "a:1", frame)
        assert reply.type is MsgType.ERROR
        assert "non-empty" in reply.header["reason"]
        assert services["a:1"].store.used_bytes == 0 and stored_addresses(services["a:1"].store) == set()

    @pytest.mark.parametrize("over", [0, 1])
    def test_block_it_could_not_serve_back_is_refused(self, monkeypatch, over):
        # the cap fits the STORE_READY; the BLOCK_DATA that would serve the block is `over` bytes past it
        _, _, services = _sim_pair()
        service = services["a:1"]
        block = _block()
        raw = serialize_block(block)
        served = encode_frame(Frame(MsgType.BLOCK_DATA, {"address": block.current_hash.hex()}, raw))
        monkeypatch.setattr(frames, "MAX_FRAME", len(served) - over)
        store_ready = Frame(MsgType.STORE_READY, {"next_size": "0", "elect": "0"}, raw)
        encode_frame(store_ready)  # within the cap
        reply = service.handle(store_ready)
        if over:
            assert reply.type is MsgType.ERROR
            assert "cap" in reply.header["reason"]
            assert service.store.used_bytes == 0
            assert not service.store.has(block.current_hash)
        else:
            assert reply.type is MsgType.STORE_ACK
            get = Frame(MsgType.GET_BLOCK, {"address": block.current_hash.hex()})
            assert encode_frame(service.handle(get)) == served

    def test_election_refuses_when_quota_too_small(self):
        net, _, _ = _sim_pair(quota=10 * 1024 * 1024)
        reply, _ = net.request("u:0", "a:1", Frame(MsgType.ELECTION, {"size": str(20 * 1024 * 1024)}))
        assert reply.type is MsgType.REFUSE
        ok, _ = net.request("u:0", "a:1", Frame(MsgType.ELECTION, {"size": "1024"}))
        assert ok.type is MsgType.TAKEPART
        assert int(ok.header["freespace"]) == 10 * 1024 * 1024

    def test_get_block_miss_is_error(self):
        net, _, _ = _sim_pair()
        reply, _ = net.request("u:0", "a:1", Frame(MsgType.GET_BLOCK, {"address": "00" * 32}))
        assert reply.type is MsgType.ERROR
        has, _ = net.request("u:0", "a:1", Frame(MsgType.HAS_BLOCK, {"address": "00" * 32}))
        assert has.header["has"] == "0"

    def test_unsupported_type_yields_error(self):
        net, _, _ = _sim_pair()
        reply, _ = net.request("u:0", "a:1", Frame(MsgType.PONG))
        assert reply.type is MsgType.ERROR
        assert reply.header["reason"] == "unsupported message type PONG"

    def test_handle_dispatches_to_overrides_and_instance_patches(self):
        class Busy(NodeService):
            def _on_election(self, frame):
                return Frame(MsgType.REFUSE, {"freespace": "0"})

        net, nf, services = _sim_pair()
        net.add_node("a:1", Busy("a:1", BlockStore(10**9), nf, transport=net))
        election = Frame(MsgType.ELECTION, {"size": "1"})
        assert net.request("u:0", "a:1", election)[0].type is MsgType.REFUSE
        assert net.request("u:0", "b:1", election)[0].type is MsgType.TAKEPART
        services["b:1"]._on_pong = lambda frame: Frame(MsgType.PING)
        assert net.request("u:0", "b:1", Frame(MsgType.PONG))[0].type is MsgType.PING

    @pytest.mark.parametrize(
        "frame",
        [
            Frame(MsgType.GET_BLOCK),
            Frame(MsgType.GET_BLOCK, {"address": "zz" * 32}),
            Frame(MsgType.GET_BLOCK, {"address": "00" * 31}),
            Frame(MsgType.HAS_BLOCK, {"address": ""}),
            Frame(MsgType.HAS_BLOCK, {"address": "00" * 32, "address2": "00" * 31}),
            Frame(MsgType.ELECTION, {"size": "1.5"}),
            Frame(MsgType.STORE_READY, {"next_size": "ten", "elect": "1"}, serialize_block(_block())),
            *[Frame(MsgType.ELECTION, {"size": value}) for value in NON_CANONICAL_INTS],
            *[
                Frame(MsgType.STORE_READY, {"next_size": value, "elect": "1"}, serialize_block(_block()))
                for value in NON_CANONICAL_INTS
            ],
        ],
    )
    def test_malformed_frame_yields_error(self, frame):
        net, _, services = _sim_pair()
        reply, _ = net.request("u:0", "a:1", frame)
        assert reply.type is MsgType.ERROR
        assert services["a:1"].store.used_bytes == 0

    def test_store_ack_candidates_are_the_ranked_addresses_comma_joined(self):
        nodes = ("a:1", "b:1", "c:1", "d:1")
        matrix = {}
        for n, lat in zip(nodes[1:], (20.0, 5.0, 10.0)):
            matrix[("a:1", n)] = matrix[(n, "a:1")] = lat
        net = SimNet(1.0, matrix=matrix)
        nf = make_node_file(nodes)
        for addr in nodes:
            net.add_node(addr, NodeService(addr, BlockStore(10**9), nf, transport=net))
        frame = Frame(MsgType.STORE_READY, {"next_size": "64", "elect": "1"}, serialize_block(_block()))
        reply, _ = net.request("u:0", "a:1", frame)
        ranked = run_campaign(net, "a:1", 64, nf, PorConfig()).candidates
        assert ranked == ("c:1", "d:1", "b:1")  # equal free space: the nearest follower first
        assert reply.header["candidates"] == ",".join(ranked)

    def test_failed_campaign_is_an_error_and_the_block_stays_stored(self):
        net, _, services = _sim_pair()
        net.remove_node("b:1")  # the one follower: its poll fails, so no candidate is left
        block = _block()
        frame = Frame(MsgType.STORE_READY, {"next_size": "64", "elect": "1"}, serialize_block(block))
        reply, _ = net.request("u:0", "a:1", frame, 4000.0)  # the campaign waits out its 1,000 ms poll timeout
        assert reply.type is MsgType.ERROR
        assert reply.header == {"reason": "no candidate can hold a 64-byte block"}
        assert services["a:1"].store.has(block.current_hash)

    def test_store_ack_naming_46_followers_travels_whole(self):
        net, nf, _, _ = build_cluster(ClusterSpec(nodes=47, latency_ms=5.0))
        frame = Frame(MsgType.STORE_READY, {"next_size": "64", "elect": "1"}, serialize_block(_block()))
        ack, _ = net.request("u:0", nf.addresses[0], frame)
        assert len(ack.header["candidates"].split(",")) == 46
        assert decode_frame(encode_frame(ack)) == ack

    @pytest.mark.parametrize("stored,has", [((0,), "10"), ((1,), "01"), ((0, 1), "11"), ((), "00")])
    def test_two_address_has_block_answers_each_address(self, stored, has):
        net, _, services = _sim_pair()
        raws = [serialize_block(_block(data)) for data in (b"first", b"second")]
        addresses = [_block(data).current_hash.hex() for data in (b"first", b"second")]
        for i in stored:
            services["a:1"].store.put(raws[i])
        frame = Frame(MsgType.HAS_BLOCK, {"address": addresses[0], "address2": addresses[1]})
        reply, _ = net.request("u:0", "a:1", frame)
        assert reply.type is MsgType.HAS_BLOCK_REPLY
        assert reply.header == {"has": has}


class _Recorder:
    """A transport that records the one frame each exchange sends to every node, and passes it on."""

    def __init__(self, net):
        self.net = net
        self.frames = []

    def exchange(self, origin, requests, timeout_ms=1000.0):
        frames = [frame for _, frame in requests]
        assert all(frame is frames[0] for frame in frames)
        self.frames.append(frames[0])
        return self.net.exchange(origin, requests, timeout_ms)


class TestResolve:
    def test_one_address_frames_are_unchanged_on_the_wire(self):
        net, nf, services = _sim_pair()
        address = services["b:1"].store.put(serialize_block(_block()))
        recorder = _Recorder(net)
        resolve(recorder, "u:0", [address], nf)
        (query,) = recorder.frames
        # magic, type 16, header length 74, body length 0, header
        assert encode_frame(query) == (
            b"HAIN\x10\x00\x00\x00\x4a" + bytes(8) + b"address: " + address.hex().encode() + b"\n"
        )
        reply = services["b:1"].handle(query)
        assert encode_frame(reply) == b"HAIN\x11\x00\x00\x00\x07" + bytes(8) + b"has: 1\n"

    def test_two_addresses_one_broadcast(self):
        net, nf, services = _sim_pair()
        first = services["a:1"].store.put(serialize_block(_block(b"first")))
        second = services["b:1"].store.put(serialize_block(_block(b"second")))
        services["a:1"].store.put(serialize_block(_block(b"second")))
        recorder = _Recorder(net)
        holders = resolve(recorder, "u:0", [first, second], nf)
        assert len(recorder.frames) == 1
        assert holders == [["a:1"], ["a:1", "b:1"]]

    def test_unique_holder_found(self):
        net, nf, services = _sim_pair()
        raw = serialize_block(_block())
        address = services["b:1"].store.put(raw)
        assert resolve(net, "u:0", [address], nf) == [["b:1"]]

    def test_holders_come_in_roster_order_whatever_their_reply_times(self):
        nodes = ("a:1", "b:1", "c:1")
        matrix = {}
        for n, lat in zip(nodes, (50.0, 2.5, 25.0)):  # the later holder answers first
            matrix[("u:0", n)] = lat
            matrix[(n, "u:0")] = lat
        net = SimNet(10.0, matrix=matrix)
        nf = make_node_file(nodes)
        services = {}
        for addr in nodes:
            services[addr] = NodeService(addr, BlockStore(10**9), nf, transport=net)
            net.add_node(addr, services[addr])
        raw = serialize_block(_block())
        address = services["a:1"].store.put(raw)
        services["b:1"].store.put(raw)
        assert resolve(net, "u:0", [address], nf) == [["a:1", "b:1"]]

    def test_unknown_address_not_found(self):
        net, nf, _ = _sim_pair()
        assert resolve(net, "u:0", [bytes(32)], nf) == [[]]


class _SlowEcho:
    """Answers every frame with a PONG naming it, after the delay it asks for."""

    def handle(self, frame):
        time.sleep(float(frame.header.get("delay", "0")))
        return Frame(MsgType.PONG, {"n": frame.header.get("n", "")})


def _serve(port=0, service=None):
    """Start a loopback node (an empty store unless `service` is given); returns (server, address)."""
    server = NodeServer(("127.0.0.1", port), service)
    listen = f"127.0.0.1:{server.server_address[1]}"
    if service is None:
        server.service = NodeService(listen, BlockStore(10**9), make_node_file([listen]))
    server.serve_background()
    return server, listen


def _stop(*servers):
    # each shutdown() waits up to one poll of serve_forever; overlap them
    stoppers = [threading.Thread(target=server.shutdown) for server in servers]
    for stopper in stoppers:
        stopper.start()
    for stopper in stoppers:
        stopper.join(timeout=5)
    for server in servers:
        server.server_close()


class _SpeaksGarbage(socketserver.BaseRequestHandler):
    """Answers every frame with 17 bytes that are not a frame head."""

    def handle(self):
        while recv_frame(self.request) is not None:
            self.request.sendall(b"XXXX" + bytes(13))


class _ReadsLate(socketserver.BaseRequestHandler):
    """Starts reading 0.2 s after the connection opens, then answers every frame with a PONG."""

    def handle(self):
        time.sleep(0.2)
        while recv_frame(self.request) is not None:
            send_frame(self.request, Frame(MsgType.PONG))


class _RawServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


def _serve_raw(handler, port=0):
    """Start a loopback server that answers through `handler`, not a NodeService; returns (server, address)."""
    server = _RawServer(("127.0.0.1", port), handler)
    threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True).start()
    return server, f"127.0.0.1:{server.server_address[1]}"


def _pings(addresses):
    """An exchange's requests: one PING to each address."""
    return [(address, Frame(MsgType.PING)) for address in addresses]


@pytest.fixture
def connects(monkeypatch):
    """Record every connect a client socket starts (RealNet connects with socket.connect_ex)."""
    calls = []
    connect_ex = socket.socket.connect_ex

    def counting(sock, address):
        calls.append(address)
        return connect_ex(sock, address)

    monkeypatch.setattr(socket.socket, "connect_ex", counting)
    return calls


@pytest.fixture
def tcp_nodes():
    nodes = [_serve() for _ in range(3)]
    net = RealNet()
    yield [listen for _, listen in nodes], net
    net.close()
    _stop(*(server for server, _ in nodes))


@pytest.mark.parametrize("payload_size", [10, 5000])
def test_real_tcp_roundtrip(payload_size, tcp_nodes):
    # loopback smoke test of the socket transport against a live node
    (listen, *_), net = tcp_nodes
    reply, rtt = net.request("client:0", listen, Frame(MsgType.PING))
    assert reply.type is MsgType.PONG and rtt > 0
    block = _block(random.Random(1).randbytes(payload_size))
    store = Frame(MsgType.STORE_READY, {"next_size": "0", "elect": "0"}, serialize_block(block))
    ack, _ = net.request("client:0", listen, store)
    assert ack.type is MsgType.STORE_ACK
    got, _ = net.request("client:0", listen, Frame(MsgType.GET_BLOCK, {"address": block.current_hash.hex()}))
    assert got.type is MsgType.BLOCK_DATA
    assert got.body == serialize_block(block)


class TestTransportContract:
    def test_sequential_requests_share_one_connection(self, tcp_nodes, connects):
        (listen, *_), net = tcp_nodes
        for _ in range(20):
            reply, _ = net.request("client:0", listen, Frame(MsgType.PING))
            assert reply.type is MsgType.PONG
        assert len(connects) == 1

    def test_failed_connect_moves_on_to_the_next_address(self, tcp_nodes, connects, monkeypatch):
        (listen, *_), net = tcp_nodes
        closed = socket.socket()
        closed.bind(("127.0.0.1", 0))  # bound but not listening: a connect to it is refused
        refused = closed.getsockname()
        live = ("127.0.0.1", int(listen.rpartition(":")[2]))
        resolved = [(socket.AF_INET, socket.SOCK_STREAM, socket.IPPROTO_TCP, "", a) for a in (refused, live)]
        monkeypatch.setattr(socket, "getaddrinfo", lambda *args, **kwargs: list(resolved))
        try:
            reply, _ = net.request("client:0", listen, Frame(MsgType.PING))
        finally:
            closed.close()
        assert reply.type is MsgType.PONG
        assert connects == [refused, live]

    def test_realnet_starts_no_thread(self, tcp_nodes):
        addresses, net = tcp_nodes
        for address in addresses:  # a node starts one handler thread per new connection
            net.request("client:0", address, Frame(MsgType.PING))
        threads = threading.active_count()
        for _ in range(11):
            results = net.exchange("client:0", _pings(addresses))
            assert [reply.type for reply, _ in results] == [MsgType.PONG] * 3
        assert threading.active_count() == threads

    @staticmethod
    def _ping_slow_echoes(delays, timeout_ms):
        """One exchange of a PING to each of len(delays) slow echo nodes: (results, wall seconds)."""
        served = [_serve(service=_SlowEcho()) for _ in delays]
        net = RealNet()
        try:
            requests = [
                (listen, Frame(MsgType.PING, {"n": str(i), "delay": str(delay)}))
                for i, ((_, listen), delay) in enumerate(zip(served, delays))
            ]
            t0 = time.monotonic()
            results = net.exchange("client:0", requests, timeout_ms)
            return results, time.monotonic() - t0
        finally:
            net.close()
            _stop(*(server for server, _ in served))

    def test_exchange_waits_for_the_replies_at_once(self):
        results, elapsed = self._ping_slow_echoes([0.2, 0.2], timeout_ms=2000)
        assert [reply.header["n"] for reply, _ in results] == ["0", "1"]
        assert elapsed < 0.4

    def test_silent_peer_costs_only_its_own_reply(self):
        results, elapsed = self._ping_slow_echoes([0, 1.0, 0], timeout_ms=300)
        assert [results[i][0].header["n"] for i in (0, 2)] == ["0", "2"]
        assert isinstance(results[1], NetworkError)
        assert 0.3 <= elapsed < 0.6

    def test_two_silent_peers_cost_one_deadline(self):
        results, elapsed = self._ping_slow_echoes([1.0, 1.0], timeout_ms=300)
        assert all(isinstance(result, NetworkError) for result in results)
        assert 0.3 <= elapsed < 0.6

    def test_peer_that_never_accepts_costs_only_its_own_reply(self):
        # a listener whose accept queue is full drops further SYNs, as a host that is down does
        unreachable = socket.socket()
        unreachable.bind(("127.0.0.1", 0))
        unreachable.listen(0)
        filler = socket.create_connection(unreachable.getsockname())
        unreachable_listen = f"127.0.0.1:{unreachable.getsockname()[1]}"
        served = [_serve() for _ in range(2)]
        addresses = [served[0][1], unreachable_listen, served[1][1]]
        net = RealNet()
        try:
            t0 = time.monotonic()
            results = net.exchange("client:0", _pings(addresses), timeout_ms=300)
            elapsed = time.monotonic() - t0
            assert [results[i][0].type for i in (0, 2)] == [MsgType.PONG] * 2
            assert isinstance(results[1], NetworkError)
            assert 0.3 <= elapsed < 0.6
        finally:
            net.close()
            filler.close()
            unreachable.close()
            _stop(*(server for server, _ in served))

    def test_interrupted_exchange_closes_every_socket(self, tcp_nodes, monkeypatch):
        addresses, net = tcp_nodes
        ports = {int(address.rpartition(":")[2]) for address in addresses}
        read = realnet._Reader.read

        def fails_on_the_client(reader, sock):  # the node side reads frames with the same reader
            if sock.getpeername()[1] in ports:
                raise MemoryError("no room for the reply")
            return read(reader, sock)

        monkeypatch.setattr(realnet._Reader, "read", fails_on_the_client)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(MemoryError):
                net.exchange("client:0", _pings(addresses))
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_stopped_node_fails_and_restarted_node_answers(self, connects):
        server, listen = _serve()
        port = int(listen.rpartition(":")[2])
        net = RealNet()
        try:
            net.request("client:0", listen, Frame(MsgType.PING))
            _stop(server)
            # the pooled socket is dead and nothing listens any more
            with pytest.raises(NetworkError):
                net.request("client:0", listen, Frame(MsgType.PING))
            server, _ = _serve(port)
            net.request("client:0", listen, Frame(MsgType.PING))
            _stop(server)
            server, _ = _serve(port)
            before = len(connects)
            reply, _ = net.request("client:0", listen, Frame(MsgType.PING))
            assert reply.type is MsgType.PONG
            assert len(connects) == before + 1  # the stale socket, then one fresh one
        finally:
            net.close()
            _stop(server)

    def test_timed_out_socket_is_discarded(self, connects):
        server, listen = _serve(service=_SlowEcho())
        net = RealNet()
        try:
            with pytest.raises(NetworkError):
                net.request("client:0", listen, Frame(MsgType.PING, {"n": "1", "delay": "0.3"}), timeout_ms=100)
            reply, _ = net.request("client:0", listen, Frame(MsgType.PING, {"n": "2"}), timeout_ms=1000)
            assert reply.header["n"] == "2"
            assert len(connects) == 2
        finally:
            net.close()
            _stop(server)

    def test_request_larger_than_the_socket_buffers_is_sent_in_parts(self):
        server, listen = _serve_raw(_ReadsLate)
        net = RealNet()
        try:
            reply, _ = net.request("client:0", listen, Frame(MsgType.STORE_READY, body=bytes(12 * 1024 * 1024)), 5000)
            assert reply.type is MsgType.PONG
        finally:
            net.close()
            _stop(server)

    def test_frame_a_peer_would_refuse_raises_before_any_connect(self, tcp_nodes, connects):
        (listen, *_), net = tcp_nodes
        with pytest.raises(ParseError, match="carries no body"):
            net.exchange("client:0", [(listen, Frame(MsgType.PING, body=b"x"))])
        assert connects == []

    def test_malformed_frame_keeps_the_connection(self, tcp_nodes, connects):
        (listen, *_), net = tcp_nodes
        bad, _ = net.request("client:0", listen, Frame(MsgType.GET_BLOCK, {"address": "not hex"}))
        assert bad.type is MsgType.ERROR
        good, _ = net.request("client:0", listen, Frame(MsgType.HAS_BLOCK, {"address": "00" * 32}))
        assert good.type is MsgType.HAS_BLOCK_REPLY and good.header["has"] == "0"
        assert len(connects) == 1


class TestGarbageReplies:
    """A node that answers with bytes that are not a frame costs only its own replies."""

    def test_broadcast_keeps_the_good_reply(self):
        good, good_listen = _serve()
        bad, bad_listen = _serve_raw(_SpeaksGarbage)
        net = RealNet()
        try:
            good_result, bad_result = net.exchange("client:0", _pings([good_listen, bad_listen]))
            assert good_result[0].type is MsgType.PONG
            assert isinstance(bad_result, ParseError)
        finally:
            net.close()
            _stop(good, bad)

    def test_block_downloads_from_its_second_holder(self):
        servers = [NodeServer(("127.0.0.1", 0), None) for _ in range(3)]
        addresses = [f"127.0.0.1:{server.server_address[1]}" for server in servers]
        nf = make_node_file(addresses)
        services = {}
        for server, address in zip(servers, addresses):
            server.service = services[address] = NodeService(address, BlockStore(10**9), nf, PorConfig(), RealNet())
            server.serve_background()
        net = RealNet()
        try:
            file = random.Random(7).randbytes(3000)
            meta = upload(file, 6, PorConfig(), nf, net, seed=7).meta
            first = meta.first_beginner  # the header's recorded holder: asked first
            second = next(a for a in addresses if a != first)
            for address in stored_addresses(services[first].store):
                services[second].store.put(services[first].store.get(address))
            i = addresses.index(first)
            _stop(servers[i])
            servers[i], _ = _serve_raw(_SpeaksGarbage, int(first.rpartition(":")[2]))
            for mode in ("bi", "uni"):
                assert download(meta, nf, net, mode=mode).data == file
        finally:
            net.close()
            _stop(*servers)
            for service in services.values():
                service.transport.close()


def _huge_head(msg_type):
    """A frame head declaring the largest frame the cap allows, all of it body."""
    return frames.HEADER_FMT.pack(frames.MAGIC, msg_type, 0, frames.MAX_FRAME - frames.FRAME_OVERHEAD)


def _dribble(sock, frame):
    """Send a frame one byte per send, with a pause after each, so that its reader gets the head in parts."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    for byte in encode_frame(frame):
        sock.sendall(bytes((byte,)))
        time.sleep(0.0005)


_DRIBBLED = Frame(MsgType.BLOCK_DATA, {"n": "1"}, bytes(range(50)))


class _Dribbles(socketserver.BaseRequestHandler):
    """Answers every frame with _DRIBBLED, one byte per send."""

    def handle(self):
        while recv_frame(self.request) is not None:
            _dribble(self.request, _DRIBBLED)


class _OneByteTooMany(socketserver.BaseRequestHandler):
    """Answers every frame with a PONG; one whose header asks for it gets one byte more, in the same send."""

    def handle(self):
        while (frame := recv_frame(self.request)) is not None:
            extra = b"\0" if frame.header.get("extra") else b""
            self.request.sendall(encode_frame(Frame(MsgType.PONG)) + extra)


class _StallsAfterAHugeHead(socketserver.BaseRequestHandler):
    """Answers the first frame with a head declaring a 64 MiB BLOCK_DATA, then sends nothing until the caller hangs up."""

    def handle(self):
        if recv_frame(self.request) is not None:
            self.request.sendall(_huge_head(MsgType.BLOCK_DATA))
            self.request.recv(1)


class _Trickle:
    """A socket stand-in that hands out a frame's bytes `step` at a time, recording each read's (bytes in, bytes asked)."""

    def __init__(self, data, step):
        self.data, self.step, self.at, self.asks = data, step, 0, []

    def _next(self, asked):
        self.asks.append((self.at, asked))
        chunk = self.data[self.at : self.at + min(asked, self.step)]
        self.at += len(chunk)
        return chunk

    def recv(self, size):
        return self._next(size)

    def recv_into(self, buffer):
        chunk = self._next(len(buffer))
        buffer[: len(chunk)] = chunk
        return len(chunk)


@pytest.fixture
def recvs(monkeypatch):
    """Record (local port, method name) for every recv and recv_into a socket returns from."""
    calls = []

    def counting(method):
        def wrapper(sock, *args):
            port = sock.getsockname()[1]
            try:
                return method(sock, *args)
            finally:
                calls.append((port, method.__name__))

        return wrapper

    for name in ("recv", "recv_into"):
        monkeypatch.setattr(socket.socket, name, counting(getattr(socket.socket, name)))
    return calls


class TestFrameReads:
    """Client and node read a frame with one recv when it is small, and hold only what has arrived of a large one."""

    @pytest.mark.parametrize(
        "frame",
        [Frame(MsgType.PING), Frame(MsgType.HAS_BLOCK, {"address": "00" * 32}), Frame(MsgType.ELECTION, {"size": "10"})],
        ids=lambda frame: frame.type.name,
    )
    def test_small_frame_costs_one_recv_on_each_end(self, recvs, tcp_nodes, frame):
        (listen, *_), net = tcp_nodes
        node = int(listen.rpartition(":")[2])
        net.request("client:0", listen, Frame(MsgType.PING))  # connects
        recvs.clear()
        net.request("client:0", listen, frame)
        calls = list(recvs)
        assert [name for port, name in calls if port == node] == ["recv"]  # the node's blocking socket
        assert [name for port, name in calls if port != node] == ["recv"]  # the client's non-blocking one

    def test_frame_sent_a_byte_at_a_time_decodes_on_the_client(self):
        server, listen = _serve_raw(_Dribbles)
        net = RealNet()
        try:
            reply, _ = net.request("client:0", listen, Frame(MsgType.PING), 5000)
            assert reply == _DRIBBLED
        finally:
            net.close()
            _stop(server)

    def test_frame_sent_a_byte_at_a_time_decodes_on_the_node(self):
        server, listen = _serve()
        block = _block(bytes(range(40)))
        try:
            with socket.create_connection(("127.0.0.1", server.server_address[1]), timeout=5) as sock:
                _dribble(sock, Frame(MsgType.STORE_READY, {"next_size": "0", "elect": "0"}, serialize_block(block)))
                ack = recv_frame(sock)
            assert ack.type is MsgType.STORE_ACK and ack.header["stored"] == block.current_hash.hex()
        finally:
            _stop(server)

    def test_megabyte_block_travels_byte_identical_in_an_exact_buffer(self, tcp_nodes):
        (listen, *_), net = tcp_nodes
        block = _block(random.Random(2).randbytes(1 << 20))
        raw = serialize_block(block)
        store = Frame(MsgType.STORE_READY, {"next_size": "0", "elect": "0"}, raw)
        ack, _ = net.request("client:0", listen, store, 5000)
        assert ack.header["stored"] == block.current_hash.hex()
        reply, _ = net.request("client:0", listen, Frame(MsgType.GET_BLOCK, {"address": block.current_hash.hex()}), 5000)
        assert reply.type is MsgType.BLOCK_DATA and reply.body == raw
        buffer = reply.body.obj
        assert len(buffer) == frames.block_data_size(len(raw))
        assert sys.getsizeof(buffer) - sys.getsizeof(bytearray()) - len(buffer) <= 2  # grown to the frame, no slack

    @pytest.mark.parametrize("step", [3, 1000, 1 << 20])
    def test_each_read_asks_for_at_most_what_is_in(self, step):
        raw = encode_frame(Frame(MsgType.BLOCK_DATA, {"n": "1"}, random.Random(3).randbytes(100_000)))
        sock = _Trickle(raw, step)
        reader = realnet._Reader()
        assert reader.read(sock) and reader.raw == raw
        assert sock.asks[0] == (0, realnet.FIRST_READ)
        assert all(asked <= at for at, asked in sock.asks if at >= frames.FRAME_OVERHEAD)
        assert sys.getsizeof(reader.raw) - sys.getsizeof(bytearray()) - len(raw) <= 2

    @pytest.mark.parametrize("total", [4097, 5091, 9000, 17000])
    def test_frame_just_past_the_first_read_ends_with_no_slack(self, total):
        raw = encode_frame(Frame(MsgType.BLOCK_DATA, {}, bytes(total - frames.FRAME_OVERHEAD)))
        reader = realnet._Reader()
        assert reader.read(_Trickle(raw, 1 << 20)) and reader.raw == raw  # FIRST_READ bytes, then the rest
        assert sys.getsizeof(reader.raw) - sys.getsizeof(bytearray()) - len(raw) <= 2

    def test_bytes_past_the_reply_fail_the_request_and_its_socket(self, connects):
        server, listen = _serve_raw(_OneByteTooMany)
        net = RealNet()
        try:
            with pytest.raises(ParseError, match="past the frame"):
                net.request("client:0", listen, Frame(MsgType.PING, {"extra": "1"}))
            reply, _ = net.request("client:0", listen, Frame(MsgType.PING))
            assert reply.type is MsgType.PONG
            assert len(connects) == 2  # the failed request's socket was closed, not pooled
        finally:
            net.close()
            _stop(server)

    def test_ping_head_declaring_a_body_drops_the_connection(self):
        server, _ = _serve()
        head = bytearray(encode_frame(Frame(MsgType.PING)))
        head[9:17] = (4).to_bytes(8, "big")
        try:
            with socket.create_connection(("127.0.0.1", server.server_address[1]), timeout=2) as sock:
                sock.sendall(head)  # the head alone: the node refuses it without waiting for the body
                assert sock.recv(1) == b""
        finally:
            _stop(server)

    def test_has_block_with_a_repeated_address_drops_the_connection(self):
        server, listen = _serve()
        header = f"address: {'00' * 32}\naddress: {'11' * 32}\n".encode()
        frame = frames.HEADER_FMT.pack(frames.MAGIC, int(MsgType.HAS_BLOCK), len(header), 0) + header
        try:
            with socket.create_connection(("127.0.0.1", server.server_address[1]), timeout=2) as sock:
                sock.sendall(frame)  # refused like any other malformed frame: no reply, the connection closed
                assert sock.recv(1) == b""
            net = RealNet()
            try:
                reply, _ = net.request("client:0", listen, Frame(MsgType.HAS_BLOCK, {"address": "00" * 32}))
                assert reply.header["has"] == "0"
            finally:
                net.close()
        finally:
            _stop(server)

    def test_node_holds_only_what_arrived_of_a_declared_frame(self, monkeypatch):
        server, _ = _serve()
        checked = threading.Event()
        frame_length = realnet.frame_length

        def noting(raw):
            try:
                return frame_length(raw)
            finally:
                checked.set()

        monkeypatch.setattr(realnet, "frame_length", noting)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with socket.create_connection(("127.0.0.1", server.server_address[1]), timeout=5) as sock:
                sock.sendall(_huge_head(MsgType.STORE_READY))
                assert checked.wait(5)
                time.sleep(0.1)  # the node's reader is back in recv, its buffer made
                held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            _stop(server)
        assert held < 1 << 20, f"the node holds {held} bytes for a 17-byte head"

    def test_stalled_huge_reply_costs_the_caller_only_its_bytes(self):
        server, listen = _serve_raw(_StallsAfterAHugeHead)
        net = RealNet()
        tracemalloc.start()
        try:
            t0 = time.monotonic()
            (result,) = net.exchange("client:0", [(listen, Frame(MsgType.ELECTION, {"size": "10"}))], timeout_ms=300)
            elapsed = time.monotonic() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            net.close()
            _stop(server)
        assert isinstance(result, NetworkError) and "timed out" in str(result)
        assert 0.3 <= elapsed < 0.6
        assert peak < 1 << 20, f"the caller peaked at {peak} bytes for a 17-byte head"


class TestIdleConnections:
    """A node closes a connection that delivers no byte, or takes none, for IDLE_TIMEOUT_S, here 0.2 s."""

    @pytest.fixture(autouse=True)
    def short_idle(self, monkeypatch):
        monkeypatch.setattr(node, "IDLE_TIMEOUT_S", 0.2)

    def test_idle_connection_is_closed(self):
        server, _ = _serve()
        try:
            with socket.create_connection(("127.0.0.1", server.server_address[1]), timeout=5) as sock:
                t0 = time.monotonic()
                assert sock.recv(1) == b""  # closed by the node, without a byte sent either way
                assert 0.15 <= time.monotonic() - t0 < 2
        finally:
            _stop(server)

    def test_silent_and_stalled_peers_do_not_delay_another_client(self):
        server, listen = _serve()
        net = RealNet()
        port = server.server_address[1]
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=5) as idle, socket.create_connection(
                ("127.0.0.1", port), timeout=5
            ) as stalled:
                stalled.sendall(encode_frame(Frame(MsgType.PING))[:9])  # half a head, then nothing
                reply, _ = net.request("client:0", listen, Frame(MsgType.PING))
                assert reply.type is MsgType.PONG
                assert idle.recv(1) == b"" and stalled.recv(1) == b""  # each is closed, mid-frame or not
        finally:
            net.close()
            _stop(server)

    def test_pooled_socket_the_node_dropped_costs_one_retry(self, connects):
        server, listen = _serve()
        net = RealNet()
        try:
            net.request("client:0", listen, Frame(MsgType.PING))
            time.sleep(0.5)  # the node drops the pooled connection meanwhile
            reply, _ = net.request("client:0", listen, Frame(MsgType.PING))
            assert reply.type is MsgType.PONG
            assert len(connects) == 2  # the first connection, then the retry's fresh one
        finally:
            net.close()
            _stop(server)


    def test_peer_that_never_reads_its_reply_frees_the_node_thread(self):
        # a 12 MiB reply fills the node's send buffer and the peer's small receive buffer
        server, listen = _serve()
        block = _block(random.Random(5).randbytes(12 * 1024 * 1024))
        server.service.store.put(serialize_block(block))
        net = RealNet()
        try:
            with socket.socket() as reader:
                reader.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
                reader.connect(server.server_address)
                reader.sendall(encode_frame(Frame(MsgType.GET_BLOCK, {"address": block.current_hash.hex()})))
                assert reader.recv(1, socket.MSG_PEEK)  # the node is sending; nothing is taken off the socket
                deadline = time.monotonic() + 5
                while server._live and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert not server._live, "the node still holds the connection of a peer that reads nothing"
                reply, _ = net.request("client:0", listen, Frame(MsgType.PING))
                assert reply.type is MsgType.PONG
        finally:
            net.close()
            _stop(server)


def test_connection_past_the_cap_is_closed_unanswered(monkeypatch):
    monkeypatch.setattr(node, "MAX_CONNECTIONS", 2)
    server, _ = _serve()
    address = server.server_address
    try:
        with socket.create_connection(address, timeout=5) as first, socket.create_connection(
            address, timeout=5
        ) as second:
            for sock in (first, second):  # each answered, so each is live before the third connects
                send_frame(sock, Frame(MsgType.PING))
                assert recv_frame(sock).type is MsgType.PONG
            with socket.create_connection(address, timeout=5) as third:
                assert third.recv(1) == b""
            assert len(server._live) == 2
            for sock in (first, second):
                send_frame(sock, Frame(MsgType.PING))
                assert recv_frame(sock).type is MsgType.PONG
    finally:
        _stop(server)


def test_tcp_cluster_restarted_on_its_data_dirs_serves_the_file(tmp_path):
    servers = [NodeServer(("127.0.0.1", 0), None) for _ in range(4)]
    addresses = [f"127.0.0.1:{server.server_address[1]}" for server in servers]
    nf = make_node_file(addresses)

    def serve(server, address):
        store = BlockStore(10**9, data_dir=str(tmp_path / address.rpartition(":")[2]))
        server.service = NodeService(address, store, nf, PorConfig(), RealNet())
        server.serve_background()
        return server

    def stop(servers):
        _stop(*servers)
        for server in servers:
            server.service.transport.close()

    net = RealNet()
    try:
        servers = [serve(server, address) for server, address in zip(servers, addresses)]
        file = random.Random(11).randbytes(5000)
        meta = upload(file, 8, PorConfig(), nf, net, seed=11).meta
        stored = [stored_addresses(server.service.store) for server in servers]
        stop(servers)
        # each node comes back on its own port and data dir
        servers = [serve(NodeServer(("127.0.0.1", int(a.rpartition(":")[2])), None), a) for a in addresses]
        assert [stored_addresses(server.service.store) for server in servers] == stored
        for mode in ("bi", "uni"):
            assert download(meta, nf, net, mode=mode).data == file
    finally:
        net.close()
        stop(servers)
