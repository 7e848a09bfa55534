import pytest

from haina.blockstore import BlockStore
from haina.chain import build_chain, serialize_block
from haina.errors import NetworkError, ParseError, UsageError
from haina.experiments import ClusterSpec, build_cluster
from haina.frames import Frame, MsgType
from haina.node import NodeService
from haina.nodefile import make_node_file
from haina.simnet import UNREACHABLE, SimNet


def _net(latency=25.0, jitter=0.0, seed=0, matrix=None, nodes=("a:1", "b:1")):
    net = SimNet(latency, jitter, seed, matrix)
    nf = make_node_file(nodes)
    for addr in nodes:
        net.add_node(addr, NodeService(addr, BlockStore(10**9), nf, transport=net))
    return net


def test_ping_rtt_is_sum_of_one_way_delays():
    net = _net(latency=25.0)
    reply, rtt = net.request("a:1", "b:1", Frame(MsgType.PING))
    assert reply.type is MsgType.PONG
    assert rtt == 50.0


def test_jitter_bounded_and_seeded():
    rtts = []
    for _ in range(2):
        net = _net(latency=25.0, jitter=5.0, seed=3)
        _, rtt = net.request("a:1", "b:1", Frame(MsgType.PING))
        rtts.append(rtt)
        assert 40.0 <= rtt <= 60.0
    assert rtts[0] == rtts[1]


def test_jitter_above_latency_never_makes_a_delay_negative():
    net = SimNet(1.0, 5.0, seed=3)
    assert min(net.one_way("a:1", "b:1") for _ in range(1000)) == 0.0
    net, _, _, _ = build_cluster(ClusterSpec(nodes=3, latency_ms=1, jitter_ms=5))
    for _ in range(50):
        t0 = net.clock
        _, rtt = net.request("node001:9000", "node002:9000", Frame(MsgType.PING))
        assert rtt >= 0.0 and net.clock >= t0


def test_jitter_draws_do_not_depend_on_an_empty_or_unrelated_matrix():
    sequences = []
    for matrix in (None, {}, {("c:1", "d:1"): 40.0}):
        net = SimNet(25.0, 5.0, seed=11, matrix=matrix)
        sequences.append([net.one_way(src, dst) for src, dst in [("a:1", "b:1"), ("b:1", "a:1")] * 20])
    assert sequences[0] == sequences[1] == sequences[2]
    assert len(set(sequences[0])) == 40


def test_negative_matrix_latency_rejected():
    with pytest.raises(UsageError):
        SimNet(matrix={("a:1", "b:1"): -50.0})
    with pytest.raises(ParseError, match="latency_matrix"):
        build_cluster(ClusterSpec(nodes=2, latency_matrix={"node001:9000>node002:9000": -50}))


def test_partitioned_link_times_out():
    net = _net(matrix={("a:1", "b:1"): UNREACHABLE})
    with pytest.raises(NetworkError):
        net.request("a:1", "b:1", Frame(MsgType.PING), timeout_ms=100.0)
    assert net.clock == 100.0


def test_cut_return_path_times_out_after_the_node_handled_the_frame():
    net = _net(matrix={("b:1", "a:1"): UNREACHABLE})
    raw = serialize_block(build_chain([b"payload"])[0])
    t0 = net.clock
    with pytest.raises(NetworkError):
        net.request("a:1", "b:1", Frame(MsgType.STORE_READY, {"next_size": "64", "elect": "0"}, raw), timeout_ms=300.0)
    assert net.clock == t0 + 300.0
    assert net.services["b:1"].store.used_bytes == len(raw)


def test_unknown_destination_unreachable():
    net = _net()
    with pytest.raises(NetworkError):
        net.request("a:1", "ghost:9", Frame(MsgType.PING), timeout_ms=50.0)


def test_broadcast_advances_clock_by_slowest_reply():
    matrix = {("u:0", "a:1"): 5.0, ("a:1", "u:0"): 5.0, ("u:0", "b:1"): 30.0, ("b:1", "u:0"): 30.0}
    net = _net(matrix=matrix)
    results = net.exchange("u:0", [(dst, Frame(MsgType.PING)) for dst in ("a:1", "b:1")], timeout_ms=500.0)
    assert results[0][1] == 10.0
    assert results[1][1] == 60.0
    assert net.clock == 60.0


def test_broadcast_with_silent_member_waits_out_timeout():
    net = _net(matrix={("u:0", "b:1"): UNREACHABLE})
    results = net.exchange("u:0", [(dst, Frame(MsgType.PING)) for dst in ("a:1", "b:1")], timeout_ms=200.0)
    assert isinstance(results[1], NetworkError)
    assert results[0][0].type is MsgType.PONG
    assert net.clock == 200.0


def test_seeded_run_replays_identical_trace(record_messages):
    traces = []
    for _ in range(2):
        net = _net(latency=10.0, jitter=2.0, seed=42)
        messages = record_messages(net)
        net.exchange("a:1", [("b:1", Frame(MsgType.PING))])
        net.request("b:1", "a:1", Frame(MsgType.GET_NF))
        traces.append(messages)
    assert [entry[1:] for entry in traces[0]] == [("a:1", "b:1", "PING"), ("b:1", "a:1", "PONG"),
                                                  ("b:1", "a:1", "GET_NF"), ("a:1", "b:1", "NF_DATA")]
    assert traces[0] == traces[1]

