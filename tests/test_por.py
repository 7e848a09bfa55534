import random
import sys
from collections import Counter

import pytest

from haina import hashing
from haina.errors import CampaignError, IntegrityError, NetworkError, ParseError, UsageError
from haina.blockstore import BlockStore
from haina.frames import Frame, MsgType, decode_frame, encode_frame
from haina.node import NodeService
from haina.nodefile import MAX_ROSTER_BYTES, make_node_file, node_index, parse_address, parse_node_file, update_node_file
from haina.por import (
    BYTES_PER_GB,
    PorConfig,
    check_rate,
    judge,
    pick_first_beginner,
    run_campaign,
)
from haina.simnet import UNREACHABLE, SimNet

from oracles import NON_CANONICAL_IDS, NON_CANONICAL_INTS

from oracles import NON_CANONICAL_IDS, NON_CANONICAL_INTS


class TestJudge:
    def test_direct_arithmetic(self):
        assert judge(100, 50) == 2.0

    def test_zero_capacity(self):
        assert judge(0, 10) == 0.0

    def test_clamp_then_scale(self):
        assert judge(8, 0.25) == 8.0

    def test_negative_capacity_rejected(self):
        with pytest.raises(UsageError):
            judge(-1, 10)

    def test_common_scaling_preserves_order(self):
        rng = random.Random(11)
        for _ in range(30):
            pairs = [(rng.uniform(0, 100), rng.uniform(0.1, 200)) for _ in range(8)]
            factor = rng.uniform(0.1, 50)
            base = sorted(range(8), key=lambda i: -judge(*pairs[i]))
            scaled_nc = sorted(range(8), key=lambda i: -judge(pairs[i][0] * factor, pairs[i][1]))
            assert base == scaled_nc


class TestPickFirstBeginner:
    NF = make_node_file([f"h{i:02d}:1" for i in range(1, 48)])

    def test_modular_index(self):
        assert pick_first_beginner(self.NF, 52) == self.NF.addresses[52 % 47]

    def test_zero_draw(self):
        assert pick_first_beginner(self.NF, 0) == self.NF.addresses[0]

    def test_empty_roster_rejected(self):
        with pytest.raises(UsageError):
            pick_first_beginner(make_node_file([]), 1)

    def test_seeded_draws_cover_all_indices(self):
        rng = random.Random(7)
        hits = Counter(pick_first_beginner(self.NF, rng.getrandbits(32)) for _ in range(10_000))
        assert set(hits) == set(self.NF.addresses)
        # rough uniformity: every node within a factor of 2 of the mean
        mean = 10_000 / 47
        assert all(mean / 2 < c < mean * 2 for c in hits.values())


class StubTransport:
    """Scripted follower replies: addr -> (freespace bytes, rtt ms) or None.

    Like SimNet, an exchange advances the clock by its slowest reply, or
    by the timeout when any follower stays silent.
    """

    def __init__(self, replies):
        self.replies = replies
        self.clock = 0.0

    def now(self):
        return self.clock

    def exchange(self, origin, requests, timeout_ms):
        out = []
        for dst, _ in requests:
            entry = self.replies.get(dst)
            if entry is None:
                out.append(NetworkError(f"{dst} is silent"))
            elif entry == "refuse":
                out.append((Frame(MsgType.REFUSE, {"freespace": "0"}), 1.0))
            else:
                free, rtt = entry
                out.append((Frame(MsgType.TAKEPART, {"freespace": str(free)}), rtt))
        self.clock += max(timeout_ms if isinstance(reply, NetworkError) else reply[1] for reply in out)
        return out


class TestRunCampaign:
    def test_values_sorted_descending(self):
        nf = make_node_file(["b:1", "n1:1", "n2:1", "n3:1"])
        transport = StubTransport(
            {
                "n1:1": (100 * BYTES_PER_GB, 50.0),
                "n2:1": (100 * BYTES_PER_GB, 10.0),
                "n3:1": (5 * BYTES_PER_GB, 1.0),
            }
        )
        result = run_campaign(transport, "b:1", 1024, nf, PorConfig())
        assert result.candidates == ("n2:1", "n3:1", "n1:1")

    def test_beginner_excluded_from_poll(self):
        nf = make_node_file(["b:1", "n1:1"])
        seen = []

        class Spy(StubTransport):
            def exchange(self, origin, requests, timeout_ms):
                seen.extend(dst for dst, _ in requests)
                return super().exchange(origin, requests, timeout_ms)

        run_campaign(Spy({"n1:1": (BYTES_PER_GB, 5.0)}), "b:1", 1, nf, PorConfig())
        assert seen == ["n1:1"]

    def test_insufficient_freespace_never_appears(self):
        nf = make_node_file(["b:1", "small:1", "big:1"])
        transport = StubTransport({"small:1": (10, 1.0), "big:1": (BYTES_PER_GB, 1.0)})
        result = run_campaign(transport, "b:1", 1000, nf, PorConfig())
        assert result.candidates == ("big:1",)

    def test_tie_break_keeps_roster_order(self):
        nf = make_node_file(["b:1", "x1:1", "x2:1"])
        transport = StubTransport({"x1:1": (BYTES_PER_GB, 5.0), "x2:1": (BYTES_PER_GB, 5.0)})
        result = run_campaign(transport, "b:1", 1, nf, PorConfig())
        assert result.candidates == ("x1:1", "x2:1")

    def test_refusals_and_silence_omitted(self):
        nf = make_node_file(["b:1", "mute:1", "no:1", "yes:1"])
        transport = StubTransport({"mute:1": None, "no:1": "refuse", "yes:1": (BYTES_PER_GB, 2.0)})
        result = run_campaign(transport, "b:1", 1, nf, PorConfig())
        assert result.candidates == ("yes:1",)
        assert result.elapsed_ms == PorConfig().timeout_ms  # waited out the silent node

    @pytest.mark.parametrize("value", NON_CANONICAL_INTS, ids=NON_CANONICAL_IDS)
    def test_freespace_in_a_form_no_encoder_writes_drops_the_follower(self, value):
        nf = make_node_file(["b:1", "odd:1", "plain:1"])
        transport = StubTransport({"odd:1": (value, 1.0), "plain:1": (BYTES_PER_GB, 1.0)})
        assert run_campaign(transport, "b:1", 1, nf, PorConfig()).candidates == ("plain:1",)

    def test_zero_candidates_raises(self):
        nf = make_node_file(["b:1", "no:1"])
        with pytest.raises(CampaignError):
            run_campaign(StubTransport({"no:1": "refuse"}), "b:1", 1, nf, PorConfig())


class _UnreadableFreespace(NodeService):
    def _on_election(self, frame):
        return Frame(MsgType.TAKEPART, {"freespace": "garbage"})


def test_campaigns_on_a_jittered_47_node_net_are_bit_identical():
    # pins ranks, virtual times and the rng stream, so a faster poll cannot move a placement
    nodes = [f"10.0.{i // 8}.{i % 8}:7000" for i in range(47)]
    nf = make_node_file(nodes)
    beginner = nodes[0]
    matrix = {}
    for i in range(1, 47):
        matrix[(beginner, nodes[i])] = 1.0 + (i * 7) % 13
        matrix[(nodes[i], beginner)] = 0.5 + (i * 5) % 11
    matrix[(nodes[9], beginner)] = UNREACHABLE  # node 9's reply never reaches node 0
    net = SimNet(5.0, jitter_ms=1.5, seed=28, matrix=matrix)
    for i, address in enumerate(nodes):
        store = BlockStore(100 if i == 17 else 10**9 + (i * 37 % 11) * 10**8)  # node 17 refuses 4,200 bytes
        service = (_UnreadableFreespace if i == 31 else NodeService)(address, store, nf, transport=net)
        net.add_node(address, service)
    results = [run_campaign(net, b, 4200, nf, PorConfig()) for b in (beginner, nodes[1], beginner)]
    assert [[nodes.index(a) for a in r.candidates] for r in results] == [
        [41, 38, 43, 19, 13, 30, 27, 45, 8, 16, 2, 18, 28, 26, 7, 32, 34, 15, 5, 40, 10, 4,
         29, 21, 39, 1, 20, 23, 25, 6, 42, 44, 12, 36, 14, 3, 46, 33, 22, 35, 24, 11, 37],
        [21, 16, 41, 19, 32, 8, 38, 26, 30, 2, 13, 46, 7, 5, 23, 24, 29, 10, 40, 4, 37, 27,
         43, 35, 18, 42, 34, 15, 20, 36, 9, 39, 45, 28, 25, 12, 14, 33, 22, 6, 3, 11, 44, 0],
        [41, 30, 8, 32, 19, 43, 38, 27, 5, 21, 13, 18, 42, 40, 45, 29, 10, 4, 2, 15, 34, 7,
         36, 16, 26, 23, 12, 28, 1, 44, 39, 20, 14, 25, 6, 33, 3, 46, 24, 22, 35, 11, 37],
    ]
    assert [r.elapsed_ms for r in results] == [1000.0, 12.674058607221014, 1000.0]
    assert net._rng.random() == 0.5792844176494271


def _cands(*addresses):
    return list(addresses)


class TestCheckRate:
    def test_rule_a_prefers_empty_node(self):
        counts = Counter({"a:1": 1})
        chosen, rate, escalated = check_rate(_cands("a:1", "b:1"), counts, 20, 0.1, 0.1)
        assert chosen == "b:1" and not escalated and rate == 0.1

    def test_rule_b_skips_over_threshold_node(self):
        # 20 blocks, rate 0.1: a node holding 2 would go to 3/20 > 0.1
        counts = Counter({"a:1": 2, "b:1": 1})
        chosen, rate, escalated = check_rate(_cands("a:1", "b:1"), counts, 20, 0.1, 0.1)
        assert chosen == "b:1" and not escalated

    def test_rule_a_beats_rule_b(self):
        counts = Counter({"a:1": 1})
        chosen, _, _ = check_rate(_cands("a:1", "c:1"), counts, 20, 0.1, 0.1)
        assert chosen == "c:1"

    def test_all_empty_takes_top_value(self):
        counts = Counter()
        chosen, _, escalated = check_rate(_cands("a:1", "b:1"), counts, 20, 0.1, 0.1)
        assert chosen == "a:1" and not escalated

    def test_rule_c_escalates(self):
        counts = Counter({"a:1": 2})
        chosen, rate, escalated = check_rate(_cands("a:1"), counts, 20, 0.1, 0.1)
        assert chosen == "a:1" and escalated
        assert rate == pytest.approx(0.2)


def _roster_of(size):
    """Addresses whose canonical bytes are exactly `size` long (at least 28)."""
    addresses = [f"n{i:07d}:9000" for i in range((size - 28) // 14)]  # 13 characters and a newline each
    rest = size - 14 * len(addresses)  # 14 to 27 bytes: one more address
    return addresses + ["z" * (rest - 6) + ":9000"]


class TestNodeFile:
    def test_canonical_sorted_with_trailing_newline(self):
        nf = make_node_file(["b:2", "a:1", "b:2"])
        assert nf.canonical_bytes() == b"a:1\nb:2\n"
        assert parse_node_file(nf.canonical_bytes()) == nf

    def test_update_short_circuits_on_equal_digest(self):
        nf = make_node_file(["a:1"])
        assert update_node_file(nf, nf.digest, b"\xff not parsed") is nf

    def test_update_adopts_verified_remote(self):
        local = make_node_file(["a:1"])
        remote = make_node_file(["a:1", "b:2"])
        adopted = update_node_file(local, remote.digest, remote.canonical_bytes())
        assert adopted == remote

    def test_tampered_remote_rejected(self):
        local = make_node_file(["a:1"])
        remote = make_node_file(["a:1", "b:2"])
        body = bytearray(remote.canonical_bytes())
        body[0] ^= 1
        with pytest.raises(IntegrityError, match="claimed digest"):
            update_node_file(local, remote.digest, bytes(body))
        unsorted = b"b:2\na:1\n"  # the same roster under its own digest, but not in canonical form
        with pytest.raises(IntegrityError, match="canonical"):
            update_node_file(local, hashing.digest(unsorted), unsorted)

    @pytest.mark.parametrize(
        "address",
        [
            "b:2,c:3",  # ',' separates the addresses of a STORE_ACK's candidate list
            "h:72537",  # getaddrinfo would wrap it to port 7001, another node
            "h:0",
            "a:b",
            " 127.0.0.1:80",  # an indented roster line
            "127.0.0.1 :81",
            "127.0.0.1\t:82",
            b"\xff:83",
        ],
        ids=[
            "comma",
            "port-above-65535",
            "port-zero",
            "port-not-a-number",
            "space-before-the-host",
            "space-after-the-host",
            "tab-in-the-host",
            "not-utf-8",
        ],
    )
    def test_malformed_address_rejected(self, address):
        line = address if isinstance(address, bytes) else address.encode()
        with pytest.raises(ParseError, match="node_file"):
            parse_node_file(b"a:1\n" + line + b"\n")

    @pytest.mark.parametrize("port", NON_CANONICAL_INTS, ids=NON_CANONICAL_IDS)
    def test_port_not_written_as_str_writes_it_rejected(self, port):
        with pytest.raises(ParseError, match="node_file"):
            make_node_file(["a:1", f"b:{port}"])

    def test_address_with_no_host_rejected(self):
        # getaddrinfo("", 9000) fails, so no client could reach it
        with pytest.raises(ParseError, match="node_file"):
            make_node_file(["a:1", ":9000"])

    def test_crlf_roster_file_rejected(self):
        with pytest.raises(ParseError, match="node_file"):
            parse_node_file(b"a:1\r\nb:2\r\n")

    def test_listen_address_may_leave_the_host_empty(self):
        # `node serve --listen :7001` binds every interface
        assert parse_address(":7001") == ("", 7001)

    def test_largest_roster_leaves_a_store_ack_room_under_the_header_cap(self):
        nf = make_node_file(_roster_of(MAX_ROSTER_BYTES))
        assert len(nf.canonical_bytes()) == MAX_ROSTER_BYTES
        beginner = min(nf.addresses, key=len)  # the longest candidate list leaves out the shortest address
        header = {
            "stored": "ff" * 32,
            "candidates": ",".join(a for a in nf.addresses if a != beginner),
            "campaign_ms": repr(-sys.float_info.max),  # a float's longest repr
        }
        ack = Frame(MsgType.STORE_ACK, header)
        assert decode_frame(encode_frame(ack)) == ack
        with pytest.raises(ParseError, match="^node_file: .*header cap"):
            make_node_file(_roster_of(MAX_ROSTER_BYTES + 1))

    def test_node_index_is_one_based(self):
        nf = make_node_file(["a:1", "b:2"])
        assert node_index(nf, "a:1") == 1
        assert node_index(nf, "b:2") == 2
