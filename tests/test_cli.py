import json
import random
import socket
import threading
from contextlib import closing

import pytest
from click.testing import CliRunner

from haina.blockstore import BlockStore
from haina.cli import main, sim
from haina.experiments import EXPERIMENTS
from haina.frames import Frame, MsgType, error_frame
from haina.metafile import parse_meta_file
from haina.node import NodeServer, NodeService
from haina.nodefile import make_node_file
from haina.realnet import RealNet

from oracles import rows_from_csv


# the meta file a seeded upload wrote while the cipher was SM4-CBC, byte for byte
PRE_CTR_META = """{
  "block_count": 8,
  "chain_root": "192c93e9b0ad51d798459135f4348da4fdfd0bd95267ede279f8fc51e0b75d24",
  "cipher": "sm4",
  "file_length": 1000,
  "first_beginner": "node005:9000",
  "hash_alg": "sha256",
  "header_digest": "471abc16a7eb0727ae8043d07e5d7d0f15a33f1080df3dac51fd49b7381ccd5b",
  "iv": "5570c409d54a0e617c8944898d1ef48f",
  "mask": "aedd51167c53dac407ff4068f3de3c440a3e921b952aa8d632f8b4e68f94f4df",
  "mode": "cbc",
  "version": 2
}
"""


def _run(*args, **kw):
    return CliRunner().invoke(main, list(args), **kw)


def _no_server(*args):
    raise AssertionError("the node must not start")


def _spec_file(tmp_path, **overrides):
    doc = dict(nodes=5, seed=42, events=3, file_bytes=2000, blocks=8, latency_ms=5.0)
    doc.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestSimCommand:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "rows.csv"
        result = _run("sim", "--spec", _spec_file(tmp_path), "--experiment", "fairness", "--out", str(out))
        assert result.exit_code == 0, result.output
        rows = rows_from_csv(out.read_text())
        assert rows and any(r.kind == "block_node" for r in rows)

    def test_same_seed_byte_identical(self, tmp_path):
        spec = _spec_file(tmp_path)
        outputs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            result = _run("sim", "--spec", spec, "--experiment", "decision_time", "--out", str(out))
            assert result.exit_code == 0, result.output
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_bad_spec_exits_2(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"nodes": 5, "seed": 1, "bogus": True}))
        result = _run("sim", "--spec", str(spec), "--experiment", "fairness", "--out", str(tmp_path / "x.csv"))
        assert result.exit_code == 2
        assert "bogus" in result.output

    def test_unknown_experiment_rejected_by_click(self, tmp_path):
        result = _run("sim", "--spec", _spec_file(tmp_path), "--experiment", "nope", "--out", "x.csv")
        assert result.exit_code == 2

    def test_experiment_choices_are_the_experiment_table(self):
        option = next(p for p in sim.params if p.name == "experiment")
        assert list(option.type.choices) == list(EXPERIMENTS)


class TestUsageErrors:
    def test_missing_nf_file(self, tmp_path):
        data = tmp_path / "f.bin"
        data.write_bytes(b"x")
        result = _run("upload", "--file", str(data), "--nf", str(tmp_path / "missing.nf"))
        assert result.exit_code == 2

    def test_corrupt_meta_exits_2(self, tmp_path):
        meta = tmp_path / "f.haina.meta"
        meta.write_text("not json")
        nf = tmp_path / "cluster.nf"
        nf.write_bytes(make_node_file(["h:1"]).canonical_bytes())
        result = _run("download", "--meta", str(meta), "--nf", str(nf), "--out", str(tmp_path / "out"))
        assert result.exit_code == 2

    def test_meta_file_of_the_cbc_format_exits_2(self, tmp_path):
        # a meta file written while the cipher was SM4-CBC; its ciphertext would not decrypt under CTR
        meta = tmp_path / "f.haina.meta"
        meta.write_text(PRE_CTR_META)
        nf = tmp_path / "cluster.nf"
        nf.write_bytes(make_node_file(["h:1"]).canonical_bytes())
        result = _run("download", "--meta", str(meta), "--nf", str(nf), "--out", str(tmp_path / "out"))
        assert result.exit_code == 2
        assert "error: mode: unsupported value 'cbc', expected 'ctr'" in result.output
        assert not (tmp_path / "out").exists()

    def test_unreachable_cluster_exits_3(self, tmp_path):
        dead = []
        for _ in range(2):
            with socket.socket() as probe:
                probe.bind(("127.0.0.1", 0))
                dead.append(f"127.0.0.1:{probe.getsockname()[1]}")
        data = tmp_path / "f.bin"
        data.write_bytes(b"payload")
        nf = tmp_path / "cluster.nf"
        nf.write_bytes(make_node_file(dead).canonical_bytes())
        result = _run("upload", "--file", str(data), "--blocks", "1", "--nf", str(nf), "--seed", "1")
        assert result.exit_code == 3

    @staticmethod
    def _serve_from_bootstrap(tmp_path, peer_class, served=make_node_file):
        """Run `node serve --bootstrap` against a `peer_class` node that serves `served(addresses)`.

        `addresses` are the peer's and the node's; the node's own roster lists both.
        """
        addresses = []
        for _ in range(2):
            with socket.socket() as probe:
                probe.bind(("127.0.0.1", 0))
                addresses.append(f"127.0.0.1:{probe.getsockname()[1]}")
        peer, listen = addresses
        nf = tmp_path / "cluster.nf"
        nf.write_bytes(make_node_file(addresses).canonical_bytes())
        server = NodeServer(("127.0.0.1", int(peer.rsplit(":", 1)[1])), peer_class(peer, BlockStore(10**6), served(addresses)))
        server.serve_background()
        try:
            return _run(
                "node", "serve", "--listen", listen, "--data-dir", str(tmp_path / "data"),
                "--nf", str(nf), "--bootstrap", peer,
            )
        finally:
            server.shutdown()
            server.server_close()

    @pytest.mark.parametrize("header", [{"digest": "zz"}, {}], ids=["bad-hex", "missing"])
    def test_bootstrap_bad_digest_exits_2(self, tmp_path, header):
        class BadDigestPeer(NodeService):
            def _on_get_nf(self, frame):
                return Frame(MsgType.NF_DATA, header, self.nf.canonical_bytes())

        result = self._serve_from_bootstrap(tmp_path, BadDigestPeer)
        assert result.exit_code == 2, result.output
        assert "error: digest: not valid hex" in result.output

    def test_bootstrap_peer_answering_an_error_exits_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr("haina.cli.NodeServer", _no_server)

        class RefusingPeer(NodeService):
            def _on_get_nf(self, frame):
                return error_frame("roster unavailable")

        result = self._serve_from_bootstrap(tmp_path, RefusingPeer)
        assert result.exit_code == 3, result.output
        assert "error: bootstrap peer 127.0.0.1:" in result.output
        assert "sent no roster: roster unavailable" in result.output

    def test_bootstrap_roster_without_the_node_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setattr("haina.cli.NodeServer", _no_server)
        # the peer's roster lists itself and a stranger, not the node
        result = self._serve_from_bootstrap(tmp_path, NodeService, lambda a: make_node_file([a[0], "127.0.0.1:1"]))
        assert result.exit_code == 2, result.output
        assert "error: --listen" in result.output
        assert "not on the roster" in result.output

    def test_local_roster_without_the_node_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setattr("haina.cli.NodeServer", _no_server)
        nf = tmp_path / "cluster.nf"
        nf.write_bytes(make_node_file(["localhost:9", "localhost:10"]).canonical_bytes())
        result = _run("node", "serve", "--listen", "127.0.0.1:9", "--data-dir", str(tmp_path / "data"), "--nf", str(nf))
        assert result.exit_code == 2, result.output
        assert "error: --listen 127.0.0.1:9 is not on the roster" in result.output

    def test_advertised_name_not_on_the_roster_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setattr("haina.cli.NodeServer", _no_server)
        nf = tmp_path / "cluster.nf"
        nf.write_bytes(make_node_file(["127.0.0.1:9", "127.0.0.1:10"]).canonical_bytes())
        result = _run(
            "node", "serve", "--listen", "127.0.0.1:9", "--advertise", "localhost:9",
            "--data-dir", str(tmp_path / "data"), "--nf", str(nf),
        )
        assert result.exit_code == 2, result.output
        assert "error: --advertise localhost:9 is not on the roster" in result.output

    def test_node_bound_to_one_address_answers_under_the_advertised_one(self, tmp_path, monkeypatch):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        advertised = f"localhost:{port}"
        nf = tmp_path / "cluster.nf"
        nf.write_bytes(make_node_file([advertised, "localhost:1"]).canonical_bytes())
        replies = []

        class AnswersOnePing(NodeServer):
            def serve_forever(self):
                serving = threading.Thread(target=super().serve_forever, daemon=True)
                serving.start()
                with closing(RealNet()) as net:
                    replies.append(net.request("client:0", advertised, Frame(MsgType.PING))[0])
                self.shutdown()
                serving.join()

        monkeypatch.setattr("haina.cli.NodeServer", AnswersOnePing)
        result = _run(
            "node", "serve", "--listen", f"127.0.0.1:{port}", "--advertise", advertised,
            "--data-dir", str(tmp_path / "data"), "--nf", str(nf),
        )
        assert result.exit_code == 0, result.output
        assert [(r.type, r.header["node"]) for r in replies] == [(MsgType.PONG, advertised)]

    @pytest.mark.parametrize("quota_gb", ["inf", "1e300", "1e-10"])
    def test_quota_that_is_not_a_byte_count_exits_2(self, tmp_path, monkeypatch, quota_gb):
        monkeypatch.setattr("haina.cli.NodeServer", _no_server)
        nf = tmp_path / "cluster.nf"
        nf.write_bytes(make_node_file(["127.0.0.1:9", "127.0.0.1:10"]).canonical_bytes())
        result = _run(
            "node", "serve", "--listen", "127.0.0.1:9", "--data-dir", str(tmp_path / "data"),
            "--nf", str(nf), "--quota-gb", quota_gb,
        )
        assert result.exit_code == 2, result.output
        assert "error: quota_gb:" in result.output


@pytest.fixture
def live_cluster(tmp_path):
    servers = []
    addresses = []
    for _ in range(3):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            addresses.append(f"127.0.0.1:{probe.getsockname()[1]}")
    nf = make_node_file(addresses)
    for addr in addresses:
        service = NodeService(addr, BlockStore(10**9), nf, transport=RealNet())
        host, port = addr.rsplit(":", 1)
        server = NodeServer((host, int(port)), service)
        server.serve_background()
        servers.append(server)
    nf_path = tmp_path / "cluster.nf"
    nf_path.write_bytes(nf.canonical_bytes())
    yield str(nf_path)
    for server in servers:
        server.shutdown()
        server.server_close()
        server.service.transport.close()


class TestLiveRoundTrip:
    def test_upload_then_download(self, tmp_path, live_cluster):
        payload = random.Random(5).randbytes(3000)
        src = tmp_path / "file.bin"
        src.write_bytes(payload)
        csv_path = tmp_path / "up.csv"
        result = _run(
            "upload", "--file", str(src), "--blocks", "6", "--nf", live_cluster,
            "--seed", "9", "--csv-out", str(csv_path),
        )
        assert result.exit_code == 0, result.output
        meta_path = tmp_path / "file.bin.haina.meta"
        assert meta_path.exists()  # default meta path uses the .haina.meta suffix
        meta = parse_meta_file(meta_path.read_bytes())
        assert meta.block_count == 6
        rows = rows_from_csv(csv_path.read_text())
        assert sum(1 for r in rows if r.kind == "block_node") == 6

        out = tmp_path / "restored.bin"
        for mode in ("bi", "uni"):
            result = _run(
                "download", "--meta", str(meta_path), "--nf", live_cluster,
                "--out", str(out), "--mode", mode, "--csv-out", str(csv_path),
            )
            assert result.exit_code == 0, result.output
            assert out.read_bytes() == payload
            clocks = {r.context["stage"]: r.context["clock"] for r in rows_from_csv(csv_path.read_text())}
            assert clocks == {f"fetch_{mode}": "wall", "header_fetch": "wall", "decrypt": "wall"}

    def test_a_seeded_upload_warns_on_stderr_that_it_fixes_the_key(self, tmp_path, live_cluster):
        src = tmp_path / "file.bin"
        src.write_bytes(b"payload" * 100)
        warning = "warning: --seed 3 fixes the file key and IV, so files uploaded under it share a keystream"
        for seed, stderr in ((["--seed", "3"], [warning]), ([], [])):
            result = _run("upload", "--file", str(src), "--blocks", "4", "--nf", live_cluster, *seed)
            assert result.exit_code == 0, result.output
            assert result.stderr.splitlines() == stderr
            assert "warning" not in result.stdout
