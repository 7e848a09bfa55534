"""Simulated-cluster experiment harness.

Builds an in-process cluster under virtual time and reruns the
benchmark scenarios (placement fairness, decision latency, fetch
speedup, aggregate capacity) at desk scale, emitting metrics rows.
Every run is a pure function of the cluster spec and its seed.
"""

import json
import math
import random
from dataclasses import dataclass, field

from .blockstore import BlockStore
from .client import download, speedup, upload
from .errors import ParseError, UsageError
from .metrics import MetricsRow
from .node import NodeService
from .nodefile import make_node_file, node_index
from .por import PorConfig
from .simnet import LinkModel, SimNet

@dataclass
class ClusterSpec:
    nodes: int = 5
    quota_gb: float = 1.0
    latency_ms: float = 25.0
    jitter_ms: float = 0.0
    seed: int = 0
    rate: float = 0.1
    events: int = 10
    file_bytes: int = 65536
    blocks: int = 20
    latency_matrix: dict = field(default_factory=dict)  # "src>dst" -> ms

    def __post_init__(self):
        if self.nodes < 2:
            raise ParseError("nodes", "storage events need at least 2 nodes")
        if self.quota_gb <= 0:
            raise ParseError("quota_gb", "must be positive")
        if self.latency_ms < 0:
            raise ParseError("latency_ms", "cannot be negative")
        if self.jitter_ms < 0:
            raise ParseError("jitter_ms", "cannot be negative")
        if not 0 < self.rate <= 1:
            raise ParseError("rate", "must satisfy 0 < rate <= 1")
        if self.events < 1:
            raise ParseError("events", "must be at least 1")
        if self.file_bytes < 1:
            raise ParseError("file_bytes", "must be at least 1")
        if self.blocks < 1:
            raise ParseError("blocks", "must be at least 1")


def _finite(value) -> bool:
    # json reads NaN, Infinity and -Infinity as floats
    return type(value) is int or (type(value) is float and math.isfinite(value))


def parse_cluster_spec(text: str) -> ClusterSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("spec", f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("spec", "top level must be an object")
    fields = ClusterSpec.__dataclass_fields__
    for name, value in doc.items():
        if name not in fields:
            raise ParseError(name, "unknown cluster spec field")
        kind = fields[name].type
        # type() rather than isinstance(): JSON true and false are bools, and so ints
        if kind is int and type(value) is not int:
            raise ParseError(name, "must be an integer")
        if kind is float and not _finite(value):
            raise ParseError(name, "must be a finite number")
        if kind is dict and (type(value) is not dict or not all(map(_finite, value.values()))):
            raise ParseError(name, "must be an object of finite numbers")
    return ClusterSpec(**doc)


def node_address(i: int) -> str:
    return f"node{i:03d}:9000"


def build_cluster(spec: ClusterSpec, por_cfg: PorConfig = None):
    """Build the simulated cluster: (transport, roster, address -> service)."""
    addresses = [node_address(i) for i in range(1, spec.nodes + 1)]
    nf = make_node_file(addresses)
    matrix = {}
    for key, ms in spec.latency_matrix.items():
        src, sep, dst = key.partition(">")
        if not sep:
            raise ParseError("latency_matrix", f"key {key!r} is not 'src>dst'")
        if ms < 0:
            raise ParseError("latency_matrix", f"{key!r} latency cannot be negative")
        matrix[(src, dst)] = ms
    net = SimNet(LinkModel(spec.latency_ms, spec.jitter_ms, spec.seed, matrix))
    cfg = por_cfg or PorConfig(rate=spec.rate, timeout_ms=max(spec.latency_ms * 20, 1000.0))
    services = {}
    quota = int(spec.quota_gb * 10**9)
    for addr in nf.addresses:
        service = NodeService(addr, BlockStore(quota), nf, por_cfg=cfg, transport=net)
        net.add_node(addr, service)
        services[addr] = service
    return net, nf, services, cfg


def run_experiment(spec: ClusterSpec, name: str):
    try:
        runner = EXPERIMENTS[name]
    except KeyError:
        raise UsageError(f"unknown experiment {name!r}; choose from {', '.join(EXPERIMENTS)}") from None
    return runner(spec)


def _events(spec, net, nf, cfg):
    """Run the spec's storage events on one seeded rng: yields (event id, upload report, file)."""
    rng = random.Random(spec.seed)
    for event in range(spec.events):
        file = rng.randbytes(spec.file_bytes)
        yield f"event{event:04d}", upload(file, spec.blocks, cfg, nf, net, rng=rng), file


def _run_fairness(spec: ClusterSpec):
    """Many storage events; one block_node row per placement."""
    net, nf, services, cfg = build_cluster(spec)
    rows = []
    for event_id, report, _ in _events(spec, net, nf, cfg):
        counts = {}
        for addr in report.placements:
            counts[addr] = counts.get(addr, 0) + 1
        for addr, count in sorted(counts.items()):
            rows.append(
                MetricsRow(
                    event_id=event_id,
                    kind="block_node",
                    value=float(count),
                    context={"node": addr, "nf_index": node_index(nf, addr), "rate": spec.rate},
                )
            )
        for idx, new_rate in report.escalations:
            rows.append(
                MetricsRow(
                    event_id=event_id,
                    kind="stage_ms",
                    value=0.0,
                    context={"stage": "rate_escalation", "block": idx, "new_rate": new_rate},
                )
            )
    return rows


def _run_decision_time(spec: ClusterSpec):
    """Per-block campaign durations under the modeled latency."""
    net, nf, services, cfg = build_cluster(spec)
    rows = []
    for event_id, report, _ in _events(spec, net, nf, cfg):
        for i, ms in enumerate(report.decision_ms):
            if i == len(report.decision_ms) - 1:
                continue  # the tail block triggers no election
            rows.append(
                MetricsRow(
                    event_id=event_id,
                    kind="decision_ms",
                    value=ms,
                    context={"block": i + 1, "clock": "virtual"},
                )
            )
    return rows


def _run_bdam_speedup(spec: ClusterSpec):
    """Upload once, download both ways, compare fetch times."""
    net, nf, services, cfg = build_cluster(spec)
    rows = []
    for event_id, report, file in _events(spec, net, nf, cfg):
        bi = download(report.meta, nf, net, mode="bi", timeout_ms=cfg.timeout_ms)
        uni = download(report.meta, nf, net, mode="uni", timeout_ms=cfg.timeout_ms)
        if bi.data != file or uni.data != file:
            raise UsageError("recovered file does not match the uploaded file")
        rows.append(MetricsRow(event_id, "stage_ms", bi.fetch_ms, {"stage": "fetch_bi", "clock": "virtual"}))
        rows.append(MetricsRow(event_id, "stage_ms", uni.fetch_ms, {"stage": "fetch_uni", "clock": "virtual"}))
        rows.append(
            MetricsRow(
                event_id,
                "speedup_pct",
                speedup(bi.fetch_ms, uni.fetch_ms) * 100.0,
                {"blocks": spec.blocks, "file_bytes": spec.file_bytes},
            )
        )
    return rows


def _run_capacity(spec: ClusterSpec):
    """Aggregate stored bytes across all nodes vs. total chain bytes."""
    net, nf, services, cfg = build_cluster(spec)
    rows = []
    total_chain = sum(sum(report.block_sizes) for _, report, _ in _events(spec, net, nf, cfg))
    total_stored = 0
    for addr in nf.addresses:
        used = services[addr].store.used_bytes
        total_stored += used
        rows.append(MetricsRow("cluster", "stage_ms", float(used), {"stage": "node_bytes", "node": addr}))
    rows.append(MetricsRow("cluster", "stage_ms", float(total_stored), {"stage": "total_stored_bytes"}))
    rows.append(MetricsRow("cluster", "stage_ms", float(total_chain), {"stage": "total_chain_bytes"}))
    return rows


EXPERIMENTS = {
    "fairness": _run_fairness,
    "decision_time": _run_decision_time,
    "bdam_speedup": _run_bdam_speedup,
    "capacity": _run_capacity,
}
