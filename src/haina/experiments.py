"""Simulated-cluster experiment harness.

Builds an in-process cluster under virtual time and reruns the
benchmark scenarios (placement fairness, decision latency, fetch
speedup, aggregate capacity) at desk scale, emitting metrics rows.
Every run is a pure function of the cluster spec and its seed.
"""

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field, fields

from .blockstore import BlockStore, quota_bytes
from .client import download, speedup, upload
from .errors import ParseError, UsageError
from .metrics import MetricsRow
from .node import NodeService
from .nodefile import make_node_file, node_index
from .por import PorConfig
from .simnet import SimNet

_KINDS = {int: "an integer", float: "a finite number", dict: "an object"}
# the least value of each field that has one; `rate` and `quota_gb` have ranges of their own
_MINIMUM = {"nodes": 2, "latency_ms": 0, "jitter_ms": 0, "events": 1, "file_bytes": 1, "blocks": 1}


def _finite(value) -> bool:
    # json reads NaN, Infinity and -Infinity as floats
    return type(value) is int or (type(value) is float and math.isfinite(value))


@dataclass
class ClusterSpec:
    """One simulated cluster and its workload; construction checks every field."""

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
        for f in fields(self):
            value = getattr(self, f.name)
            # type() rather than isinstance(): JSON true and false are bools, and so ints
            if not (_finite(value) if f.type is float else type(value) is f.type):
                raise ParseError(f.name, f"must be {_KINDS[f.type]}")
            if f.name in _MINIMUM and value < _MINIMUM[f.name]:
                raise ParseError(f.name, f"must be at least {_MINIMUM[f.name]}")
        if not 0 < self.rate <= 1:
            raise ParseError("rate", "must satisfy 0 < rate <= 1")
        quota_bytes(self.quota_gb)
        for key, ms in self.latency_matrix.items():
            if type(key) is not str or ">" not in key:
                raise ParseError("latency_matrix", f"key {key!r} is not 'src>dst'")
            if not _finite(ms) or ms < 0:
                raise ParseError("latency_matrix", f"{key!r} latency must be a finite number of at least 0")


def parse_cluster_spec(text: str) -> ClusterSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("spec", f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("spec", "top level must be an object")
    names = {f.name for f in fields(ClusterSpec)}
    for name in doc:
        if name not in names:
            raise ParseError(name, "unknown cluster spec field")
    return ClusterSpec(**doc)


def node_address(i: int) -> str:
    return f"node{i:03d}:9000"


def build_cluster(spec: ClusterSpec, por_cfg: PorConfig = None):
    """Build the simulated cluster: (SimNet, roster, address -> NodeService, PorConfig)."""
    addresses = [node_address(i) for i in range(1, spec.nodes + 1)]
    nf = make_node_file(addresses)
    matrix = {tuple(key.split(">", 1)): ms for key, ms in spec.latency_matrix.items()}
    net = SimNet(spec.latency_ms, spec.jitter_ms, spec.seed, matrix)
    cfg = por_cfg or PorConfig(rate=spec.rate, timeout_ms=max(spec.latency_ms * 20, 1000.0))
    services = {}
    quota = quota_bytes(spec.quota_gb)
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
        for addr, count in sorted(Counter(report.placements).items()):
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
        for i, ms in enumerate(report.decision_ms[:-1]):  # the tail block triggers no election
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
