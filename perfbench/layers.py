"""Per-layer metrics from the spans of a traced run, per operation.

Every span is assigned to the operation whose time window holds its
start; spans outside every window (the warm-up, the gaps between
operations) are dropped.  Node-host spans are placed the same way,
because both processes read the same monotonic clock.  Unless a name
says otherwise, a value is a total per operation (upload + bi download
+ uni download), summed over threads, so concurrent requests add up.
"""

import bisect
from collections import defaultdict

NODE_TYPES = ("STORE_READY", "ELECTION", "CHECK_STORE", "GET_BLOCK", "HAS_BLOCK", "PING")

UNITS = {
    "realnet.requests_per_op": "count",
    "realnet.request_ms": "ms",
    "realnet.wait_ms": "ms",
    "realnet.connects_per_request": "ratio",
    "realnet.threads_per_op": "count",
    "realnet.failures": "count",
    "por.campaign_ms": "ms",
    "por.polls_per_block": "count",
    "por.check_store_ms": "ms",
    "por.escalations": "count",
    "resolve.ms": "ms",
    "resolve.queries_per_block": "count",
    "resolve.useful_ratio": "ratio",
    "client.fetch_wall_ms": "ms",
    "client.fetch_rounds": "count",
    "client.fetch_virtual_ms": "virtual_ms",
    "client.decision_ms": "ms",
    "crypto.keygen_ms": "ms",
    "crypto.encrypt_ms": "ms",
    "crypto.decrypt_ms": "ms",
    "crypto.shard_ms": "ms",
    "hashing.calls_per_op": "count",
    "hashing.bytes_per_user_byte": "ratio",
    "chain.build_ms": "ms",
    "chain.codec_ms": "ms",
    "locking.ms": "ms",
    "frames.encode_ms": "ms",
    "frames.decode_ms": "ms",
    "frames.wire_bytes_per_user_byte": "ratio",
    "blockstore.put_ms": "ms",
    "blockstore.get_ms": "ms",
    "blockstore.put_calls": "count",
    **{f"node.frames.{t}": "count" for t in NODE_TYPES},
    **{f"node.handle_ms.{t}": "ms" for t in NODE_TYPES},
    "node.errors": "count",
    "simnet.requests_per_op": "count",
    "simnet.self_ms": "ms",
    "simnet.virtual_ms_per_op": "virtual_ms",
    "trace.overhead.upload_ms": "ms",
    "trace.overhead.download_ms": "ms",
}


# span name -> metric that sums its duration
DURATION = {
    "realnet.request": "realnet.request_ms",
    "por.campaign": "por.campaign_ms",
    "por.check_store": "por.check_store_ms",
    "resolve": "resolve.ms",
    "client.fetch": "client.fetch_wall_ms",
    "client.decision": "client.decision_ms",
    "crypto.keygen": "crypto.keygen_ms",
    "crypto.encrypt": "crypto.encrypt_ms",
    "crypto.decrypt": "crypto.decrypt_ms",
    "crypto.shard": "crypto.shard_ms",
    "chain.build": "chain.build_ms",
    "chain.codec": "chain.codec_ms",
    "locking": "locking.ms",
    "frames.encode": "frames.encode_ms",
    "frames.decode": "frames.decode_ms",
    "blockstore.put": "blockstore.put_ms",
    "blockstore.get": "blockstore.get_ms",
}

MS = 1000.0


def compute(spans, ops, workload):
    """(metric -> value, metric -> clock) over the traced operations `ops`."""
    ops = sorted(ops, key=lambda r: r.start)
    starts = [r.start for r in ops]

    def in_an_op(start):
        i = bisect.bisect_right(starts, start) - 1
        return i >= 0 and start <= ops[i].end

    kept = [s for s in spans if in_an_op(s[3])]
    # (pid, parent id) -> {child name: summed duration}
    child_ms = defaultdict(lambda: defaultdict(float))
    for span_id, parent, name, start, end, pid, attrs in kept:
        if parent is not None:
            child_ms[(pid, parent)][name] += (end - start) * MS

    total = defaultdict(float)
    for span_id, parent, name, start, end, pid, attrs in kept:
        dur = (end - start) * MS
        attrs = attrs or {}
        if name in DURATION:
            total[DURATION[name]] += dur
        children = child_ms.get((pid, span_id), {})
        if name == "realnet.request":
            total["requests"] += 1
            total["realnet.failures"] += "error" in attrs
        elif name == "realnet.connect":
            total["connects"] += 1
        elif name == "thread.start":
            total["realnet.threads_per_op"] += 1
        elif name == "node.handle":
            kind = attrs["type"]
            total[f"node.frames.{kind}"] += 1
            total[f"node.handle_ms.{kind}"] += dur - children.get("por.campaign", 0.0)
            total["handle_ms"] += dur
            total["node.errors"] += attrs.get("reply") == "ERROR" or "error" in attrs
            if kind == "HAS_BLOCK":
                total["has_positive"] += attrs.get("has", 0)
        elif name == "resolve":
            total["resolves"] += 1
        elif name == "hashing.digest":
            total["hashing.calls_per_op"] += 1
            total["hashed_bytes"] += attrs["bytes"]
        elif name == "frames.encode":
            total["wire_bytes"] += attrs.get("bytes", 0)
        elif name == "blockstore.put":
            total["blockstore.put_calls"] += 1
        elif name == "simnet.request":
            total["simnet.requests_per_op"] += 1
            total["simnet.self_ms"] += dur - children.get("node.handle", 0.0)

    n = max(len(ops), 1)
    user_bytes = n * 3 * workload.file_bytes
    values = {name: total[name] / n for name in UNITS if not name.startswith("trace.")}
    requests = total["requests"]
    values["realnet.requests_per_op"] = requests / n
    values["realnet.wait_ms"] = (total["realnet.request_ms"] - total["handle_ms"]) / n if requests else 0.0
    values["realnet.connects_per_request"] = total["connects"] / requests if requests else 0.0
    values["por.polls_per_block"] = total["node.frames.ELECTION"] / (n * workload.blocks)
    values["resolve.queries_per_block"] = (
        total["node.frames.HAS_BLOCK"] / total["resolves"] if total["resolves"] else 0.0)
    values["resolve.useful_ratio"] = (
        total["has_positive"] / total["node.frames.HAS_BLOCK"] if total["node.frames.HAS_BLOCK"] else 0.0)
    values["hashing.bytes_per_user_byte"] = total["hashed_bytes"] / user_bytes
    values["frames.wire_bytes_per_user_byte"] = total["wire_bytes"] / user_bytes
    values["por.escalations"] = sum(r.escalations for r in ops) / n
    values["client.fetch_rounds"] = sum(r.fetch_rounds for r in ops) / n
    values["client.fetch_virtual_ms"] = sum(r.fetch_reported_ms for r in ops) / n
    values["simnet.virtual_ms_per_op"] = sum(r.virtual_ms for r in ops) / n
    # fetch_ms is virtual on the simulator; on sockets it sums per-round maxima of wall RTTs
    clocks = {
        name: "count" if unit in ("count", "ratio") else "wall" for name, unit in UNITS.items()
    }
    clocks["client.fetch_virtual_ms"] = "virtual" if workload.transport == "sim" else "modeled"
    clocks["simnet.virtual_ms_per_op"] = "virtual"
    return values, clocks
