"""haina benchmark: upload and download latency, end to end and per layer.

    python3 perfbench/run.py --workload tcp-chatty --seed 1 --seconds 35 --trace 0

One client runs a closed loop with one operation in flight.  An operation
uploads one random file, downloads it with mode="bi", downloads it again
with mode="uni", and checks both downloads byte for byte against the input
outside the timed intervals.  Every timing is scaled to a reference host
speed by calibration slices timed around it (see SLICES).  `--trace 0` measures the end-to-end metrics;
`--trace 1` runs untraced for half the time, then traced, and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass

import layers
from cluster import ROOT, SRC, SimCluster, TcpCluster
from spans import Tracer, install

KIB = 1024
MIB = 1024 * KIB


@dataclass(frozen=True)
class Workload:
    transport: str  # "tcp" or "sim"
    nodes: int
    file_bytes: int
    blocks: int
    latency_ms: float = 0.0  # simulator links only
    setup_repeats: int = 5
    clock: str = "wall"  # what the operation timings measure, see TIMERS
    calibration: str = "python"  # the slice that sets the host speed, see SLICES


WORKLOADS = {
    # Per-message cost dominates: ~1,100 requests per upload + bi download.
    "tcp-chatty": Workload("tcp", 8, 64 * KIB, 64),
    # The data path dominates: 1 MiB blocks through SM4, hashing, frames, disk.
    # Mostly C code (SM4, hashing, copies), whose speed did not follow the
    # Python slice: scaled by it, two sets of five runs spread 3-15 %;
    # scaled by the data slice, 2.5-4 %.
    "tcp-bulk": Workload("tcp", 8, 16 * MIB, 16, calibration="data"),
    # Fan-out logic dominates: 46 polls per election, 47 HAS_BLOCK per resolve.
    "sim-paper": Workload("sim", 47, 256 * KIB, 64, latency_ms=5.0, setup_repeats=51, clock="cpu"),
}

# The simulator never sleeps or waits on I/O, so on an idle host its CPU time
# is its wall time.  On the reference VM, wall time also counted the steal
# time of other guests, and sim-paper's p95 ranged from 94 to 161 ms over
# five runs; process CPU time leaves steal out.
TIMERS = {"wall": time.perf_counter, "cpu": time.process_time}

# How fast the host runs changes from one moment to the next.  On the
# reference VM the same fixed slice of pure-Python work took 2.0 ms in one
# instant and 3.7 ms in the next, as other guests came and went, and the
# medians of whole 30 s runs of the same code moved by up to 40 %.  So every
# timed phase is bracketed by two calibration slices of the kind of work
# that dominates the workload, and the benchmark reports it at the
# reference speed: raw time x reference / (mean of the two slices).  The
# reference is about the slice's median time on the reference VM.
CAL_KEYS = 1500
CAL_BUFFER = random.Random(0).randbytes(256 * KIB)

# A timing's tail is the sample with this many samples above it.
TAIL_BEYOND = 10
# Spans of more operations add memory and post-processing, not precision.
MAX_TRACED_OPS = 20

END_TO_END = {
    # name: (unit, clock); "op" is the workload's operation clock
    "upload_ms.p50": ("ms", "op"),
    "upload_ms.tail": ("ms", "op"),
    "download_ms.p50": ("ms", "op"),
    "download_ms.tail": ("ms", "op"),
    "download_uni_ms.p50": ("ms", "op"),
    "fetch_bi_uni_ratio": ("ratio", "op"),
    "upload_MBps": ("MB/s", "op"),
    "download_MBps": ("MB/s", "op"),
    "success_ratio": ("ratio", "count"),
    "setup_s": ("s", "wall"),
    "upload_peak_mem_x": ("ratio", "count"),
    "download_peak_mem_x": ("ratio", "count"),
    "stored_bytes_per_user_byte": ("ratio", "count"),
}


def git_sha():
    """The checkout's commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pin_to_one_cpu():
    """Run the client, and the node host it starts, on one CPU; return it.

    The node host inherits the affinity.  Every request hops between client
    and node host; on the 2-vCPU reference VM a hop to the other vCPU had to
    wake it through the hypervisor, and under contention from other guests
    tcp-chatty upload medians were 0.5-1.6 s with most of the run stolen.
    With both processes on one vCPU the same runs took 0.38-0.43 s.
    Returns None where the platform cannot pin.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def host_steal_s():
    """CPU time the hypervisor gave to others so far (Linux /proc/stat), or None."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def python_slice():
    """Dict updates, small hashes and a sort: the per-message mix."""
    counts = {}
    for i in range(CAL_KEYS):
        key = (i * 2654435761) & 0xFFFF
        counts[key] = counts.get(key, 0) + 1
        hashlib.sha256(key.to_bytes(4, "little")).digest()
    sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))


def data_slice():
    """Hashing and copying 1 MiB in C: the data-path mix."""
    for _ in range(4):
        hashlib.sha256(CAL_BUFFER).digest()
        bytes(bytearray(CAL_BUFFER))


# name: (slice, reference ms)
SLICES = {"python": (python_slice, 2.5), "data": (data_slice, 1.0)}


def calibrate(kind):
    """Milliseconds of this thread's CPU time for one slice of the given kind.

    Thread CPU time leaves out other threads and processes, so work the
    program leaves running in the background cannot make the host look
    slower and the program faster.
    """
    t0 = time.thread_time()
    SLICES[kind][0]()
    return (time.thread_time() - t0) * 1000.0


def tail(samples):
    """(value, percentile) of the highest sample with TAIL_BEYOND samples above it.

    With too few samples for that, the maximum stands in, labelled p100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


@dataclass
class OpResult:
    upload_ms: float  # at the reference host speed
    bi_ms: float
    uni_ms: float
    raw_ms: tuple  # (upload, bi, uni) as the clock read them
    cal_ms: float  # mean calibration slice around the operation
    start: float
    end: float
    virtual_ms: float
    escalations: int  # fairness-rate escalations during the upload
    fetch_rounds: int  # bi + uni, as reported
    fetch_reported_ms: float  # bi + uni DownloadReport.fetch_ms


class Runner:
    """Closed loop over one cluster: one client, one operation in flight."""

    def __init__(self, workload, rng):
        self.w = workload
        self.rng = rng
        self.attempted = 0
        self.failed = 0
        self.wrong_bytes = 0
        self.uploaded = 0
        self.errors = []
        self.steal_s = 0.0

    def calibrate(self):
        return calibrate(self.w.calibration)

    def at_ref_speed(self, raw, cal_before, cal_after):
        """A raw time scaled to the reference host speed, see SLICES."""
        return raw * 2.0 * SLICES[self.w.calibration][1] / (cal_before + cal_after)

    def start_cluster(self, traced=False):
        """(cluster, wall seconds to start it, see at_ref_speed)."""
        cal_before = self.calibrate()
        t0 = time.perf_counter()
        if self.w.transport == "tcp":
            cluster = TcpCluster(self.w.nodes, traced=traced)
        else:
            cluster = SimCluster(self.w.nodes, self.w.latency_ms, self.rng.getrandbits(32))
        raw = time.perf_counter() - t0
        return cluster, self.at_ref_speed(raw, cal_before, self.calibrate())

    def next_input(self):
        return self.rng.randbytes(self.w.file_bytes), self.rng.getrandbits(63)

    def op(self, cluster):
        """One upload + bi + uni download; None if it raised or returned wrong bytes."""
        from haina.client import download, upload
        from haina.por import PorConfig

        data, seed = self.next_input()
        self.attempted += 1
        net, nf = cluster.transport, cluster.nf
        timer = TIMERS[self.w.clock]
        cal = [self.calibrate()]
        try:
            v0 = cluster.virtual_ms()
            start = time.perf_counter()
            t0 = timer()
            up = upload(data, self.w.blocks, PorConfig(), nf, net, seed=seed)
            t1 = timer()
            cal.append(self.calibrate())
            self.uploaded += len(data)
            t2 = timer()
            bi = download(up.meta, nf, net, mode="bi")
            t3 = timer()
            cal.append(self.calibrate())
            t4 = timer()
            uni = download(up.meta, nf, net, mode="uni")
            t5 = timer()
            end = time.perf_counter()
            v1 = cluster.virtual_ms()
            cal.append(self.calibrate())
        except Exception as exc:  # any failure is a measured result, not a crash
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        if bi.data != data or uni.data != data:
            self.failed += 1
            self.wrong_bytes += 1
            self.errors.append("download returned wrong bytes")
            return None
        raw = ((t1 - t0) * 1000.0, (t3 - t2) * 1000.0, (t5 - t4) * 1000.0)
        return OpResult(
            *(self.at_ref_speed(raw[i], cal[i], cal[i + 1]) for i in range(3)),
            raw, statistics.fmean(cal), start, end, v1 - v0,
            len(up.escalations), bi.rounds + uni.rounds, bi.fetch_ms + uni.fetch_ms,
        )

    def loop(self, cluster, seconds, max_ops=None):
        """Warm up with one operation, then run operations for `seconds`.

        An operation starts only if the mean operation time so far says it
        will end within the budget; at least one always runs, and at most
        `max_ops` run.
        """
        warm_t0 = time.perf_counter()
        self.op(cluster)
        est = time.perf_counter() - warm_t0
        results = []
        steal0 = host_steal_s()
        t_start = time.perf_counter()
        count = 0
        while True:
            elapsed = time.perf_counter() - t_start
            if count and (elapsed + est > seconds or count == max_ops):
                break
            t0 = time.perf_counter()
            res = self.op(cluster)
            count += 1
            est = (elapsed + time.perf_counter() - t0) / count
            if res is not None:
                results.append(res)
        if steal0 is not None:
            self.steal_s += host_steal_s() - steal0
        return results

    def memory_pass(self, cluster):
        """Peak tracemalloc bytes of one upload and one bi download, per file byte."""
        from haina.client import download, upload
        from haina.por import PorConfig

        data, seed = self.next_input()
        self.attempted += 1
        peaks = [0, 0]
        try:
            tracemalloc.start()
            try:
                up = upload(data, self.w.blocks, PorConfig(), cluster.nf, cluster.transport, seed=seed)
                self.uploaded += len(data)
            finally:
                peaks[0] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            tracemalloc.start()
            try:
                got = download(up.meta, cluster.nf, cluster.transport, mode="bi").data
            finally:
                peaks[1] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            if got != data:
                self.failed += 1
                self.wrong_bytes += 1
                self.errors.append("download returned wrong bytes")
        except Exception as exc:
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
        return peaks[0] / len(data), peaks[1] / len(data)


def end_to_end(runner, args):
    w = runner.w
    setups = []
    cluster = None
    try:
        for _ in range(w.setup_repeats):
            if cluster is not None:
                cluster.stop()
            cluster, setup = runner.start_cluster()
            setups.append(setup)
        results = runner.loop(cluster, args.seconds)
        up_peak, down_peak = runner.memory_pass(cluster)
        stored = cluster.stored_bytes() / max(runner.uploaded, 1)
    finally:
        if cluster is not None:
            cluster.stop()

    up = [r.upload_ms for r in results]
    bi = [r.bi_ms for r in results]
    uni = [r.uni_ms for r in results]
    values, samples, tails = {}, {}, {}
    if results:
        up_tail, up_pct = tail(up)
        bi_tail, bi_pct = tail(bi)
        values.update({
            "upload_ms.p50": statistics.median(up),
            "upload_ms.tail": up_tail,
            "download_ms.p50": statistics.median(bi),
            "download_ms.tail": bi_tail,
            "download_uni_ms.p50": statistics.median(uni),
        })
        tails = {"upload_ms.tail": up_pct, "download_ms.tail": bi_pct}
        values["fetch_bi_uni_ratio"] = values["download_ms.p50"] / values["download_uni_ms.p50"]
        values["upload_MBps"] = w.file_bytes / values["upload_ms.p50"] / 1000.0
        values["download_MBps"] = w.file_bytes / values["download_ms.p50"] / 1000.0
        samples = {name: len(results) for name, (_, clock) in END_TO_END.items() if clock == "op"}
    values["success_ratio"] = 1.0 - runner.failed / runner.attempted
    values["setup_s"] = statistics.median(setups)
    samples["setup_s"] = len(setups)
    values["upload_peak_mem_x"] = up_peak
    values["download_peak_mem_x"] = down_peak
    values["stored_bytes_per_user_byte"] = stored
    metrics = {name: (values[name], END_TO_END[name][0]) for name in END_TO_END if name in values}
    clocks = {name: scaled_clock(w.clock if END_TO_END[name][1] == "op" else END_TO_END[name][1], name)
              for name in metrics}
    extra = {
        "failed_ratio": runner.failed / runner.attempted,
        "tail_percentile": tails,
        "samples": samples,
        "raw_ms.p50": {
            phase: statistics.median(r.raw_ms[i] for r in results)
            for i, phase in enumerate(("upload", "download", "download_uni"))
        } if results else {},
        "cal_ms.p50": statistics.median(r.cal_ms for r in results) if results else None,
    }
    return metrics, clocks, extra


def scaled_clock(clock, name):
    """The clock label of a metric; timings are scaled to the reference host speed."""
    timed = name == "setup_s" or name.endswith(("_ms.p50", "_ms.tail", "_MBps"))
    return f"{clock}, at reference host speed" if timed else clock


def run_on_fresh_cluster(runner, seconds, traced=False, max_ops=None):
    """Start a cluster, run the loop on it and stop it: (results, stopped cluster)."""
    cluster, _ = runner.start_cluster(traced)
    try:
        return runner.loop(cluster, seconds, max_ops), cluster
    finally:
        cluster.stop()


def per_layer(runner, args):
    half = args.seconds / 2.0
    plain, _ = run_on_fresh_cluster(runner, half)
    tracer = Tracer()
    install(tracer, client_side=True)
    traced, cluster = run_on_fresh_cluster(runner, half, True, MAX_TRACED_OPS)
    spans = tracer.spans + [tuple(s) for s in cluster.node_spans]
    values, clocks = layers.compute(spans, traced, runner.w)
    if plain and traced:
        med = statistics.median
        values["trace.overhead.upload_ms"] = (
            med([r.upload_ms for r in traced]) - med([r.upload_ms for r in plain]))
        values["trace.overhead.download_ms"] = (
            med([r.bi_ms for r in traced]) - med([r.bi_ms for r in plain]))
    clocks["trace.overhead.upload_ms"] = clocks["trace.overhead.download_ms"] = (
        scaled_clock(runner.w.clock, "upload_ms.p50"))
    metrics = {name: (values[name], layers.UNITS[name]) for name in layers.UNITS if name in values}
    clocks = {name: clocks[name] for name in metrics}
    extra = {
        "failed_ratio": runner.failed / runner.attempted,
        "samples": {"untraced_ops": len(plain), "traced_ops": len(traced)},
    }
    return metrics, clocks, extra


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "haina")):
        print(f"error: no haina package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # SIGTERM unwinds through the finally blocks, so the node host still stops.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    workload = WORKLOADS[args.workload]
    cpu = pin_to_one_cpu()
    runner = Runner(workload, random.Random(args.seed))
    measure, expected = (per_layer, layers.UNITS) if args.trace else (end_to_end, END_TO_END)
    metrics, clocks, extra = measure(runner, args)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:10s} {name:34s} {value:14.4f} {unit:6s} clock={clocks[name]}")
    print(f"{args.workload:10s} {'failed_ratio':34s} {extra['failed_ratio']:14.4f} ratio  clock=count")
    for err in runner.errors[:10]:
        print(f"failure: {err}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "file_bytes": workload.file_bytes,
        "blocks": workload.blocks,
        "nodes": workload.nodes,
        "transport": workload.transport,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "cpu": cpu,
        "host_steal_s": runner.steal_s,
        "clock": clocks,
        "environment": "loopback TCP on one host, block files in the page cache"
        if workload.transport == "tcp" else "in-process simulator, virtual-time links",
        **extra,
    }
    print("report " + json.dumps(report, sort_keys=True))
    missing = [name for name in expected if name not in metrics]
    if missing:
        print(f"error: no successful operation to compute {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": runner.wrong_bytes == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
