"""The two clusters the benchmark drives: loopback TCP and the simulator.

Both expose the same small surface to the benchmark loop: `transport`,
`nf` (the roster), `stored_bytes()`, `virtual_ms()` and `stop()`.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Scratch space inside the checkout: node data dirs and span files.
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
STOP_TIMEOUT_S = 30.0


class TcpCluster:
    """`nodes` NodeServers hosted by one child process on 127.0.0.1.

    The client stays in the calling process, so client and nodes do not
    share one interpreter lock.  Block files land in a fresh directory under
    WORK_DIR, which `stop()` deletes.
    """

    def __init__(self, nodes, traced=False):
        from haina.nodefile import make_node_file
        from haina.realnet import RealNet

        os.makedirs(WORK_DIR, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="cluster-", dir=WORK_DIR)
        self.trace_path = os.path.join(self.dir, "node-spans.json") if traced else None
        self.node_spans = []
        cmd = [sys.executable, os.path.join(HERE, "nodehost.py"), "--nodes", str(nodes),
               "--data-root", os.path.join(self.dir, "data")]
        if traced:
            cmd += ["--trace-out", self.trace_path]
        env = dict(os.environ, PYTHONPATH=SRC)
        self.proc = None
        try:
            self.proc = subprocess.Popen(
                cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True
            )
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"node host exited with code {self.proc.wait()} before serving")
            addresses = json.loads(line)["addresses"]
        except BaseException:
            self.stop()
            raise
        self.nf = make_node_file(addresses)
        self.transport = RealNet()

    def stored_bytes(self):
        total = 0
        for base, _, files in os.walk(os.path.join(self.dir, "data")):
            total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
        return total

    def virtual_ms(self):
        return 0.0

    def stop(self):
        """Stop the node host, wait for it, collect its spans, delete its files."""
        try:
            if self.proc is not None:
                self.proc.stdin.close()
                try:
                    self.proc.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
                self.proc.stdout.close()
                self.proc = None
                if self.trace_path and os.path.exists(self.trace_path):
                    with open(self.trace_path, encoding="utf-8") as fh:
                        self.node_spans = json.load(fh)
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)
            try:
                os.rmdir(WORK_DIR)
            except OSError:
                pass  # another cluster still uses it


class SimCluster:
    """`experiments.build_cluster` with the paper's roster: in-process, virtual time."""

    def __init__(self, nodes, latency_ms, seed):
        from haina.experiments import ClusterSpec, build_cluster
        from haina.por import PorConfig

        spec = ClusterSpec(nodes=nodes, latency_ms=latency_ms, jitter_ms=0.0, seed=seed)
        self.transport, self.nf, self.services, _ = build_cluster(spec, por_cfg=PorConfig())
        self.node_spans = []

    def stored_bytes(self):
        return sum(s.store.used_bytes for s in self.services.values())

    def virtual_ms(self):
        return self.transport.clock

    def stop(self):
        pass
