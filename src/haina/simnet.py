"""Deterministic simulated network with virtual time.

Each message is delayed by the ordered-pair one-way latency plus
seeded jitter.  The whole simulation is single-threaded: `exchange`
(election polls, resolver queries, a round's block fetches) starts
every request at the same virtual time and charges the slowest of them
rather than their sum, so a fixed seed reproduces every trace and
timing bit-for-bit.
"""

import math
import random
from collections import deque

from .errors import HainaError, NetworkError, UsageError
from .frames import Frame

UNREACHABLE = math.inf
# SimNet.trace keeps only the most recent messages: uploading 64 blocks to
# 47 nodes alone sends ~6,000, and an unbounded trace grows for the life of
# the net
TRACE_LIMIT = 10_000


class LinkModel:
    """One-way latencies: uniform base or a full per-pair matrix, plus jitter.

    `matrix` maps (src, dst) -> ms and overrides the uniform base;
    a latency of `UNREACHABLE` models a partitioned link.  Jitter never
    makes a delay negative: a draw below zero is clamped to 0.
    """

    def __init__(self, latency_ms: float = 25.0, jitter_ms: float = 0.0, seed: int = 0, matrix=None):
        if latency_ms < 0 or jitter_ms < 0:
            raise UsageError("latency and jitter cannot be negative")
        self.latency_ms = latency_ms
        self.jitter_ms = jitter_ms
        self.matrix = dict(matrix) if matrix else {}
        if any(ms < 0 for ms in self.matrix.values()):
            raise UsageError("matrix latencies cannot be negative")
        self._rng = random.Random(seed)

    def one_way(self, src: str, dst: str) -> float:
        base = self.matrix.get((src, dst), self.latency_ms)
        if base is UNREACHABLE or base == UNREACHABLE:
            return UNREACHABLE
        if self.jitter_ms:
            return max(0.0, base + self._rng.uniform(-self.jitter_ms, self.jitter_ms))
        return base


class SimNet:
    """Virtual-time transport connecting in-process node services."""

    def __init__(self, link: LinkModel):
        self.link = link
        self.services = {}
        self.clock = 0.0
        self.trace = deque(maxlen=TRACE_LIMIT)  # (virtual time, origin, dst, message type name)

    def add_node(self, address: str, service):
        self.services[address] = service

    def remove_node(self, address: str):
        self.services.pop(address, None)

    def request(self, origin: str, dst: str, frame: Frame, timeout_ms: float = 1000.0):
        """Deliver one frame and return (reply, measured round-trip ms)."""
        t0 = self.clock
        service = self.services.get(dst)
        forward = self.link.one_way(origin, dst)
        if service is None or forward is UNREACHABLE:
            self.clock = t0 + timeout_ms
            raise NetworkError(f"{dst} unreachable from {origin}")
        self.trace.append((round(t0, 6), origin, dst, frame.type.name))
        self.clock = t0 + forward
        reply = service.handle(frame)
        backward = self.link.one_way(dst, origin)
        if backward is UNREACHABLE:
            self.clock = t0 + timeout_ms
            raise NetworkError(f"no return path from {dst} to {origin}")
        self.clock += backward
        rtt = self.clock - t0
        if rtt > timeout_ms:
            self.clock = t0 + timeout_ms
            raise NetworkError(f"request to {dst} timed out after {timeout_ms} ms")
        self.trace.append((round(self.clock, 6), dst, origin, reply.type.name))
        return reply, rtt

    def now(self) -> float:
        return self.clock

    def exchange(self, origin: str, requests, timeout_ms: float = 1000.0) -> list:
        """Run `request` for each (dst, frame), every one starting at the same virtual time.

        Returns, in order, (reply, round-trip ms) or the HainaError that
        ended the request; the clock is left at the latest finish, not at
        the sum.
        """
        t0 = end = self.clock
        results = []
        for dst, frame in requests:
            self.clock = t0
            try:
                results.append(self.request(origin, dst, frame, timeout_ms))
            except HainaError as exc:
                # its traceback would hold this frame, and so `results`, in a cycle
                results.append(exc.with_traceback(None))
            if self.clock > end:
                end = self.clock
        self.clock = end
        return results
