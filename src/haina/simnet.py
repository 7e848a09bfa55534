"""Deterministic simulated network with virtual time.

Each message is delayed by the ordered-pair one-way latency (`matrix`
overrides the uniform base; `UNREACHABLE` cuts the link) plus seeded
jitter, clamped at 0.  Everything runs in one thread: `exchange` (election
polls, resolver queries, a round's block fetches) starts every request at
the same virtual time and charges the slowest rather than their sum, so a
fixed seed reproduces every timing bit-for-bit.  The net records nothing;
a test that wants the message order wraps `request`.
"""

import math
import random

from .errors import HainaError, NetworkError, UsageError
from .frames import Frame

UNREACHABLE = math.inf


class SimNet:
    """Virtual-time transport connecting in-process node services; `matrix` maps (src, dst) -> ms."""

    def __init__(self, latency_ms: float = 25.0, jitter_ms: float = 0.0, seed: int = 0, matrix=None):
        self.matrix = dict(matrix) if matrix else {}
        if latency_ms < 0 or jitter_ms < 0 or any(ms < 0 for ms in self.matrix.values()):
            raise UsageError("latency, jitter and matrix latencies cannot be negative")
        self.latency_ms = latency_ms
        self.jitter_ms = jitter_ms
        self._rng = random.Random(seed)
        self.services = {}
        self.clock = 0.0

    def one_way(self, src: str, dst: str) -> float:
        base = self.matrix.get((src, dst), self.latency_ms) if self.matrix else self.latency_ms
        if self.jitter_ms and base != UNREACHABLE:
            return max(0.0, base + self._rng.uniform(-self.jitter_ms, self.jitter_ms))
        return base

    def add_node(self, address: str, service):
        self.services[address] = service

    def remove_node(self, address: str):
        self.services.pop(address, None)

    def request(self, origin: str, dst: str, frame: Frame, timeout_ms: float = 1000.0):
        """Deliver one frame and return (reply, measured round-trip ms).

        An unknown or cut-off node never sees the frame; a cut return leg
        is an infinite round trip.  A failure costs exactly `timeout_ms`.
        """
        t0 = self.clock
        service = self.services.get(dst)
        forward = self.one_way(origin, dst)
        if service is None or forward == UNREACHABLE:
            self.clock = t0 + timeout_ms
            raise NetworkError(f"{dst} unreachable from {origin}")
        self.clock = t0 + forward
        reply = service.handle(frame)
        self.clock += self.one_way(dst, origin)
        rtt = self.clock - t0
        if rtt > timeout_ms:
            self.clock = t0 + timeout_ms
            raise NetworkError(f"request to {dst} timed out after {timeout_ms} ms")
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
