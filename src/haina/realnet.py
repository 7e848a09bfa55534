"""Socket transport: the same request/fan_out/now contract as the simulator.

Connections persist: each `RealNet` keeps a stack of idle sockets per
peer and reuses one for the next request to that peer.  A socket goes
back on its stack only after a whole reply was read from it; any
timeout or error closes it, so a late reply can never be read as the
answer to a later request.  A reused socket that the peer has closed
(for example, after a node restart) costs one retry on a fresh
connection.  `fan_out` runs its first call on the calling thread and
the rest on one executor per `RealNet`, and joins them all.  `now()`
and every round-trip read the monotonic clock.
"""

import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait

from .errors import NetworkError, ParseError
from .frames import FRAME_OVERHEAD, HEADER_FMT, MAGIC, MAX_FRAME, Frame, broadcast, decode_frame, encode_frame

FAN_OUT_WORKERS = 32


def send_frame(sock, frame: Frame):
    sock.sendall(encode_frame(frame))


def _recv_into(sock, view) -> bool:
    """Fill `view` from the socket; False if the peer closed it first."""
    while view:
        n = sock.recv_into(view)
        if n == 0:
            return False
        view = view[n:]
    return True


def recv_frame(sock):
    """Read one frame; returns None if the peer closed or reset the
    connection before the frame's first byte."""
    head = bytearray(FRAME_OVERHEAD)
    try:
        n = sock.recv_into(head)
    except ConnectionResetError:
        return None
    if n == 0:
        return None
    if not _recv_into(sock, memoryview(head)[n:]):
        raise ParseError("frame", "connection closed mid-frame")
    magic, _, header_len, body_len = HEADER_FMT.unpack(head)
    if magic != MAGIC:
        raise ParseError("frame", f"bad magic {magic!r}")
    total = FRAME_OVERHEAD + header_len + body_len
    if total > MAX_FRAME:
        raise ParseError("frame", "declared frame size exceeds cap")
    raw = bytearray(total)
    raw[:FRAME_OVERHEAD] = head
    if not _recv_into(sock, memoryview(raw)[FRAME_OVERHEAD:]):
        raise ParseError("frame", "connection closed mid-frame")
    return decode_frame(raw)


def _exchange(sock, data: bytes, timeout_s: float):
    """Send one encoded frame and read its reply.

    Returns None when the peer had closed the connection before the
    reply's first byte; a timeout always raises.
    """
    sock.settimeout(timeout_s)
    try:
        sock.sendall(data)
    except socket.timeout:
        raise
    except OSError:
        return None
    return recv_frame(sock)


def parse_address(address: str):
    host, _, port = address.rpartition(":")
    try:
        return host, int(port)
    except ValueError:
        raise ParseError("address", f"{address!r} is not host:port") from None


class RealNet:
    """Client-side transport over TCP sockets.

    The `origin` argument is accepted for interface parity with the
    simulator; real sockets always originate from the caller's host.
    Call `close()` to release the idle sockets and the fan-out workers.
    """

    def __init__(self):
        self._idle = {}  # peer address -> idle sockets, most recently used last
        self._lock = threading.Lock()
        self._pool = ThreadPoolExecutor(max_workers=FAN_OUT_WORKERS)

    def _take(self, dst: str):
        with self._lock:
            stack = self._idle.get(dst)
            return stack.pop() if stack else None

    def _give(self, dst: str, sock):
        with self._lock:
            self._idle.setdefault(dst, []).append(sock)

    def request(self, origin: str, dst: str, frame: Frame, timeout_ms: float = 1000.0):
        address = parse_address(dst)
        timeout_s = timeout_ms / 1000.0
        data = encode_frame(frame)
        t0 = self.now()
        sock = self._take(dst)
        reply = None
        try:
            if sock is not None:
                reply = _exchange(sock, data, timeout_s)
                if reply is None:  # the peer dropped the idle socket: retry once, fresh
                    sock.close()
            if reply is None:
                sock = socket.create_connection(address, timeout=timeout_s)
                reply = _exchange(sock, data, timeout_s)
        except OSError as exc:
            if sock is not None:
                sock.close()
            raise NetworkError(f"request to {dst} failed: {exc}") from None
        except ParseError:
            sock.close()
            raise
        if reply is None:
            sock.close()
            raise NetworkError(f"{dst} closed the connection")
        self._give(dst, sock)
        return reply, self.now() - t0

    def now(self) -> float:
        return time.monotonic() * 1000.0

    def fan_out(self, fn, items) -> list:
        """Return [fn(item) for item in a sequence of items], with the calls run at once.

        The first call runs on the calling thread and the rest on the
        executor, which starts its workers only as calls need them.
        """
        futures = [self._pool.submit(fn, item) for item in items[1:]]
        try:
            return [fn(item) for item in items[:1]] + [future.result() for future in futures]
        except BaseException:
            wait(futures)  # a call that raised leaves no other still running
            raise

    broadcast = broadcast

    def close(self):
        """Stop the fan-out workers and close every idle socket."""
        self._pool.shutdown()
        with self._lock:
            idle, self._idle = self._idle, {}
        for stack in idle.values():
            for sock in stack:
                sock.close()
