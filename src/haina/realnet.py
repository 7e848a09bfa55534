"""Socket transport: the same request/exchange/now contract as the simulator.

`exchange` sends every request from the calling thread, then waits for
all the replies in one `select.poll()` loop against one deadline, so no
thread is ever started.  Connections persist: each `RealNet` keeps a
stack of idle non-blocking sockets per peer and reuses one for the next
request to that peer.  A socket goes back on its stack only after a
whole reply was read from it; any timeout or error closes it, so a late
reply can never be read as the answer to a later request.  A reused
socket that the peer has closed (for example, after a node restart)
costs one retry on a fresh connection, within the time left.  A fresh
connection is connected without blocking, in the same poll loop, so a
peer that never completes the connect (a host that is down, or one
that drops the SYN) costs only its own request.
`now()` and every round-trip read the monotonic clock.
"""

import errno
import os
import select
import socket
import threading
import time

from .errors import HainaError, NetworkError, ParseError
from .frames import FRAME_OVERHEAD, HEADER_FMT, MAGIC, MAX_FRAME, Frame, broadcast, decode_frame, encode_frame


def send_frame(sock, frame: Frame):
    sock.sendall(encode_frame(frame))


class _PeerClosed(ConnectionError):
    """The peer closed or reset the connection before the frame's first byte."""


class _Reader:
    """One frame, read from a socket as its bytes arrive: the 17-byte
    head, then exactly as many bytes as the head declares."""

    __slots__ = ("got", "raw", "view")

    def __init__(self):
        self.got = 0  # bytes read so far
        self.raw = bytearray(FRAME_OVERHEAD)  # the head, then the whole frame
        self.view = memoryview(self.raw)  # the part of `raw` still to read

    def read(self, sock) -> bool:
        """Read what has arrived; True once the whole frame is in.

        Raises _PeerClosed if the peer closed or reset the connection
        before the frame's first byte.
        """
        while self.view:
            try:
                n = sock.recv_into(self.view)
            except BlockingIOError:
                return False
            except ConnectionResetError:
                if self.got:
                    raise
                n = 0
            if n == 0:
                if self.got:
                    raise ParseError("frame", "connection closed mid-frame")
                raise _PeerClosed("the peer closed the connection")
            self.got += n
            self.view = self.view[n:]
            if self.got == FRAME_OVERHEAD and not self.view:
                magic, _, header_len, body_len = HEADER_FMT.unpack(self.raw)
                if magic != MAGIC:
                    raise ParseError("frame", f"bad magic {magic!r}")
                total = FRAME_OVERHEAD + header_len + body_len
                if total > MAX_FRAME:
                    raise ParseError("frame", "declared frame size exceeds cap")
                head, self.raw = self.raw, bytearray(total)
                self.raw[:FRAME_OVERHEAD] = head
                self.view = memoryview(self.raw)[FRAME_OVERHEAD:]
        return True


def recv_frame(sock):
    """Read one frame from a blocking socket; returns None if the peer
    closed or reset the connection before the frame's first byte."""
    reader = _Reader()
    try:
        reader.read(sock)
    except _PeerClosed:
        return None
    return decode_frame(reader.raw)


def parse_address(address: str):
    host, _, port = address.rpartition(":")
    try:
        return host, int(port)
    except ValueError:
        raise ParseError("address", f"{address!r} is not host:port") from None


class _Call:
    """One request of an `exchange`: its socket and how far it got."""

    __slots__ = ("dst", "data", "sent", "sock", "reused", "addrs", "connecting", "reply", "result")

    def __init__(self, dst: str, data: bytes):
        self.dst = dst
        self.data = data  # the encoded request
        self.sent = 0
        self.sock = None
        self.reused = None  # whether the socket came off the idle stack; None before the first step
        self.addrs = None  # the addresses of `dst` not tried yet, once resolved
        self.connecting = False  # a fresh connect was started and has not been seen to succeed
        self.reply = _Reader()
        self.result = None

    def connect(self, left_ms: float) -> int:
        """Start a non-blocking connect to the next address of `dst`.

        Returns POLLOUT, the event that says the connect ended; `send`
        then tells whether it succeeded.
        """
        if self.addrs is None:
            host, port = parse_address(self.dst)
            self.addrs = socket.getaddrinfo(host, port, type=socket.SOCK_STREAM)
        family, kind, proto, _, address = self.addrs.pop(0)
        if left_ms <= 0:
            raise TimeoutError("timed out")
        self.sock = socket.socket(family, kind, proto)
        self.sock.setblocking(False)
        self.connecting = True
        err = self.sock.connect_ex(address)
        if err not in (0, errno.EINPROGRESS):
            raise OSError(err, os.strerror(err))
        return select.POLLOUT

    def send(self) -> bool:
        """Send what is left of the request; True once all of it is out."""
        if self.connecting:
            err = self.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            if err:
                raise OSError(err, os.strerror(err))
            self.connecting = False
        while self.sent < len(self.data):
            try:
                self.sent += self.sock.send(memoryview(self.data)[self.sent :])
            except BlockingIOError:
                return False
        return True


class RealNet:
    """Client-side transport over TCP sockets.

    The `origin` argument is accepted for interface parity with the
    simulator; real sockets always originate from the caller's host.
    Every call keeps its state to itself, so the handler threads of a
    node may share one `RealNet`.  Call `close()` to release the idle
    sockets.
    """

    def __init__(self):
        self._idle = {}  # peer address -> idle sockets, most recently used last
        self._lock = threading.Lock()

    def _take(self, dst: str):
        with self._lock:
            stack = self._idle.get(dst)
            return stack.pop() if stack else None

    def _give(self, dst: str, sock):
        with self._lock:
            self._idle.setdefault(dst, []).append(sock)

    def request(self, origin: str, dst: str, frame: Frame, timeout_ms: float = 1000.0):
        """One request: (reply, round-trip ms), or raises what ended it."""
        (result,) = self.exchange(origin, [(dst, frame)], timeout_ms)
        if isinstance(result, HainaError):
            raise result
        return result

    def exchange(self, origin: str, requests, timeout_ms: float = 1000.0) -> list:
        """Send every (dst, frame) request at once and wait for all the replies.

        Returns, in request order, (reply, round-trip ms) for each request
        that succeeded, or the HainaError that ended it.  Every request is
        sent before the first wait, and all of them share one deadline,
        `timeout_ms` from now.  A frame that cannot be encoded raises
        before anything is sent.
        """
        t0 = self.now()
        deadline = t0 + timeout_ms
        calls = [_Call(dst, encode_frame(frame)) for dst, frame in requests]
        poller = select.poll()
        waiting = {}  # socket fd -> the call waiting on it
        ready, late = calls, False
        try:
            while True:
                for call in ready:
                    events = self._step(call, t0, deadline)
                    if events:
                        fd = call.sock.fileno()
                        poller.register(fd, events)
                        waiting[fd] = call
                if not waiting or late:
                    break
                left = deadline - self.now()
                late = left <= 0  # past the deadline: one last look at what is ready
                ready = []
                for fd, _ in poller.poll(max(left, 0)):
                    poller.unregister(fd)
                    ready.append(waiting.pop(fd))
        finally:
            for call in calls:
                if call.result is None:  # timed out, or the loop was interrupted
                    if call.sock is not None:
                        call.sock.close()
                    call.result = NetworkError(f"request to {call.dst} failed: timed out")
        return [call.result for call in calls]

    def _step(self, call, t0: float, deadline: float) -> int:
        """Take `call` as far as its socket allows without waiting.

        Returns the poll events it waits for next, or 0 once it ended
        with its result set.
        """
        try:
            if call.reused is None:  # the first step
                call.sock = self._take(call.dst)
                call.reused = call.sock is not None
            while True:
                try:
                    if call.sock is None:
                        return call.connect(deadline - self.now())
                    if call.sent < len(call.data):  # all sent: the first read waits for the poll
                        return select.POLLIN if call.send() else select.POLLOUT
                    if not call.reply.read(call.sock):
                        return select.POLLIN
                    break
                except OSError:
                    stale = call.reused and not call.reply.got  # the peer dropped the idle socket
                    if not (stale or call.connecting and call.addrs):
                        raise
                # retry once on a fresh connection, or connect to the next address
                if call.sock is not None:
                    call.sock.close()
                call.sock, call.reused, call.sent = None, False, 0
            result = (decode_frame(call.reply.raw), self.now() - t0)
        except OSError as exc:
            result = NetworkError(f"request to {call.dst} failed: {exc}")
        except ParseError as exc:
            result = exc.with_traceback(None)  # its traceback would hold `call` in a cycle
        else:
            self._give(call.dst, call.sock)
            call.sock = None
        if call.sock is not None:
            call.sock.close()
        call.data = call.reply = None
        call.result = result
        return 0

    def now(self) -> float:
        return time.monotonic() * 1000.0

    broadcast = broadcast

    def close(self):
        """Close every idle socket."""
        with self._lock:
            idle, self._idle = self._idle, {}
        for stack in idle.values():
            for sock in stack:
                sock.close()
