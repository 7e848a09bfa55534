"""Socket transport: the same request/exchange/now contract as the simulator.

`exchange` sends every request from the calling thread, then waits for
all the replies in one `select.poll()` loop against one deadline, so no
thread is ever started; each request is a generator that yields the
socket and event it waits on.  Connections persist: each `RealNet`
keeps a stack of idle non-blocking sockets per peer and reuses one for
the next request to that peer.  A socket goes back on its stack only
after a whole reply was read from it; any timeout or error closes it,
so a late reply can never be read as the answer to a later request.  A
reused socket that the peer has closed (for example, after a node
restart) costs one retry on a fresh connection, within the time left.
A fresh connection is connected without blocking, in the same poll
loop, so a peer that never completes the connect (a host that is down,
or one that drops the SYN) costs only its own request.
Client and node read a frame of up to FIRST_READ bytes with one recv and a
larger one as it arrives; bytes past a reply's frame fail its request.
`now()` and every round-trip read the monotonic clock.
"""

import errno
import os
import select
import socket
import threading
import time

from .errors import HainaError, NetworkError, ParseError
from .frames import FRAME_OVERHEAD, Frame, decode_frame, encode_frame, frame_length
from .nodefile import parse_address


def send_frame(sock, frame: Frame):
    sock.sendall(encode_frame(frame))


class _PeerClosed(ConnectionError):
    """The peer closed or reset the connection before the frame's first byte."""


# A frame that fits in the first read costs one recv.  Each read's buffer counts in
# traced memory: with 64 KiB, operations on 64 KiB files peaked at 2.5 files, not 1.5.
FIRST_READ = 4096


def _rung(total: int, least: int) -> int:
    """The smallest ceil(total / 2**k) that is at least `least`: a frame buffer's next size."""
    size = total
    while (size + 1) // 2 >= least:
        size = (size + 1) // 2
    return size


class _Reader:
    """One frame, read as its bytes arrive: up to FIRST_READ bytes until the head is in,
    then into a buffer on the ceil(total / 2**k) ladder that doubles in place when full, up
    to the declared length: each read asks for at most what is in, and no slack is left."""

    __slots__ = ("got", "raw", "total")

    def __init__(self):
        self.got = 0  # bytes read so far
        self.raw = b""  # the bytes read; once the head is in, the frame's buffer
        self.total = 0  # the frame's declared length, once the head is in

    def read(self, sock) -> bool:
        """Read what has arrived; True once the whole frame is in.

        Raises _PeerClosed if the peer closed or reset the connection before the
        frame's first byte, ParseError for a head the protocol rejects or bytes past its end.
        """
        while True:
            try:
                if not self.total:
                    data = sock.recv(FIRST_READ - self.got)
                    n = len(data)
                else:
                    if self.got == len(self.raw):  # full: grow to the next rung, at most twice its size
                        size = _rung(self.total, self.got + 1)
                        self.raw *= 2  # allocated exactly, as it doubles, with no zero-filled temporary
                        del self.raw[size:]
                    n = sock.recv_into(memoryview(self.raw)[self.got :])
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
            if not self.total:
                self.raw += data
                if self.got < FRAME_OVERHEAD:
                    continue
                self.total = frame_length(self.raw)
                if self.got > self.total:
                    raise ParseError("frame", f"{self.got - self.total} bytes past the frame's end")
                if self.got < self.total:  # start on a rung, so that each doubling ends at most a byte past the next
                    data, self.raw = self.raw, bytearray(_rung(self.total, self.got))
                    self.raw[: self.got] = data
            if self.got == self.total:
                return True


def recv_frame(sock):
    """Read one frame from a blocking socket; returns None if the peer
    closed or reset the connection before the frame's first byte, or if
    a read outlasted the socket's receive timeout (SO_RCVTIMEO), mid-frame too."""
    reader = _Reader()
    try:
        if not reader.read(sock):  # a blocking socket would block only past its receive timeout
            return None
    except _PeerClosed:
        return None
    return decode_frame(reader.raw)


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
        """Send every (dst, frame) request of a list at once and wait for all the replies.

        Returns, in request order, (reply, round-trip ms) for each request
        that succeeded, or the HainaError that ended it.  Every request is
        sent before the first wait, and all of them share one deadline,
        `timeout_ms` from now.  A frame that cannot be encoded raises
        before anything is sent.
        """
        t0 = self.now()
        deadline = t0 + timeout_ms
        calls = [self._call(dst, encode_frame(frame), t0, deadline) for dst, frame in requests]
        results = [None] * len(calls)
        poller = select.poll()
        waiting = {}  # socket fd -> the index of the call waiting on it
        ready, late = range(len(calls)), False
        try:
            while True:
                for i in ready:
                    try:
                        sock, event = next(calls[i])
                    except StopIteration as done:
                        results[i] = done.value
                        continue
                    fd = sock.fileno()
                    poller.register(fd, event)
                    waiting[fd] = i
                if not waiting or late:
                    break
                left = deadline - self.now()
                late = left <= 0  # past the deadline: one last look at what is ready
                ready = []
                for fd, _ in poller.poll(max(left, 0)):
                    poller.unregister(fd)
                    ready.append(waiting.pop(fd))
        finally:
            for call in calls:  # a call still waiting (timed out or interrupted) closes its socket
                call.close()
        for i in waiting.values():  # still waiting at the deadline
            results[i] = NetworkError(f"request to {requests[i][0]} failed: timed out")
        return results

    def _call(self, dst: str, data: bytes, t0: float, deadline: float):
        """One request of an `exchange`, as a generator.

        It yields (socket, poll event) whenever it would block, and returns
        (reply, round-trip ms) or the HainaError that ended the request.
        Its socket is closed unless it went back on the idle stack.
        """
        sock = self._take(dst)
        reused = sock is not None
        try:
            while True:
                if sock is None:  # a fresh connection: each address of `dst` in turn
                    addrs = socket.getaddrinfo(*parse_address(dst), type=socket.SOCK_STREAM)
                    while True:
                        family, kind, proto, _, address = addrs.pop(0)
                        if self.now() >= deadline:
                            raise TimeoutError("timed out")
                        sock = socket.socket(family, kind, proto)
                        sock.setblocking(False)
                        err = sock.connect_ex(address)
                        if err == errno.EINPROGRESS:
                            yield sock, select.POLLOUT
                            err = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
                        if not err:
                            break
                        sock.close()
                        if not addrs:
                            raise OSError(err, os.strerror(err))
                reply = _Reader()
                try:
                    out = memoryview(data)
                    while out:
                        try:
                            out = out[sock.send(out) :]
                        except BlockingIOError:
                            yield sock, select.POLLOUT
                    yield sock, select.POLLIN  # all sent: the reply cannot be in yet
                    while not reply.read(sock):
                        yield sock, select.POLLIN
                    break
                except OSError:
                    if not reused or reply.got:
                        raise
                # the peer dropped the idle socket: retry once on a fresh connection
                sock.close()
                sock, reused = None, False
            result = decode_frame(reply.raw), self.now() - t0
            self._give(dst, sock)  # a whole reply: the socket is ready for the next request
            sock = None
            return result
        except OSError as exc:
            return NetworkError(f"request to {dst} failed: {exc}")
        except ParseError as exc:
            return exc.with_traceback(None)  # its traceback would keep this call's frame and buffers alive
        finally:
            if sock is not None:
                sock.close()

    def now(self) -> float:
        return time.monotonic() * 1000.0

    def close(self):
        """Close every idle socket."""
        with self._lock:
            idle, self._idle = self._idle, {}
        for stack in idle.values():
            for sock in stack:
                sock.close()
