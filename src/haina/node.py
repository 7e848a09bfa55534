"""Node-side service logic, shared by the simulated and real transports.

A node answers liveness pings, serves its roster and blocks, stores
incoming blocks, and (as the current beginner) runs the storage-right
campaign for the next block, returning the ranked candidates in its
store acknowledgement as one comma-joined address list, best first.
"""

import socket
import socketserver
import struct
import threading

from . import frames, hashing
from .blockstore import BlockStore
from .errors import CampaignError, HainaError, ParseError
from .frames import Frame, MsgType, error_frame, int_field
from .nodefile import NodeFile
from .por import PorConfig, run_campaign
from .realnet import recv_frame, send_frame


def decode_candidates(text: str, nf: NodeFile, beginner: str):
    """Parse a beginner's STORE_ACK candidate list; every candidate must be another roster member.

    A beginner that named itself would hold two neighbouring blocks, and so the mask.
    """
    candidates = tuple(text.split(","))
    followers = set(nf.addresses)  # a set: the tuple's linear scans cost more than building it
    followers.discard(beginner)
    for address in candidates:
        if address not in followers:
            raise ParseError("candidates", f"{address!r} is not a follower on the roster")
    return candidates


# a connection that delivers no byte for this long, or takes none of a reply
# for this long, is closed, so a silent, stalled or non-reading peer frees its thread
IDLE_TIMEOUT_S = 60.0

# connections past this many live ones are closed at once, so peers cannot
# start threads without bound; 8 clients running at once on 8 loopback nodes
# kept at most 51 open on one node
MAX_CONNECTIONS = 512

# built once per process: a per-instance table would slow every cluster start
_HANDLER_NAMES = {t: f"_on_{t.name.lower()}" for t in MsgType}


# bound once: each `MsgType.X` lookup costs about ten times a global's, and every poll builds a reply
_TAKEPART, _REFUSE = MsgType.TAKEPART, MsgType.REFUSE


class NodeService:
    """Protocol handler for one storage node."""

    def __init__(self, address: str, store: BlockStore, nf: NodeFile, por_cfg: PorConfig = None, transport=None):
        self.address = address
        self.store = store
        self.nf = nf
        self.por_cfg = por_cfg or PorConfig()
        self.transport = transport

    def handle(self, frame: Frame) -> Frame:
        try:
            handler = getattr(self, _HANDLER_NAMES[frame.type], None)
            if handler is None:
                return error_frame(f"unsupported message type {frame.type.name}")
            return handler(frame)
        except HainaError as exc:
            return error_frame(str(exc))

    def _on_ping(self, frame):
        return Frame(MsgType.PONG, {"node": self.address})

    def _on_get_nf(self, frame):
        return Frame(
            MsgType.NF_DATA,
            {"digest": self.nf.digest.hex()},
            self.nf.canonical_bytes(),
        )

    def _on_store_ready(self, frame):
        next_size = int_field(frame, "next_size")
        if frames.block_data_size(len(frame.body)) > frames.MAX_FRAME:  # stored, it could never be served
            return error_frame(f"a {len(frame.body)}-byte block cannot be served under the {frames.MAX_FRAME}-byte cap")
        address = self.store.put(frame.body)
        header = {"stored": address.hex()}
        elect = frame.header.get("elect", "0") == "1"
        if elect:
            try:
                result = run_campaign(self.transport, self.address, next_size, self.nf, self.por_cfg)
                header["candidates"] = ",".join(result.candidates)
                header["campaign_ms"] = repr(result.elapsed_ms)
            except CampaignError as exc:
                header["campaign_error"] = str(exc)
        return Frame(MsgType.STORE_ACK, header)

    def _on_election(self, frame):
        size = int_field(frame, "size")  # refuses a negative size
        free = self.store.freespace
        return Frame(_TAKEPART if free >= size else _REFUSE, {"freespace": str(free)})

    def _on_get_block(self, frame):
        address = hashing.parse_hex_digest(frame.header.get("address"), "address")
        # a miss raises IntegrityError, which `handle` answers with an ERROR frame
        return Frame(MsgType.BLOCK_DATA, {"address": address.hex()}, self.store.get(address))

    def _on_has_block(self, frame):
        # one "0"/"1" per address asked: `address`, then the optional `address2`
        address = hashing.parse_hex_digest(frame.header.get("address"), "address")
        has = "1" if self.store.has(address) else "0"
        second = frame.header.get("address2")
        if second is not None:
            has += "1" if self.store.has(hashing.parse_hex_digest(second, "address2")) else "0"
        return Frame(MsgType.HAS_BLOCK_REPLY, {"has": has})


class _FrameRequestHandler(socketserver.BaseRequestHandler):
    def handle(self):
        # socket timeouts, not settimeout(): that would poll() before every recv and send
        seconds, fraction = divmod(IDLE_TIMEOUT_S, 1)
        timeval = struct.pack("@ll", int(seconds), int(fraction * 1_000_000))
        self.request.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeval)
        self.request.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)
        while True:
            try:
                frame = recv_frame(self.request)
            except (ConnectionError, OSError, HainaError):
                return
            if frame is None:
                return
            reply = self.server.service.handle(frame)
            try:
                send_frame(self.request, reply)
            except (ConnectionError, OSError):
                return


class NodeServer(socketserver.ThreadingTCPServer):
    """Real TCP server wrapping a NodeService.

    Clients keep their connections open between requests, so
    `server_close()` also shuts down every live connection: a stopped
    node answers nothing more, not even on a connection opened earlier.
    Each connection has its own thread, and one past MAX_CONNECTIONS live
    ones is closed unanswered.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, listen, service: NodeService):
        self.service = service
        self._live = set()
        self._live_lock = threading.Lock()
        super().__init__(listen, _FrameRequestHandler)

    def process_request(self, request, client_address):
        with self._live_lock:
            refused = len(self._live) >= MAX_CONNECTIONS
            if not refused:
                self._live.add(request)
        if refused:
            self.shutdown_request(request)  # closed unanswered, before it gets a thread
            return
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._live_lock:
            self._live.discard(request)
        super().shutdown_request(request)

    def server_close(self):
        super().server_close()
        with self._live_lock:
            live, self._live = self._live, set()
        for request in live:
            try:
                request.shutdown(socket.SHUT_RDWR)  # wakes the handler blocked in recv
            except OSError:
                pass  # the peer already closed it

    def serve_forever(self):
        # shutdown() waits up to one poll interval for the loop to notice;
        # socketserver's 0.5 s default made every node stop take that long
        super().serve_forever(poll_interval=0.05)

    def serve_background(self):
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread
