"""Per-node block storage with quota accounting.

Blocks are keyed by content address (the data-domain hash).  With a data
directory configured, one log, `blocks.log`, is the node's only copy of the
blocks it stores: a node appends each block to it as the serialized block it
received, and keeps in memory only each record's offset and length.  The
block's own length field frames the record.  `get` serves a record as a
read-only view of a read-only mapping of the log, which the store maps again
only when a record ends past the current mapping; an old mapping lives as
long as a view of it does.  A log truncated under a running node can kill it
with SIGBUS when it reads a mapped page past the new end.  A put appends
first and indexes after, and cuts a failed append off the log again.
Appends are not fsynced, so a crash can tear the last record: a restarted
node indexes each whole record under its data domain's hash up to the first
one it cannot frame, appends the rest of the log to `blocks.log.cut`
(fsynced) and only then truncates the log there.  A damaged length field
mid-log so drops every later record from the store, but deletes none of the
bytes the node wrote.  Per-block files of older versions are not read.
Without a data directory (the simulator), the store keeps each block as bytes.
"""

import errno
import math
import mmap
import os
import threading

from . import hashing
from .chain import BLOCK_OVERHEAD, deserialize_block, stated_size
from .errors import IntegrityError, ParseError, UsageError

BYTES_PER_GB = 10**9
LOG_NAME = "blocks.log"


def quota_bytes(quota_gb) -> int:
    """A quota in GB as whole bytes; it must come to a finite quota of at least 1 byte."""
    if not 1 <= quota_gb * BYTES_PER_GB < math.inf:  # also false for NaN
        raise ParseError("quota_gb", f"{quota_gb} GB is not a finite quota of at least 1 byte")
    return int(quota_gb * BYTES_PER_GB)


class BlockStore:
    _view = memoryview(b"")  # the log as last mapped: a class default, so a store without one pays nothing

    def __init__(self, quota_bytes: int, data_dir=None):
        self.quota_bytes = quota_bytes
        self._log = None if data_dir is None else os.path.join(data_dir, LOG_NAME)
        self._blocks = {}  # address -> serialized block, or with a log its (offset, length) there
        self._used = 0
        self._put_lock = threading.Lock()  # one quota check + append + insert at a time
        if data_dir is not None:
            os.makedirs(data_dir, exist_ok=True)
            self._load()

    def _map_log(self) -> memoryview:
        """The whole log as it is now, read-only; the mapping holds its own fd."""
        fd = os.open(self._log, os.O_RDONLY)
        try:
            size = os.fstat(fd).st_size
            return memoryview(mmap.mmap(fd, size, access=mmap.ACCESS_READ) if size else b"")
        finally:
            os.close(fd)

    def _load(self):
        try:
            view = self._map_log()
        except FileNotFoundError:
            return  # a new data dir: the first put creates the log
        end = 0
        while end + BLOCK_OVERHEAD <= len(view):  # index each record where it lies; stop at a torn one
            size = stated_size(view, end)
            if end + size > len(view):
                break
            try:
                block = deserialize_block(view[end : end + size])
            except UsageError:
                break
            self._blocks[hashing.digest(block.data)] = (end, size)
            end += size
        if end < len(view):
            with open(self._log + ".cut", "ab") as cut:
                cut.write(view[end:])
                cut.flush()
                os.fsync(cut.fileno())  # the cut bytes are on disk before the log loses them
            os.truncate(self._log, end)
        self._view = view[:end]  # no view reaches past the truncated end
        self._used = end

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def freespace(self) -> int:
        free = self.quota_bytes - self._used  # read on every election poll: a conditional, not max()
        return free if free > 0 else 0

    def put(self, raw) -> bytes:
        """Store a serialized block; returns its content address."""
        block = deserialize_block(raw)
        address = hashing.digest(block.data)
        with self._put_lock:
            if address in self._blocks:
                return address
            if len(raw) > self.freespace:
                raise UsageError(f"quota exceeded: {len(raw)} bytes needed, {self.freespace} free")
            if self._log is None:
                # bytes, not a view of the caller's frame buffer: a view is two objects the
                # garbage collector tracks, so every full collection would walk each stored block
                self._blocks[address] = bytes(raw)
            else:
                try:
                    with open(self._log, "ab", buffering=0) as fh:
                        if fh.write(raw) != len(raw):
                            raise OSError(errno.ENOSPC, "short write")
                except OSError as exc:
                    os.truncate(self._log, self._used)  # the log holds exactly the stored blocks
                    raise UsageError(f"block not stored: {exc}") from None
                self._blocks[address] = (self._used, len(raw))
            self._used += len(raw)
        return address

    def has(self, address: bytes) -> bool:
        return address in self._blocks

    def get(self, address: bytes):
        """The serialized block at `address`: bytes, or with a log a read-only view of it."""
        try:
            record = self._blocks[address]
        except KeyError:
            raise IntegrityError(f"no block stored at {address.hex()}") from None
        if self._log is None:
            return record
        offset, length = record
        end = offset + length
        view = self._view
        if end > len(view):  # appended since the log was last mapped
            try:
                view = self._view = self._map_log()
            except OSError as exc:
                raise IntegrityError(f"{LOG_NAME} unreadable: {exc}") from None
            if end > len(view):
                raise IntegrityError(f"{LOG_NAME} ends at byte {len(view)}, inside the block at {address.hex()}")
        return view[offset:end]
