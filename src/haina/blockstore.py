"""Per-node block storage with quota accounting.

Blocks are keyed by content address (the data-domain hash).  With a data
directory configured, a node appends each block it stores to one log,
`blocks.log`, as the serialized block it received; the block's own length
field frames the record.  A put appends first and indexes after, and cuts
a failed append off the log again.  Appends are not fsynced, so a crash can
tear the last record: a restarted node indexes each whole record under its
data domain's hash up to the first one it cannot frame, appends the rest of
the log to `blocks.log.cut` (fsynced) and only then truncates the log there.
A damaged length field mid-log so drops every later record from the store,
but deletes none of the bytes the node wrote.  Per-block files of older
versions are not read.
"""

import errno
import math
import os
import shutil
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
    def __init__(self, quota_bytes: int, data_dir=None):
        if quota_bytes < 0:
            raise UsageError("quota cannot be negative")
        self.quota_bytes = quota_bytes
        self._log = None if data_dir is None else os.path.join(data_dir, LOG_NAME)
        self._blocks = {}  # address -> serialized block
        self._used = 0
        self._put_lock = threading.Lock()  # one quota check + append + insert at a time
        if data_dir is not None:
            os.makedirs(data_dir, exist_ok=True)
            self._load()

    def _load(self):
        if not os.path.exists(self._log):
            return  # a new data dir: the first put creates the log
        with open(self._log, "r+b") as fh:
            size = os.fstat(fh.fileno()).st_size
            end = 0
            while True:  # one record in memory at a time; stop at a torn one
                head = fh.read(BLOCK_OVERHEAD)
                if len(head) < BLOCK_OVERHEAD or end + stated_size(head) > size:
                    break
                raw = head + fh.read(stated_size(head) - BLOCK_OVERHEAD)
                try:
                    block = deserialize_block(raw)
                except UsageError:
                    break
                self._blocks[hashing.digest(block.data)] = raw
                end += len(raw)
            if end < size:
                fh.seek(end)
                with open(self._log + ".cut", "ab") as cut:
                    shutil.copyfileobj(fh, cut)
                    cut.flush()
                    os.fsync(cut.fileno())  # the cut bytes are on disk before the log loses them
                fh.truncate(end)
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
            if self._log is not None:
                try:
                    with open(self._log, "ab", buffering=0) as fh:
                        if fh.write(raw) != len(raw):
                            raise OSError(errno.ENOSPC, "short write")
                except OSError as exc:
                    os.truncate(self._log, self._used)  # the log holds exactly the stored blocks
                    raise UsageError(f"block not stored: {exc}") from None
            # bytes, not a view of the caller's frame buffer: a view is two objects the
            # garbage collector tracks, so every full collection would walk each stored block
            self._blocks[address] = bytes(raw)
            self._used += len(raw)
        return address

    def has(self, address: bytes) -> bool:
        return address in self._blocks

    def get(self, address: bytes) -> bytes:
        try:
            return self._blocks[address]
        except KeyError:
            raise IntegrityError(f"no block stored at {address.hex()}") from None
