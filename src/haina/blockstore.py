"""Per-node block storage with quota accounting.

Blocks are keyed by content address (the data-domain hash).  With a
data directory configured, each block lives in one file named by its
64-hex-char address, so a restarted node finds its blocks again.  A file
is written whole or not at all (temp file, then rename), and on restart
only files whose data domain hashes to their name count as stored.
"""

import math
import os
import threading

from . import hashing
from .chain import deserialize_block
from .errors import IntegrityError, ParseError, UsageError

BYTES_PER_GB = 10**9


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
        self.data_dir = data_dir
        self._blocks = {}  # address -> serialized block
        self._used = 0
        self._put_lock = threading.Lock()  # one quota check + insert at a time
        if data_dir is not None:
            os.makedirs(data_dir, exist_ok=True)
            self._load()

    def _load(self):
        for name in os.listdir(self.data_dir):
            if len(name) != 64:
                continue
            try:
                address = bytes.fromhex(name)
            except ValueError:
                continue
            with open(os.path.join(self.data_dir, name), "rb") as fh:
                raw = fh.read()
            try:
                if hashing.digest(deserialize_block(raw).data) != address:
                    continue  # another block's bytes under this name
            except UsageError:
                continue  # truncated, or not a block at all
            self._blocks[address] = raw
            self._used += len(raw)

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def freespace(self) -> int:
        return max(self.quota_bytes - self._used, 0)

    def addresses(self):
        return set(self._blocks)

    def put(self, raw: bytes) -> bytes:
        """Store a serialized block; returns its content address."""
        block = deserialize_block(raw)
        address = hashing.digest(block.data)
        with self._put_lock:
            if address in self._blocks:
                return address
            if len(raw) > self.freespace:
                raise UsageError(f"quota exceeded: {len(raw)} bytes needed, {self.freespace} free")
            self._blocks[address] = raw
            self._used += len(raw)
            if self.data_dir is not None:
                path = os.path.join(self.data_dir, address.hex())
                with open(path + ".tmp", "wb") as fh:
                    fh.write(raw)
                os.replace(path + ".tmp", path)
        return address

    def has(self, address: bytes) -> bool:
        return address in self._blocks

    def get(self, address: bytes) -> bytes:
        try:
            return self._blocks[address]
        except KeyError:
            raise IntegrityError(f"no block stored at {address.hex()}") from None
