"""In-memory spans around haina's public functions, recorded from outside.

`install(tracer)` replaces a fixed set of module and class attributes of
the `haina` package with wrappers that record one span per call.  Nothing
under `src/` changes: the wrappers sit at the layer boundaries the program
already exposes, so a span's parent is whatever wrapped call is open on the
same thread.  Spans stay in memory until the process hands them over.

A span is the tuple (id, parent, name, start, end, pid, attrs), with times
from `time.perf_counter`, which is CLOCK_MONOTONIC on Linux and therefore
comparable between the client and the node-host process.
"""

import itertools
import os
import socket
import threading
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, describe=None):
        """Run fn(*args, **kwargs) inside a span named `name`.

        `describe(args, kwargs, result, error)` returns the span's attrs.
        """
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        result = error = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            attrs = describe(args, kwargs, result, error) if describe else None
            if error is not None:
                attrs = dict(attrs or {}, error=type(error).__name__)
            self.spans.append((span_id, parent, name, start, end, self.pid, attrs))


def _wrap(tracer, owner, attr, name, describe=None):
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        return tracer.call(name, original, args, kwargs, describe)

    wrapper.__wrapped__ = original
    setattr(owner, attr, wrapper)


def _handled(args, kwargs, result, error):
    attrs = {"type": args[1].type.name}
    if result is not None:
        attrs["reply"] = result.type.name
        if result.header.get("has") == "1":
            attrs["has"] = 1
    return attrs


def _out_bytes(args, kwargs, result, error):
    return {"bytes": len(result)} if result is not None else None


def _in_bytes(args, kwargs, result, error):
    return {"bytes": len(args[0])}


def install(tracer, client_side):
    """Wrap the layer boundaries of the already-imported `haina` package.

    The client process wraps the client-facing names; the node host wraps
    only what runs inside a node.  The simulator runs both in one process.
    """
    import haina.blockstore
    import haina.client
    import haina.hashing
    import haina.node
    import haina.realnet
    import haina.simnet
    from haina.blockstore import BlockStore
    from haina.node import NodeService

    _wrap(tracer, haina.hashing, "digest", "hashing.digest", _in_bytes)
    _wrap(tracer, NodeService, "handle", "node.handle", _handled)
    _wrap(tracer, haina.node, "run_campaign", "por.campaign")
    _wrap(tracer, BlockStore, "put", "blockstore.put")
    _wrap(tracer, BlockStore, "get", "blockstore.get")
    _wrap(tracer, haina.blockstore, "deserialize_block", "chain.codec")
    _wrap(tracer, haina.realnet.RealNet, "request", "realnet.request")
    _wrap(tracer, haina.realnet, "encode_frame", "frames.encode", _out_bytes)
    _wrap(tracer, haina.realnet, "decode_frame", "frames.decode")
    _wrap(tracer, haina.simnet.SimNet, "request", "simnet.request")
    _wrap(tracer, socket, "create_connection", "realnet.connect")
    _wrap(tracer, threading.Thread, "start", "thread.start")
    if not client_side:
        return
    c = haina.client
    _wrap(tracer, c, "generate_key", "crypto.keygen")
    _wrap(tracer, c, "encrypt_file", "crypto.encrypt")
    _wrap(tracer, c, "decrypt_file", "crypto.decrypt")
    for attr in ("split_ciphertext", "embed_key_shards", "extract_key_shards"):
        _wrap(tracer, c, attr, "crypto.shard")
    _wrap(tracer, c, "build_chain", "chain.build")
    for attr in ("serialize_block", "deserialize_block"):
        _wrap(tracer, c, attr, "chain.codec")
    for attr in ("lock_chain", "unlock_block"):
        _wrap(tracer, c, attr, "locking")
    _wrap(tracer, c, "check_store", "por.check_store")
    _wrap(tracer, c, "check_rate", "client.decision")
    _wrap(tracer, c, "resolve", "resolve")
    for attr in ("bdam_fetch", "unidirectional_fetch"):
        _wrap(tracer, c, attr, "client.fetch")
