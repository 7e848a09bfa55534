"""Length-prefixed binary wire frames.

Layout (bit-exact): magic "HAIN" (4) || type tag (1) || header length
(4, big-endian) || body length (8, big-endian) || header || body.
The header is UTF-8 "key: value" lines, each ending in a newline and no
key repeated; block payloads travel only in the binary body.  A frame is
capped at 64 MiB, and its header at 64 KiB.
"""

import struct
from dataclasses import dataclass, field
from enum import IntEnum

from .errors import ParseError
from .hashing import DIGEST_SIZE

MAGIC = b"HAIN"
HEADER_FMT = struct.Struct(">4sBIQ")  # magic, type, header len, body len
FRAME_OVERHEAD = HEADER_FMT.size  # 17 bytes
MAX_FRAME = 64 * 1024 * 1024
# the longest header, a beginner's STORE_ACK naming every other member, fits: nodefile bounds the roster by it
MAX_HEADER = 64 * 1024


class MsgType(IntEnum):
    PING = 1
    PONG = 2
    GET_NF = 3
    NF_DATA = 4
    STORE_READY = 5
    STORE_ACK = 6
    ELECTION = 7
    TAKEPART = 8
    REFUSE = 9
    # tags 10 to 13 are reserved: never reuse them
    GET_BLOCK = 14
    BLOCK_DATA = 15
    HAS_BLOCK = 16
    HAS_BLOCK_REPLY = 17
    ERROR = 18


_TYPE_BY_TAG = {int(t): t for t in MsgType}  # tag -> member; cheaper than MsgType(tag) per decoded frame
BODY_TYPES = frozenset({MsgType.STORE_READY, MsgType.BLOCK_DATA, MsgType.NF_DATA})  # the rest carry only a header


# slots and no freezing: a frame is built per request, and frozen construction costs twice as much
@dataclass(slots=True)
class Frame:
    type: MsgType
    header: dict = field(default_factory=dict)
    body: bytes = b""  # any bytes-like; a decoded frame's is a read-only view of the received buffer


def _encode_header(header: dict) -> bytes:
    """One "key: value\n" line per entry; `_decode_header` accepts exactly these bytes."""
    lines = []
    for key, value in header.items():
        key = str(key)
        value = str(value)
        if not key or ":" in key or "\n" in key or "\r" in key:
            raise ParseError("header", f"empty header key or illegal character in {key!r}")
        if "\n" in value or "\r" in value:
            raise ParseError("header", f"newline in header value for {key!r}")
        lines.append(f"{key}: {value}\n")
    return "".join(lines).encode("utf-8")


def _decode_header(raw) -> dict:
    try:
        text = str(raw, "utf-8")
    except UnicodeDecodeError:
        raise ParseError("header", "header is not valid UTF-8") from None
    if "\r" in text:
        raise ParseError("header", "carriage return in header")
    lines = text.split("\n")
    if lines.pop():
        raise ParseError("header", "header does not end in a newline")
    header = {}
    for line in lines:
        key, sep, value = line.partition(": ")
        if not sep or not key or ":" in key:
            raise ParseError("header", f"malformed header line {line!r}")
        header[key] = value
    if len(header) != len(lines):
        raise ParseError("header", "repeated header key")
    return header


def block_data_size(block_len: int) -> int:
    """Encoded length of the BLOCK_DATA frame serving a serialized block: the largest frame a block travels in."""
    return FRAME_OVERHEAD + len(_encode_header({"address": bytes(DIGEST_SIZE).hex()})) + block_len


def _check_sizes(msg_type: MsgType, header_len: int, body_len: int) -> int:
    """The size rules every peer applies, to a frame it sends and to one it reads; returns the frame's length."""
    total = FRAME_OVERHEAD + header_len + body_len
    if total > MAX_FRAME:
        raise ParseError("frame", f"declared frame size {total} exceeds the {MAX_FRAME} cap")
    if header_len > MAX_HEADER:
        raise ParseError("frame", f"declared header size {header_len} exceeds the {MAX_HEADER} cap")
    if body_len and msg_type not in BODY_TYPES:
        raise ParseError("frame", f"a {msg_type.name} frame carries no body, not {body_len} bytes")
    return total


def encode_frame(frame: Frame) -> bytes:
    """Encode a frame; one that a peer would refuse raises ParseError, so it is never sent."""
    header = _encode_header(frame.header)
    _check_sizes(frame.type, len(header), len(frame.body))
    return HEADER_FMT.pack(MAGIC, int(frame.type), len(header), len(frame.body)) + header + frame.body


def _unpack_head(raw):
    """Check a frame's 17-byte head against the protocol; returns (type, header length, whole frame length)."""
    magic, type_tag, header_len, body_len = HEADER_FMT.unpack_from(raw)
    if magic != MAGIC:
        raise ParseError("frame", f"bad magic {magic!r}")
    msg_type = _TYPE_BY_TAG.get(type_tag)
    if msg_type is None:
        raise ParseError("frame", f"unknown message type tag {type_tag}")
    return msg_type, header_len, _check_sizes(msg_type, header_len, body_len)


def frame_length(raw) -> int:
    """Check a frame's 17-byte head (magic, type, caps, body); returns the whole frame's declared length."""
    return _unpack_head(raw)[2]


def decode_frame(raw) -> Frame:
    """Decode one whole frame from any bytes-like object; the body is a read-only view of `raw`."""
    if len(raw) < FRAME_OVERHEAD:
        raise ParseError("frame", f"truncated frame: {len(raw)} bytes")
    msg_type, header_len, total = _unpack_head(raw)
    if len(raw) != total:
        raise ParseError("frame", f"frame length {len(raw)} != declared {total}")
    view = memoryview(raw)
    header = _decode_header(view[FRAME_OVERHEAD : FRAME_OVERHEAD + header_len])
    body = view[FRAME_OVERHEAD + header_len :].toreadonly()
    return Frame(type=msg_type, header=header, body=body)


def int_field(frame: Frame, key: str) -> int:
    """A header field's non-negative integer, in exactly the digits `str()` writes; an absent field is 0.

    `int()` alone would also take "+5", " 5", "5_000", "007", "-1" and non-ASCII digits.
    """
    value = frame.header.get(key, "0")
    try:
        # ASCII digits with no leading zero: of digit strings, only those that start with "0" sort
        # below "1"; `>=` also refuses bytes, whose isdigit() and isascii() would pass
        if value.isdigit() and value.isascii() and (value >= "1" or value == "0"):
            return int(value)  # a ValueError past int()'s digit limit
    except (AttributeError, TypeError, ValueError):
        pass
    raise ParseError(key, f"{value!r} is not a non-negative integer as str() writes it")


def error_frame(reason: str) -> Frame:
    return Frame(MsgType.ERROR, {"reason": reason})

