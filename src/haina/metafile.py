"""The user-held recovery record (`.haina.meta`).

A UTF-8 JSON document carrying everything needed to recover one file:
the first head node's address, the header block's content address, the
pointer mask, plus block count, the cipher's IV and the original file
length.  Its "cipher", "mode" and "hash_alg" fields are always "sm4",
"cbc" and "sha256", the only cipher and digest haina uses.  The document
never leaves the user's hands.
"""

import json
from dataclasses import dataclass

from . import hashing
from .crypto import CIPHER_BLOCK
from .errors import ParseError
from .locking import MASK_SIZE

META_VERSION = 1
META_SUFFIX = ".haina.meta"
# fields with one accepted value, written and checked byte for byte
_FIXED = {"cipher": "sm4", "mode": "cbc", "hash_alg": hashing.ALGORITHM}

_REQUIRED = (
    "version",
    "first_beginner",
    "header_digest",
    "mask",
    "block_count",
    "cipher",
    "mode",
    "iv",
    "hash_alg",
    "file_length",
)


@dataclass(frozen=True)
class MetaFile:
    first_beginner: str
    header_digest: bytes
    mask: bytes
    block_count: int
    iv: bytes
    file_length: int
    version: int = META_VERSION


def build_meta_file(
    first_beginner: str,
    header_digest: bytes,
    mask: bytes,
    block_count: int,
    iv: bytes,
    file_length: int,
) -> MetaFile:
    if block_count < 1:
        raise ParseError("block_count", "must be at least 1")
    if not any(mask):
        raise ParseError("mask", "must be nonzero")
    if len(iv) != CIPHER_BLOCK:
        raise ParseError("iv", f"must be {CIPHER_BLOCK} bytes")
    return MetaFile(
        first_beginner=first_beginner,
        header_digest=hashing.check_digest(header_digest),
        mask=bytes(mask),
        block_count=block_count,
        iv=bytes(iv),
        file_length=file_length,
    )


def serialize_meta_file(meta: MetaFile) -> bytes:
    doc = {
        "version": meta.version,
        "first_beginner": meta.first_beginner,
        "header_digest": meta.header_digest.hex(),
        "mask": meta.mask.hex(),
        "block_count": meta.block_count,
        "iv": meta.iv.hex(),
        "file_length": meta.file_length,
        **_FIXED,
    }
    return json.dumps(doc, indent=2, sort_keys=True).encode("utf-8") + b"\n"


def parse_meta_file(text: bytes) -> MetaFile:
    try:
        doc = json.loads(text.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError("document", f"not valid UTF-8 JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("document", "top level must be an object")

    missing = [k for k in _REQUIRED if k not in doc]
    if missing:
        raise ParseError(missing[0], "required field missing")
    extra = [k for k in doc if k not in _REQUIRED]
    if extra:
        raise ParseError(extra[0], "unknown field")

    if doc["version"] != META_VERSION:
        raise ParseError("version", f"unsupported version {doc['version']!r}")
    for key in ("block_count", "file_length"):
        if not isinstance(doc[key], int) or doc[key] < 1:
            raise ParseError(key, "must be a positive integer")
    if not isinstance(doc["first_beginner"], str) or not doc["first_beginner"]:
        raise ParseError("first_beginner", "must be a non-empty host:port string")

    header_digest = hashing.parse_hex_digest(doc["header_digest"], "header_digest")
    mask = hashing.parse_hex_digest(doc["mask"], "mask")
    if len(mask) != MASK_SIZE:
        raise ParseError("mask", f"must be {MASK_SIZE} bytes")

    try:
        iv = bytes.fromhex(doc["iv"])
    except (ValueError, TypeError):
        raise ParseError("iv", "not valid hex") from None
    for key, value in _FIXED.items():
        if doc[key] != value:
            raise ParseError(key, f"unsupported value {doc[key]!r}, expected {value!r}")

    return build_meta_file(
        first_beginner=doc["first_beginner"],
        header_digest=header_digest,
        mask=mask,
        block_count=doc["block_count"],
        iv=iv,
        file_length=doc["file_length"],
    )
