"""SHA-256 digest helpers.

Every digest in haina is SHA-256: a block's content address, the chain
pointers, the chain root and the roster digest.  The file key is drawn
at random, not hashed from the file.  The meta file records
the algorithm as "sha256" and no other value is accepted.
"""

import hashlib

from .errors import ParseError

DIGEST_SIZE = 32
ALGORITHM = "sha256"  # the name the meta file records


def digest(data: bytes) -> bytes:
    """SHA-256 digest of `data`."""
    return hashlib.sha256(data).digest()


def parse_hex_digest(text: str, field: str = "digest") -> bytes:
    try:
        raw = bytes.fromhex(text)
    except (ValueError, TypeError):
        raise ParseError(field, "not valid hex") from None
    if len(raw) != DIGEST_SIZE:
        raise ParseError(field, f"expected {DIGEST_SIZE * 2} hex chars, got {len(text)}")
    return raw
