"""The user-held recovery record (`.haina.meta`).

A UTF-8 JSON document carrying everything needed to recover one file:
the first head node's address, the header block's content address, the
pointer mask, block count, the cipher's IV, the original file length,
and the chain root, which pins every block's address to its position.
Its fixed fields (`_FIXED`) name the one format version, cipher and
digest haina uses.  The document never leaves the user's hands.
"""

import json
from dataclasses import asdict, dataclass, fields

from . import hashing
from .crypto import CIPHER_BLOCK, ciphertext_size
from .errors import ParseError
from .locking import MASK_SIZE

META_SUFFIX = ".haina.meta"
# fields with one accepted value, written and checked byte for byte
_FIXED = {"version": 2, "cipher": "sm4", "mode": "ctr", "hash_alg": hashing.ALGORITHM}
# the bytes fields, written as hex, and the exact length of each
_HEX_SIZES = {"header_digest": hashing.DIGEST_SIZE, "mask": MASK_SIZE, "iv": CIPHER_BLOCK,
              "chain_root": hashing.DIGEST_SIZE}


@dataclass(frozen=True)
class MetaFile:
    """One file's recovery record; construction checks every field."""

    first_beginner: str
    header_digest: bytes
    mask: bytes
    block_count: int
    iv: bytes
    file_length: int
    chain_root: bytes

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # type() rather than isinstance(): JSON true is a bool, and so an int
            if type(value) is not f.type:
                raise ParseError(f.name, f"must be {f.type.__name__}, not {type(value).__name__}")
            if f.type is str and not value:
                raise ParseError(f.name, "must be a non-empty host:port string")
            if f.type is int and value < 1:
                raise ParseError(f.name, "must be a positive integer")
            if f.type is bytes and len(value) != _HEX_SIZES[f.name]:
                raise ParseError(f.name, f"must be {_HEX_SIZES[f.name]} bytes")
        if not any(self.mask):
            raise ParseError("mask", "must be nonzero")
        if self.block_count > ciphertext_size(self.file_length):  # upload's split_ciphertext rule
            raise ParseError("block_count", f"exceeds the {ciphertext_size(self.file_length)}-byte ciphertext")


def serialize_meta_file(meta: MetaFile) -> bytes:
    doc = {name: value.hex() if name in _HEX_SIZES else value for name, value in asdict(meta).items()}
    return json.dumps({**doc, **_FIXED}, indent=2, sort_keys=True).encode("utf-8") + b"\n"


def parse_meta_file(text: bytes) -> MetaFile:
    try:
        doc = json.loads(text.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError("document", f"not valid UTF-8 JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("document", "top level must be an object")

    for key, value in _FIXED.items():  # first: a document of another version is rejected by its version
        if key in doc and (type(doc[key]) is not type(value) or doc[key] != value):
            raise ParseError(key, f"unsupported value {doc[key]!r}, expected {value!r}")
    names = [f.name for f in fields(MetaFile)]
    for key in [*names, *_FIXED, *doc]:
        if (key in doc) != (key in names or key in _FIXED):
            raise ParseError(key, "unknown field" if key in doc else "required field missing")
    for key in _HEX_SIZES:
        try:
            doc[key] = bytes.fromhex(doc[key])
        except (ValueError, TypeError):
            raise ParseError(key, "not valid hex") from None
    return MetaFile(**{name: doc[name] for name in names})
