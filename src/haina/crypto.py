"""File encryption, ciphertext blocking, and key sharding.

The 256-bit file key is derived from the file content and a timestamp;
only its first 16 bytes drive the cipher (SM4 takes a 128-bit key), but
the full 32 bytes are sharded round-robin across the data blocks, each
shard prepended to its block's data domain.
"""

import struct
from itertools import accumulate

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from . import hashing
from .errors import IntegrityError, UsageError
from .locking import MASK_SIZE

KEY_SIZE = 32  # sharded key bytes
CIPHER_KEY_SIZE = 16
CIPHER_BLOCK = 16

def generate_key(file: bytes, timestamp: int) -> bytes:
    """Derive the 32-byte file key: H(timestamp || H(file)).

    The timestamp, any unsigned 64-bit value (`upload` draws it at
    random), is encoded as 8 big-endian bytes, so repeated uploads of the
    same file get distinct keys.
    """
    if not file:
        raise UsageError("cannot derive a key for an empty file")
    if not 0 <= timestamp < 1 << 64:
        raise UsageError("timestamp must fit an unsigned 64-bit value")
    inner = hashing.digest(file)
    return hashing.digest(struct.pack(">Q", timestamp) + inner)


def generate_mask(rng) -> bytes:
    """Draw a uniformly random nonzero 32-byte pointer mask from `rng`.

    `rng` is a `random.Random` for reproducible runs, or a
    `random.SystemRandom` for the OS entropy source.
    """
    while True:
        mask = rng.randbytes(MASK_SIZE)
        if any(mask):
            return mask


def _cipher(key: bytes, iv: bytes) -> Cipher:
    """SM4-CBC under the key's first 16 bytes; the only cipher haina uses."""
    if len(iv) != CIPHER_BLOCK:
        raise UsageError(f"iv must be {CIPHER_BLOCK} bytes, got {len(iv)}")
    return Cipher(algorithms.SM4(key[:CIPHER_KEY_SIZE]), modes.CBC(iv))


def encrypt_file(file, key: bytes, iv: bytes) -> bytearray:
    """SM4-CBC encrypt with PKCS#7 padding into one new buffer.

    The whole 16-byte blocks are encrypted straight from `file`; only the
    last block, with its pad, is built separately.
    """
    if not file:
        raise UsageError("cannot encrypt an empty file")
    if len(key) != KEY_SIZE:
        raise UsageError(f"file key must be {KEY_SIZE} bytes")
    enc = _cipher(key, iv).encryptor()
    pad = CIPHER_BLOCK - len(file) % CIPHER_BLOCK
    whole = len(file) + pad - CIPHER_BLOCK  # bytes before the last, padded block
    out = bytearray(whole + 2 * CIPHER_BLOCK - 1)  # padded length plus update_into's slack
    with memoryview(file) as src, memoryview(out) as view:
        done = enc.update_into(src[:whole], view)
        done += enc.update_into(bytes(src[whole:]) + bytes((pad,)) * pad, view[done:])
    enc.finalize()
    del out[done:]
    return out


def decrypt_file(pieces, key: bytes, iv: bytes) -> bytearray:
    """SM4-CBC decrypt consecutive ciphertext pieces into one new buffer.

    The pieces may split the ciphertext anywhere; a single buffer must be
    wrapped in a list.  Bad PKCS#7 padding means a wrong key or corrupt
    data and raises IntegrityError.
    """
    if isinstance(pieces, (bytes, bytearray, memoryview)):
        raise UsageError("decrypt_file takes a sequence of ciphertext pieces, not one buffer")
    if len(key) != KEY_SIZE:
        raise UsageError(f"file key must be {KEY_SIZE} bytes")
    dec = _cipher(key, iv).decryptor()
    total = sum(len(p) for p in pieces)
    if not total or total % CIPHER_BLOCK:
        raise UsageError(f"ciphertext length must be a positive multiple of {CIPHER_BLOCK}")
    out = bytearray(total + CIPHER_BLOCK - 1)  # update_into's slack
    with memoryview(out) as view:
        done = 0
        for piece in pieces:
            done += dec.update_into(piece, view[done:])
    dec.finalize()
    pad = out[total - 1]
    if not 1 <= pad <= CIPHER_BLOCK or out.count(pad, total - pad, total) != pad:
        raise IntegrityError("bad padding on decrypt (wrong key or corrupt data)")
    del out[total - pad :]
    return out


def split_ciphertext(ef: bytes, n: int) -> list:
    """Divide the ciphertext into n contiguous non-empty memoryview slices.

    The slice sizes are `shard_sizes(len(ef), n)`, so they differ by at
    most one and concatenation restores the input.
    """
    if n < 1:
        raise UsageError("block count must be at least 1")
    if n > len(ef):
        raise UsageError(
            f"block count {n} exceeds ciphertext length {len(ef)}; choose a smaller block count"
        )
    ends = list(accumulate(shard_sizes(len(ef), n), initial=0))
    ef = memoryview(ef)
    return [ef[start:end] for start, end in zip(ends, ends[1:])]


def shard_sizes(length: int, n: int) -> list:
    """Sizes of the n near-equal parts of `length` bytes: the first length mod n get one byte more.

    These are the ciphertext slices, and the bytes of key each block gets
    under round-robin sharding (key byte i goes to block position i mod n).
    """
    base, extra = divmod(length, n)
    return [base + (1 if j < extra else 0) for j in range(n)]


def embed_key_shards(slices, key: bytes) -> list:
    """Prepend each block's key shard to its ciphertext slice."""
    if len(key) != KEY_SIZE:
        raise UsageError(f"file key must be {KEY_SIZE} bytes")
    n = len(slices)
    if n < 1:
        raise UsageError("need at least one slice")
    return [b"".join((key[j::n], slices[j])) for j in range(n)]


def extract_key_shards(domains):
    """Inverse of embed_key_shards: recover (key, memoryview ciphertext slices)."""
    n = len(domains)
    if n < 1:
        raise UsageError("need at least one data domain")
    slices = []
    for j, (domain, size) in enumerate(zip(domains, shard_sizes(KEY_SIZE, n))):
        if len(domain) < size:
            raise IntegrityError(f"data domain {j + 1} shorter than its {size}-byte key shard")
        slices.append(memoryview(domain)[size:])
    # key byte i is byte i // n of position i % n's shard
    return bytes(domains[i % n][i // n] for i in range(KEY_SIZE)), slices
