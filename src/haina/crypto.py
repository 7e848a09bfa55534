"""File encryption, ciphertext blocking, and key sharding.

The 256-bit file key is derived from the file content and a timestamp;
only its first 16 bytes drive the cipher (SM4 takes a 128-bit key), but
the full 32 bytes are sharded round-robin across the data blocks, each
shard prepended to its block's data domain.  The ciphertext is written
straight into the data domains and read back from them slice by slice,
so the client never holds it whole.
"""

import struct

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


def ciphertext_size(length: int) -> int:
    """Length of the SM4-CBC ciphertext of a `length`-byte file: PKCS#7 pads it to the next whole block."""
    return length - length % CIPHER_BLOCK + CIPHER_BLOCK


def encrypt_file(file, key: bytes, iv: bytes, domains) -> None:
    """SM4-CBC encrypt `file` with PKCS#7 padding into the data domains, after each key shard.

    `domains` are the buffers `embed_key_shards` lays out from the slice
    sizes of `split_ciphertext(ciphertext_size(len(file)), n)`; the
    ciphertext overwrites their slices in order.  Whole cipher blocks go
    straight into a slice.  The last one or two blocks of a slice, which
    `update_into` has no slack for there or which straddle into the next
    slice, and the last, padded block pass through a 47-byte bounce
    buffer, so the whole ciphertext never exists in one piece.
    """
    if not file:
        raise UsageError("cannot encrypt an empty file")
    if len(key) != KEY_SIZE:
        raise UsageError(f"file key must be {KEY_SIZE} bytes")
    if not domains:
        raise UsageError("need at least one data domain")
    enc = _cipher(key, iv).encryptor()
    slices = [memoryview(d)[size:] for d, size in zip(domains, shard_sizes(KEY_SIZE, len(domains)))]
    if sum(len(s) for s in slices) != ciphertext_size(len(file)):
        raise UsageError(f"the data domains do not hold the {ciphertext_size(len(file))}-byte ciphertext")
    pad = CIPHER_BLOCK - len(file) % CIPHER_BLOCK
    whole = len(file) + pad - CIPHER_BLOCK  # bytes before the last, padded block
    bounce = bytearray(3 * CIPHER_BLOCK - 1)  # two cipher blocks plus update_into's slack
    carry = b""  # enciphered bytes from the bounce that belong to the next slices
    fed = 0  # plaintext bytes enciphered so far
    with memoryview(file) as src:
        for out in slices:
            done = min(len(carry), len(out))
            out[:done] = carry[:done]
            carry = carry[done:]
            # whole blocks straight into the slice, short of update_into's slack and the padded block
            direct = min(len(out) - done - (CIPHER_BLOCK - 1), whole - fed) // CIPHER_BLOCK * CIPHER_BLOCK
            if direct > 0:
                done += enc.update_into(src[fed : fed + direct], out[done:])
                fed += direct
            rest = len(out) - done  # under 31 bytes: at most two blocks go through the bounce
            if rest > 0:
                need = -(-rest // CIPHER_BLOCK) * CIPHER_BLOCK
                tail = src[fed : fed + need] if fed + need <= whole else bytes(src[fed:]) + bytes((pad,)) * pad
                fed += enc.update_into(tail, bounce)
                out[done:] = bounce[:rest]
                carry = bytes(bounce[rest:need])
    enc.finalize()


def decrypt_file(pieces: list, key: bytes, iv: bytes) -> bytearray:
    """SM4-CBC decrypt consecutive ciphertext pieces into one new, growing buffer.

    The pieces may split the ciphertext anywhere.  The list is emptied as
    it is read: each piece leaves it once it is decrypted, so the bytes it
    came from can be freed while the output grows.  Bad PKCS#7 padding
    means a wrong key or corrupt data and raises IntegrityError.
    """
    if not isinstance(pieces, list):
        raise UsageError("decrypt_file takes a list of ciphertext pieces, not one buffer")
    if len(key) != KEY_SIZE:
        raise UsageError(f"file key must be {KEY_SIZE} bytes")
    dec = _cipher(key, iv).decryptor()
    total = sum(len(p) for p in pieces)
    if not total or total % CIPHER_BLOCK:
        raise UsageError(f"ciphertext length must be a positive multiple of {CIPHER_BLOCK}")
    out = bytearray(CIPHER_BLOCK - 1)  # update_into's slack, kept past the end as the buffer grows
    done = 0
    for j in range(len(pieces)):
        piece, pieces[j] = pieces[j], None
        out += piece  # grows the buffer by the piece's length; the plaintext overwrites the copy
        with memoryview(out) as view:
            done += dec.update_into(piece, view[done:])
    pieces.clear()
    dec.finalize()
    pad = out[total - 1]
    if not 1 <= pad <= CIPHER_BLOCK or out.count(pad, total - pad, total) != pad:
        raise IntegrityError("bad padding on decrypt (wrong key or corrupt data)")
    del out[total - pad :]
    return out


def split_ciphertext(length: int, n: int) -> list:
    """Sizes of the n contiguous, non-empty ciphertext slices of a `length`-byte ciphertext.

    They are `shard_sizes(length, n)`: they differ by at most one, and the
    slices in order make up the whole ciphertext.
    """
    if n < 1:
        raise UsageError("block count must be at least 1")
    if n > length:
        raise UsageError(
            f"block count {n} exceeds ciphertext length {length}; choose a smaller block count"
        )
    return shard_sizes(length, n)


def shard_sizes(length: int, n: int) -> list:
    """Sizes of the n near-equal parts of `length` bytes: the first length mod n get one byte more.

    These are the ciphertext slices, and the bytes of key each block gets
    under round-robin sharding (key byte i goes to block position i mod n).
    """
    base, extra = divmod(length, n)
    return [base + (1 if j < extra else 0) for j in range(n)]


def embed_key_shards(sizes, key: bytes) -> list:
    """Lay out each block's data domain: its key shard, then `sizes[j]` zeroed bytes of room.

    One writable `bytearray` per block, for `encrypt_file` to fill with
    the block's ciphertext slice.
    """
    if len(key) != KEY_SIZE:
        raise UsageError(f"file key must be {KEY_SIZE} bytes")
    n = len(sizes)
    if n < 1:
        raise UsageError("need at least one slice")
    domains = []
    for j, size in enumerate(sizes):
        shard = key[j::n]
        domain = bytearray(len(shard) + size)
        domain[: len(shard)] = shard
        domains.append(domain)
    return domains


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
