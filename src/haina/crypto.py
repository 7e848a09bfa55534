"""File encryption, ciphertext blocking, and key sharding.

The 256-bit file key is derived from the file content and a timestamp;
only its first 16 bytes drive the cipher (SM4 takes a 128-bit key), but
the full 32 bytes are sharded round-robin across the data blocks, each
shard prepended to its block's data domain.  Upload writes the
ciphertext straight into the data domains, so it never exists whole;
download copies each slice into one buffer and decrypts it in place.

Decryption runs on the system's libgcrypt (1.9 or later) where it is
installed and passes a known-answer check, and on `cryptography`
otherwise; both give the same bytes and the same errors.
"""

import ctypes
import struct

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from . import hashing
from .errors import HainaError, IntegrityError, UsageError
from .locking import MASK_SIZE

KEY_SIZE = 32  # sharded key bytes
CIPHER_KEY_SIZE = 16
CIPHER_BLOCK = 16

# SM4-CBC decryption through libgcrypt: its SM4 kernel decrypts many blocks
# at once (AES-NI, AVX2 or GFNI), because each CBC plaintext block needs only
# two ciphertext blocks.  On a 2 vCPU x86-64 host with libgcrypt 1.10.1 it
# decrypted 16 MiB in 34 ms, against 177 ms through `cryptography`'s OpenSSL.
# Encryption stays on `cryptography`: CBC encryption is serial, each block
# needing the ciphertext of the one before, and libgcrypt took 272 ms there
# against OpenSSL's 213 ms.
_GCRY_CIPHER_MODE_CBC = 3
# GB/T 32907-2016's example: one block under the key that is also the plaintext
_SM4_KNOWN_KEY = bytes.fromhex("0123456789abcdeffedcba9876543210")
_SM4_KNOWN_CIPHERTEXT = bytes.fromhex("681edf34d206965e86b3e94f536e4246")
# argument and result types of each libgcrypt function used; gcry_error_t is an unsigned int
_GCRY_SIGNATURES = {
    "gcry_check_version": ([ctypes.c_char_p], ctypes.c_char_p),
    "gcry_cipher_map_name": ([ctypes.c_char_p], ctypes.c_int),
    "gcry_cipher_open": ([ctypes.POINTER(ctypes.c_void_p), ctypes.c_int, ctypes.c_int, ctypes.c_uint], ctypes.c_uint),
    "gcry_cipher_setkey": ([ctypes.c_void_p, ctypes.c_char_p, ctypes.c_size_t], ctypes.c_uint),
    "gcry_cipher_setiv": ([ctypes.c_void_p, ctypes.c_char_p, ctypes.c_size_t], ctypes.c_uint),
    "gcry_cipher_decrypt": (
        [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t, ctypes.c_void_p, ctypes.c_size_t],
        ctypes.c_uint,
    ),
    "gcry_cipher_close": ([ctypes.c_void_p], None),
}


def _gcry_check(rc: int, call: str) -> None:
    if rc:
        raise HainaError(f"libgcrypt {call} failed with error code {rc:#x}")


class _Libgcrypt:
    """SM4-CBC decryption in place through libgcrypt's C API, bound with ctypes."""

    def __init__(self, lib, algo: int):
        self.lib = lib
        self.algo = algo

    def decrypt(self, buf: bytearray, total: int, key: bytes, iv: bytes) -> None:
        """Decrypt the first `total` bytes of `buf`, whole cipher blocks, in place."""
        lib = self.lib
        handle = ctypes.c_void_p()
        _gcry_check(lib.gcry_cipher_open(ctypes.byref(handle), self.algo, _GCRY_CIPHER_MODE_CBC, 0), "cipher_open")
        data = None
        try:
            _gcry_check(lib.gcry_cipher_setkey(handle, key, len(key)), "cipher_setkey")
            _gcry_check(lib.gcry_cipher_setiv(handle, iv, len(iv)), "cipher_setiv")
            data = (ctypes.c_char * total).from_buffer(buf)
            _gcry_check(lib.gcry_cipher_decrypt(handle, data, total, None, 0), "cipher_decrypt")
        finally:
            lib.gcry_cipher_close(handle)
            del data  # releases the export, so that the caller can cut the padding off


def _vet_libgcrypt(lib):
    """`lib` as a decryption kernel if it is libgcrypt 1.9 or later, knows SM4 and decrypts the known answer right; else None."""
    for name, (argtypes, restype) in _GCRY_SIGNATURES.items():
        function = getattr(lib, name)
        function.argtypes, function.restype = argtypes, restype
    if not lib.gcry_check_version(b"1.9.0"):  # also initialises the library
        return None
    algo = lib.gcry_cipher_map_name(b"SM4")
    if not algo:
        return None
    kernel = _Libgcrypt(lib, algo)
    block = bytearray(_SM4_KNOWN_CIPHERTEXT)
    try:
        kernel.decrypt(block, CIPHER_BLOCK, _SM4_KNOWN_KEY, bytes(CIPHER_BLOCK))
    except HainaError:
        return None
    return kernel if block == _SM4_KNOWN_KEY else None


def _load_libgcrypt():
    """The system's libgcrypt as a decryption kernel, or None where it is missing or fails `_vet_libgcrypt`."""
    try:
        # by soname: ctypes.util.find_library would run subprocesses
        lib = ctypes.CDLL("libgcrypt.so.20")
    except OSError:
        return None
    return _vet_libgcrypt(lib)


# None selects `cryptography`'s decryptor
_libgcrypt = _load_libgcrypt()


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


def _check_iv(iv: bytes) -> None:
    if len(iv) != CIPHER_BLOCK:
        raise UsageError(f"iv must be {CIPHER_BLOCK} bytes, got {len(iv)}")


def _cipher(key: bytes, iv: bytes) -> Cipher:
    """SM4-CBC under the key's first 16 bytes; the only cipher haina uses."""
    _check_iv(iv)
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


def decrypt_file(buf: bytearray, key: bytes, iv: bytes) -> None:
    """SM4-CBC decrypt `buf` in place, check its PKCS#7 padding, and cut the padding off.

    `buf` holds the whole ciphertext followed by `update_into`'s
    CIPHER_BLOCK - 1 bytes of slack; libgcrypt, or else one `cryptography`
    decryptor, overwrites the ciphertext with the plaintext (both allow
    input and output to be the same bytes).  Bad padding means a wrong key
    or corrupt data and raises IntegrityError.
    """
    if not isinstance(buf, bytearray):
        raise UsageError("decrypt_file decrypts a bytearray in place")
    if len(key) != KEY_SIZE:
        raise UsageError(f"file key must be {KEY_SIZE} bytes")
    _check_iv(iv)
    total = len(buf) - (CIPHER_BLOCK - 1)
    if total <= 0 or total % CIPHER_BLOCK:
        raise UsageError(
            f"the buffer must hold whole {CIPHER_BLOCK}-byte cipher blocks, then {CIPHER_BLOCK - 1} bytes of slack"
        )
    if _libgcrypt is not None:
        _libgcrypt.decrypt(buf, total, bytes(key[:CIPHER_KEY_SIZE]), bytes(iv))  # ctypes passes bytes only
    else:
        dec = _cipher(key, iv).decryptor()
        with memoryview(buf) as view:
            dec.update_into(view[:total], view)
        dec.finalize()
    pad = buf[total - 1]
    if not 1 <= pad <= CIPHER_BLOCK or buf.count(pad, total - pad, total) != pad:
        raise IntegrityError("bad padding on decrypt (wrong key or corrupt data)")
    del buf[total - pad :]


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


def extract_key_shards(shards) -> bytes:
    """Inverse of the round-robin key layout: the key from each block's shard, in chain order."""
    n = len(shards)
    if n < 1:
        raise UsageError("need at least one key shard")
    if [len(s) for s in shards] != shard_sizes(KEY_SIZE, n):
        raise IntegrityError(f"the key shards are not the {KEY_SIZE}-byte key's layout over {n} blocks")
    # key byte i is byte i // n of position i % n's shard
    return bytes(shards[i % n][i // n] for i in range(KEY_SIZE))
