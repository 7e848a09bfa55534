"""File encryption, ciphertext blocking, and key sharding.

The 256-bit file key is drawn at random for each upload, so no pass
over the file is spent on it; only its first 16 bytes drive the cipher
(SM4 takes a 128-bit key), but the full 32 bytes are sharded round-robin
across the data blocks, each shard prepended to its block's data domain.
Upload copies the padded file into the data domains and enciphers them
in place, so the ciphertext never exists whole; download copies each
slice into one buffer and deciphers it in place.

The cipher is SM4-CTR over the PKCS#7-padded file, in both directions,
and always in place, on a list of writable views taken as one stream.
It runs on the system's libgcrypt (1.9 or later) where it is installed
and passes a known-answer check, and on `cryptography` otherwise; both
give the same bytes and the same errors.
"""

import ctypes

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .errors import HainaError, IntegrityError, UsageError
from .locking import MASK_SIZE

KEY_SIZE = 32  # sharded key bytes
CIPHER_KEY_SIZE = 16
CIPHER_BLOCK = 16

# SM4-CTR through libgcrypt: its SM4 kernel enciphers many counter blocks at
# once (AES-NI, AVX2 or GFNI), in both directions, since no block waits on
# another.  On a 2 vCPU x86-64 host with libgcrypt 1.10.1 it took 26.6 ms to
# encrypt 16 MiB and 26.5 ms to decrypt, against 175 ms through
# `cryptography`'s OpenSSL (and 231 ms for libgcrypt's serial CBC encryption).
_GCRY_CIPHER_MODE_CTR = 6
# GB/T 32907-2016's example: one block under the key that is also the plaintext.
# As a CTR counter it gives that ciphertext as the keystream of 16 zero bytes.
_SM4_KNOWN_KEY = bytes.fromhex("0123456789abcdeffedcba9876543210")
_SM4_KNOWN_CIPHERTEXT = bytes.fromhex("681edf34d206965e86b3e94f536e4246")
# `cryptography`'s fallback copies `update`'s output in chunks of this size:
# releases with the Python OpenSSL backend (38, for one) refuse an
# `update_into` output shorter than its input plus 15 bytes, even in CTR, and
# bounded chunks keep each copy small.
_FALLBACK_CHUNK = 16 * 1024
# argument and result types of each libgcrypt function used; gcry_error_t is an unsigned int
_GCRY_SIGNATURES = {
    "gcry_check_version": ([ctypes.c_char_p], ctypes.c_char_p),
    "gcry_cipher_map_name": ([ctypes.c_char_p], ctypes.c_int),
    "gcry_cipher_open": ([ctypes.POINTER(ctypes.c_void_p), ctypes.c_int, ctypes.c_int, ctypes.c_uint], ctypes.c_uint),
    "gcry_cipher_setkey": ([ctypes.c_void_p, ctypes.c_char_p, ctypes.c_size_t], ctypes.c_uint),
    "gcry_cipher_setctr": ([ctypes.c_void_p, ctypes.c_char_p, ctypes.c_size_t], ctypes.c_uint),
    "gcry_cipher_encrypt": (
        [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t, ctypes.c_void_p, ctypes.c_size_t],
        ctypes.c_uint,
    ),
    "gcry_cipher_close": ([ctypes.c_void_p], None),
}


def _gcry_check(rc: int, call: str) -> None:
    if rc:
        raise HainaError(f"libgcrypt {call} failed with error code {rc:#x}")


class _Libgcrypt:
    """SM4-CTR through libgcrypt's C API, bound with ctypes."""

    def __init__(self, lib, algo: int):
        self.lib = lib
        self.algo = algo

    def ctr(self, key: bytes, iv: bytes, views) -> None:
        """Encipher each writable view of `views` in place, in order, as one SM4-CTR stream from counter `iv`.

        A view may end inside a cipher block: libgcrypt carries the rest of
        its keystream block into the next view.
        """
        lib = self.lib
        handle = ctypes.c_void_p()
        _gcry_check(lib.gcry_cipher_open(ctypes.byref(handle), self.algo, _GCRY_CIPHER_MODE_CTR, 0), "cipher_open")
        try:
            _gcry_check(lib.gcry_cipher_setkey(handle, key, len(key)), "cipher_setkey")
            _gcry_check(lib.gcry_cipher_setctr(handle, iv, len(iv)), "cipher_setctr")
            for view in views:
                if not view:  # from_buffer refuses an empty buffer
                    continue
                # a c_char, not an array type, which ctypes would cache for every new length;
                # in = NULL, inlen = 0 is libgcrypt's in-place form
                address = ctypes.addressof(ctypes.c_char.from_buffer(view))
                _gcry_check(lib.gcry_cipher_encrypt(handle, address, len(view), None, 0), "cipher_encrypt")
        finally:
            lib.gcry_cipher_close(handle)


def _vet_libgcrypt(lib):
    """`lib` as the SM4-CTR kernel if it is libgcrypt 1.9 or later, knows SM4 and enciphers the known answer right; else None."""
    for name, (argtypes, restype) in _GCRY_SIGNATURES.items():
        function = getattr(lib, name)
        function.argtypes, function.restype = argtypes, restype
    if not lib.gcry_check_version(b"1.9.0"):  # also initialises the library
        return None
    algo = lib.gcry_cipher_map_name(b"SM4")
    if not algo:
        return None
    kernel = _Libgcrypt(lib, algo)
    block = bytearray(CIPHER_BLOCK)
    try:
        kernel.ctr(_SM4_KNOWN_KEY, _SM4_KNOWN_KEY, [memoryview(block)])
    except HainaError:
        return None
    return kernel if block == _SM4_KNOWN_CIPHERTEXT else None


def _load_libgcrypt():
    """The system's libgcrypt as the SM4-CTR kernel, or None where it is missing or fails `_vet_libgcrypt`."""
    try:
        # by soname: ctypes.util.find_library would run subprocesses
        lib = ctypes.CDLL("libgcrypt.so.20")
    except OSError:
        return None
    return _vet_libgcrypt(lib)


# None selects `cryptography`'s SM4-CTR
_libgcrypt = _load_libgcrypt()


def generate_key(rng) -> bytes:
    """Draw the 32-byte file key from `rng`.

    `rng` is a `random.Random` for reproducible runs, or a
    `random.SystemRandom` for the OS entropy source.  The key does not
    depend on the file, so a guess of the file cannot be checked against
    the key or its shards.
    """
    return rng.randbytes(KEY_SIZE)


def generate_mask(rng) -> bytes:
    """Draw a uniformly random nonzero 32-byte pointer mask from `rng`.

    `rng` is a `random.Random` for reproducible runs, or a
    `random.SystemRandom` for the OS entropy source.
    """
    while True:
        mask = rng.randbytes(MASK_SIZE)
        if any(mask):
            return mask


def _sm4_ctr(key: bytes, iv: bytes, views) -> None:
    """Encipher each writable view of `views` in place, in order, as one SM4-CTR stream under the key's first 16 bytes.

    The counter starts at `iv`.  SM4-CTR is the only cipher haina uses;
    libgcrypt runs it where it passed its checks, else `cryptography`.
    """
    if _libgcrypt is not None:
        _libgcrypt.ctr(bytes(key[:CIPHER_KEY_SIZE]), bytes(iv), views)  # ctypes passes bytes only
        return
    enc = Cipher(algorithms.SM4(key[:CIPHER_KEY_SIZE]), modes.CTR(iv)).encryptor()
    for view in views:
        for at in range(0, len(view), _FALLBACK_CHUNK):
            view[at : at + _FALLBACK_CHUNK] = enc.update(view[at : at + _FALLBACK_CHUNK])
    enc.finalize()


def _check_key_and_iv(key: bytes, iv: bytes) -> None:
    """Refuse a key or IV of the wrong length before any buffer is touched."""
    if len(key) != KEY_SIZE:
        raise UsageError(f"file key must be {KEY_SIZE} bytes")
    if len(iv) != CIPHER_BLOCK:
        raise UsageError(f"iv must be {CIPHER_BLOCK} bytes, got {len(iv)}")


def ciphertext_size(length: int) -> int:
    """Length of the ciphertext of a `length`-byte file: PKCS#7 pads it to the next whole block."""
    return length - length % CIPHER_BLOCK + CIPHER_BLOCK


def encrypt_file(file, key: bytes, iv: bytes, domains) -> None:
    """SM4-CTR encrypt `file` with PKCS#7 padding into the data domains, after each key shard.

    `domains` are the buffers `embed_key_shards` lays out from the slice
    sizes of `split_ciphertext(ciphertext_size(len(file)), n)`; the
    ciphertext overwrites their slices in order.  The file's bytes and the
    padding are copied into the slices, which are then enciphered in
    place as one stream, so the whole ciphertext never exists in one piece.
    """
    if not file:
        raise UsageError("cannot encrypt an empty file")
    _check_key_and_iv(key, iv)
    if not domains:
        raise UsageError("need at least one data domain")
    slices = [memoryview(d)[size:] for d, size in zip(domains, shard_sizes(KEY_SIZE, len(domains)))]
    if sum(len(s) for s in slices) != ciphertext_size(len(file)):
        raise UsageError(f"the data domains do not hold the {ciphertext_size(len(file))}-byte ciphertext")
    pad = CIPHER_BLOCK - len(file) % CIPHER_BLOCK
    at = 0
    with memoryview(file) as src:
        for out in slices:
            part = src[at : at + len(out)]
            out[: len(part)] = part
            out[len(part) :] = bytes((pad,)) * (len(out) - len(part))
            at += len(out)
    _sm4_ctr(key, iv, slices)


def decrypt_file(buf: bytearray, key: bytes, iv: bytes) -> None:
    """SM4-CTR decrypt `buf` in place, check its PKCS#7 padding, and cut the padding off.

    `buf` holds exactly the whole ciphertext; libgcrypt, or else one
    `cryptography` encryptor, overwrites it with the plaintext (CTR
    deciphers as it enciphers).  Bad padding means a wrong key or corrupt
    data and raises IntegrityError.
    """
    if not isinstance(buf, bytearray):
        raise UsageError("decrypt_file decrypts a bytearray in place")
    _check_key_and_iv(key, iv)
    total = len(buf)
    if total == 0 or total % CIPHER_BLOCK:
        raise UsageError(f"the buffer must hold whole {CIPHER_BLOCK}-byte cipher blocks")
    with memoryview(buf) as view:
        _sm4_ctr(key, iv, [view])
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
