import ctypes
import gc
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from cryptography.hazmat.primitives import padding
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from haina import crypto
from haina.crypto import (
    KEY_SIZE,
    ciphertext_size,
    decrypt_file,
    embed_key_shards,
    encrypt_file,
    extract_key_shards,
    generate_key,
    generate_mask,
    shard_sizes,
    split_ciphertext,
)
from haina.errors import HainaError, IntegrityError, UsageError

SRC = Path(__file__).resolve().parents[1] / "src"


def _key(seed):
    """A fixed file key: the one an upload seeded with `seed` would draw."""
    return generate_key(random.Random(seed))


def _domains(file, key, iv, n):
    """The n data domains of `file`, encrypted straight into them as upload does."""
    domains = embed_key_shards(split_ciphertext(ciphertext_size(len(file)), n), key)
    encrypt_file(file, key, iv, domains)
    return domains


def _encrypt(file, key, iv):
    """The whole ciphertext of `file`: its one data domain without the key."""
    return _domains(file, key, iv, 1)[0][KEY_SIZE:]


def _decrypt(ciphertext, key, iv):
    """`decrypt_file` on a copy of `ciphertext`; returns that buffer."""
    buf = bytearray(ciphertext)
    decrypt_file(buf, key, iv)
    return buf


# the SM4-CTR kernel this host selected (libgcrypt where it passed its checks), and the fallback
KERNELS = {"selected": crypto._libgcrypt, "fallback": None}


@pytest.fixture(params=sorted(KERNELS))
def kernel(request, monkeypatch):
    monkeypatch.setattr(crypto, "_libgcrypt", KERNELS[request.param])


def _domains_by_each_kernel(file, key, iv, n):
    """{kernel name: the data domains `_domains` builds through that kernel}."""
    built, selected = {}, crypto._libgcrypt
    try:
        for name, kernel in KERNELS.items():
            crypto._libgcrypt = kernel
            built[name] = _domains(file, key, iv, n)
    finally:
        crypto._libgcrypt = selected
    return built


class TestGenerateKey:
    def test_frozen_regression_vector(self):
        # a seeded upload's key is the first 32 bytes of its rng stream; the seeded pins rest on this draw
        key = generate_key(random.Random(1700000000))
        assert key.hex() == "0b16105271fc9c57cb9f0f310c2d4b6b7d97681ed9be3cf67f7b79d16876c0b1"

    def test_independent_draws_differ(self):
        rng = random.SystemRandom()
        assert generate_key(rng) != generate_key(rng)

    def test_key_is_32_bytes(self):
        assert len(generate_key(random.SystemRandom())) == 32


class TestGenerateMask:
    def test_never_zero_even_with_adversarial_entropy(self):
        class ZeroThenReal(random.Random):
            def __init__(self):
                super().__init__(0)
                self.calls = 0

            def randbytes(self, n):
                self.calls += 1
                return b"\x00" * n if self.calls == 1 else super().randbytes(n)

        rng = ZeroThenReal()
        mask = generate_mask(rng)
        assert any(mask)
        assert rng.calls == 2

    def test_seeded_reproducible(self):
        assert generate_mask(random.Random(42)) == generate_mask(random.Random(42))

    def test_independent_draws_differ(self):
        assert generate_mask(random.SystemRandom()) != generate_mask(random.SystemRandom())


class TestCipher:
    def test_sm4_known_answer_single_block(self):
        # standard SM4 vector: one raw ECB block, checked against the
        # library primitive directly so our CTR wrapper shares the core
        key = bytes.fromhex("0123456789abcdeffedcba9876543210")
        enc = Cipher(algorithms.SM4(key), modes.ECB()).encryptor()
        assert enc.update(key).hex() == "681edf34d206965e86b3e94f536e4246"

    @pytest.mark.parametrize("size", [1, 15, 16, 17, 1000, 4 * 1024 * 1024])
    def test_roundtrip_identity(self, size):
        rng = random.Random(size)
        file = rng.randbytes(size)
        key = _key(123)
        iv = rng.randbytes(16)
        assert _decrypt(_encrypt(file, key, iv), key, iv) == file

    def test_padding_arithmetic(self):
        iv = b"\x01" * 16
        key = _key(0)
        assert len(_encrypt(b"a", key, iv)) == 16
        assert len(_encrypt(b"a" * 16, key, iv)) == 32

    def test_wrong_key_raises_integrity_error(self):
        iv = b"\x02" * 16
        ct = _encrypt(b"secret payload", _key(1), iv)
        with pytest.raises(IntegrityError):
            _decrypt(ct, _key(2), iv)

    def test_same_file_distinct_ivs_distinct_ciphertexts(self):
        key = _key(1)
        a = _encrypt(b"f" * 100, key, b"\x01" * 16)
        b = _encrypt(b"f" * 100, key, b"\x02" * 16)
        assert a != b

    def test_bad_iv_length_rejected(self):
        key = _key(1)
        with pytest.raises(UsageError):
            _encrypt(b"f", key, b"\x00" * 8)
        with pytest.raises(UsageError):
            _decrypt(bytes(16), key, b"\x00" * 8)


def _raw_sm4_ctr(plain, key, iv):
    """SM4-CTR with no padding, in one `cryptography` pass: builds a ciphertext with any pad bytes."""
    enc = Cipher(algorithms.SM4(key[:16]), modes.CTR(iv)).encryptor()
    return enc.update(plain) + enc.finalize()


def _reference_ciphertext(file, key, iv):
    """The ciphertext by the reference steps: `cryptography`'s PKCS#7 padder, then one SM4-CTR pass."""
    padder = padding.PKCS7(128).padder()
    return _raw_sm4_ctr(padder.update(file) + padder.finalize(), key, iv)


class TestBufferedCipher:
    """encrypt_file and decrypt_file write in place; the bytes stay the reference's.

    A `cryptography` release that stops decrypting in place fails here.
    """

    @pytest.mark.parametrize("size", [1, 15, 16, 17, 1000, 4 * 1024 * 1024])
    def test_ciphertext_matches_reference_padder(self, size):
        rng = random.Random(size + 1)
        file = rng.randbytes(size)
        key = _key(99)
        iv = rng.randbytes(16)
        assert _encrypt(file, key, iv) == _reference_ciphertext(file, key, iv)

    @pytest.mark.parametrize("size", [1, 15, 16, 17, 1000, 4 * 1024 * 1024])
    def test_in_place_decryption_matches_reference_padder(self, size):
        rng = random.Random(size + 2)
        file = rng.randbytes(size)
        key = _key(98)
        iv = rng.randbytes(16)
        buf = bytearray(_reference_ciphertext(file, key, iv))
        assert decrypt_file(buf, key, iv) is None
        assert buf == file

    @pytest.mark.parametrize(
        "tail",
        [b"\x00", b"\x11", b"\x02\x03\x03"],
        ids=["last-byte-0", "last-byte-17", "mismatched-pad-bytes"],
    )
    def test_corrupt_padding_raises_integrity_error(self, tail):
        key = _key(1)
        iv = b"\x03" * 16
        plain = b"p" * (32 - len(tail)) + tail
        with pytest.raises(IntegrityError):
            _decrypt(_raw_sm4_ctr(plain, key, iv), key, iv)

    @pytest.mark.parametrize("wrap", [bytes, memoryview])
    def test_bare_buffer_rejected(self, wrap):
        # only a bytearray can be decrypted in place and then cut to the plaintext
        key = _key(1)
        ct = _encrypt(b"f", key, b"\x05" * 16)
        with pytest.raises(UsageError, match="bytearray"):
            decrypt_file(wrap(bytes(ct)), key, b"\x05" * 16)

    @pytest.mark.parametrize("length", [0, 14, 17])
    def test_buffer_of_part_blocks_rejected(self, length):
        # the ciphertext is whole cipher blocks: PKCS#7 always pads, by 1 to 16 bytes
        key = _key(1)
        ct = _encrypt(b"f" * 20, key, b"\x06" * 16)
        with pytest.raises(UsageError, match="whole"):
            decrypt_file(bytearray(ct[:length]), key, b"\x06" * 16)


def _reference_domains(file, key, iv, n):
    """The data domains by the reference steps: pad, encrypt whole, split, prepend each key shard."""
    ciphertext = _reference_ciphertext(file, key, iv)
    base, extra = divmod(len(ciphertext), n)  # the first `extra` slices get one byte more
    ends = [j * base + min(j, extra) for j in range(n + 1)]
    return [bytes(key[j::n]) + ciphertext[ends[j] : ends[j + 1]] for j in range(n)]


class TestStreamedDomains:
    """encrypt_file writes the ciphertext straight into the data domains, never whole.

    Each kernel builds the domains, and each must equal the reference's.
    """

    @pytest.mark.parametrize("n", [1, 3, 16])
    @pytest.mark.parametrize("size", [1, 15, 16, 17, 4 * 1024 * 1024])
    def test_domains_equal_the_reference(self, size, n):
        rng = random.Random(size * 31 + n)
        file = rng.randbytes(size)
        key, iv = _key(7), rng.randbytes(16)
        expected = _reference_domains(file, key, iv, n)
        assert _domains_by_each_kernel(file, key, iv, n) == {name: expected for name in KERNELS}

    @settings(max_examples=80, deadline=None)
    @given(
        st.binary(min_size=1, max_size=300),
        st.integers(min_value=1, max_value=320),
        st.randoms(use_true_random=False),
    )
    def test_any_block_count_equals_the_reference(self, file, n, rng):
        # n up to the ciphertext length: slices of a few bytes straddle cipher blocks
        n = min(n, ciphertext_size(len(file)))
        key, iv = rng.randbytes(32), rng.randbytes(16)
        domains = _reference_domains(file, key, iv, n)
        assert _domains_by_each_kernel(file, key, iv, n) == {name: domains for name in KERNELS}
        shards = shard_sizes(KEY_SIZE, n)
        assert extract_key_shards([d[:k] for d, k in zip(domains, shards)]) == key
        assert _decrypt(b"".join(d[k:] for d, k in zip(domains, shards)), key, iv) == file

    def test_domains_of_the_wrong_size_rejected(self):
        key = _key(1)
        domains = embed_key_shards(split_ciphertext(32, 2), key)  # 32 bytes: a 1-byte file needs 16
        with pytest.raises(UsageError, match="ciphertext"):
            encrypt_file(b"f", key, bytes(16), domains)

    def test_building_the_domains_holds_one_file(self):
        size = 4 * 1024 * 1024
        file = random.Random(3).randbytes(size)
        key = _key(1)
        tracemalloc.start()
        try:
            _domains(file, key, bytes(16), 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * size, f"building the domains peaked at {peak / size:.2f}x the file"


class TestSplit:
    def test_even_division(self):
        assert split_ciphertext(100, 20) == [5] * 20

    def test_remainder_rule(self):
        assert split_ciphertext(7, 3) == [3, 2, 2]

    def test_too_many_blocks_rejected(self):
        with pytest.raises(UsageError, match="smaller"):
            split_ciphertext(3, 4)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=64))
    def test_concat_inverts_split(self, length, n):
        n = min(n, length)
        sizes = split_ciphertext(length, n)
        assert len(sizes) == n and sum(sizes) == length  # the slices in order make up the ciphertext
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)  # the longer slices come first


def _embed(slices, key):
    """The data domains of `slices`: `embed_key_shards` lays out the room, the slices fill it."""
    domains = embed_key_shards([len(s) for s in slices], key)
    for domain, piece in zip(domains, slices):
        domain[len(domain) - len(piece) :] = piece
    return domains


class TestKeyShards:
    def test_layout_n20(self):
        # round-robin over 32 key bytes and 20 blocks: the first 12
        # blocks carry 2 bytes, the rest 1
        assert shard_sizes(32, 20) == [2] * 12 + [1] * 8

    def test_n1_whole_key(self):
        key = bytes(range(32))
        domains = _embed([b"ct"], key)
        assert domains[0] == key + b"ct"
        assert extract_key_shards([domains[0][:32]]) == key

    def test_n32_one_byte_each(self):
        key = bytes(range(32))
        domains = _embed([b"x"] * 32, key)
        for j, domain in enumerate(domains):
            assert domain[0] == key[j]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=64), st.randoms(use_true_random=False))
    def test_extract_inverts_embed(self, n, rng):
        key = rng.randbytes(32)
        slices = [rng.randbytes(rng.randint(1, 20)) for _ in range(n)]
        domains = _embed(slices, key)
        assert extract_key_shards([d[: len(d) - len(s)] for d, s in zip(domains, slices)]) == key

    @pytest.mark.parametrize("n", [1, 5, 32, 33, 64])
    def test_extract_inverts_embed_at_the_layout_edges(self, n):
        # n = 32 gives every block one key byte; past it, blocks 32 and on carry none
        key = random.Random(n).randbytes(32)
        domains = embed_key_shards([1] * n, key)
        shards = [bytes(d[:-1]) for d in domains]
        assert [len(s) for s in shards] == shard_sizes(32, n)
        assert extract_key_shards(shards) == key

    def test_shard_partition_covers_every_key_index(self):
        for n in range(1, 65):
            assert sum(shard_sizes(32, n)) == 32

    def test_truncated_domain_raises(self):
        domains = _embed([b"abc", b"defg"], bytes(32))
        with pytest.raises(IntegrityError):
            extract_key_shards([domains[0][:10], domains[1][:16]])  # shorter than its 16-byte shard


class _StubLibgcrypt:
    """A stand-in for libgcrypt: each function returns what the test set, and encrypt writes `output`."""

    def __init__(self, version=b"1.10.1", algo=318, encrypt_rc=0, output=None):
        self.closed = 0

        def encrypt(handle, out, outlen, inp, inlen):
            ctypes.memmove(out, output or bytes(outlen), outlen)
            return encrypt_rc

        def close(handle):
            self.closed += 1

        self.gcry_check_version = lambda req: version
        self.gcry_cipher_map_name = lambda name: algo
        self.gcry_cipher_open = lambda handle, algo, mode, flags: 0
        self.gcry_cipher_setkey = lambda handle, key, length: 0
        self.gcry_cipher_setctr = lambda handle, ctr, length: 0
        self.gcry_cipher_encrypt = encrypt
        self.gcry_cipher_close = close


@pytest.mark.usefixtures("kernel")
class TestKernels:
    """Both SM4-CTR kernels give the same bytes and the same errors, in both directions."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(min_value=1, max_value=5000), st.randoms(use_true_random=False))
    def test_decrypt_recovers_what_encrypt_made(self, size, rng):
        file, key, iv = rng.randbytes(size), rng.randbytes(KEY_SIZE), rng.randbytes(16)
        assert _decrypt(_encrypt(file, key, iv), key, iv) == file

    @pytest.mark.parametrize("size", [1 << 20, (16 << 20) + 1], ids=["1MiB", "16MiB+1"])
    def test_large_files_round_trip(self, size):
        rng = random.Random(size)
        file, key, iv = rng.randbytes(size), rng.randbytes(KEY_SIZE), rng.randbytes(16)
        assert _decrypt(_encrypt(file, key, iv), key, iv) == file

    def test_plaintext_matches_the_reference(self):
        file, key, iv = b"k" * 100, _key(5), b"\x07" * 16
        padded = file + bytes((12,)) * 12
        assert _decrypt(_raw_sm4_ctr(padded, key, iv), key, iv) == file

    def test_any_bytes_like_key_and_iv(self):
        file, key, iv = b"bytes-like", _key(3), b"\x08" * 16
        buf = bytearray(_encrypt(file, key, iv))
        decrypt_file(buf, bytearray(key), memoryview(iv))
        assert buf == file

    def test_corrupt_padding_raises_integrity_error(self):
        key, iv = _key(1), b"\x03" * 16
        with pytest.raises(IntegrityError):
            _decrypt(_raw_sm4_ctr(b"p" * 30 + b"\x02\x03", key, iv), key, iv)

    def test_wrong_key_raises_integrity_error(self):
        iv = b"\x02" * 16
        ct = _encrypt(b"secret payload", _key(1), iv)
        with pytest.raises(IntegrityError):
            _decrypt(ct, _key(2), iv)

    @pytest.mark.parametrize(
        "wrap",
        [bytearray, lambda b: memoryview(bytearray(b"..." + b))[3:], lambda b: memoryview(b"..." + b)[3:]],
        ids=["bytearray", "memoryview-of-bytearray", "read-only-memoryview"],
    )
    def test_the_file_is_read_where_it_lies(self, wrap):
        # a view at an offset: copying from the wrong place, or through a second copy of the file, fails here
        size = (1 << 20) + 5
        rng = random.Random(size)
        plain, key, iv = rng.randbytes(size), rng.randbytes(KEY_SIZE), rng.randbytes(16)
        file = wrap(plain)
        domains = embed_key_shards(split_ciphertext(ciphertext_size(size), 16), key)
        tracemalloc.start()
        try:
            encrypt_file(file, key, iv, domains)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert domains == _reference_domains(plain, key, iv, 16)
        assert file == plain
        assert peak < 64 * 1024, f"encrypting a {size}-byte file allocated {peak} bytes"

    @pytest.mark.parametrize("sizes", [[0, 16], [8, 0, 8], [16, 0]], ids=["first", "middle", "last"])
    def test_an_empty_slice_is_skipped(self, sizes):
        # embed_key_shards takes any sizes: an empty slice holds no ciphertext, and the stream runs on past it
        file, key, iv = b"plain", _key(8), bytes(range(16))
        domains = embed_key_shards(sizes, key)
        encrypt_file(file, key, iv, domains)
        ciphertext = _reference_ciphertext(file, key, iv)
        ends = [sum(sizes[:j]) for j in range(len(sizes) + 1)]
        n = len(sizes)
        assert domains == [bytes(key[j::n]) + ciphertext[ends[j] : ends[j + 1]] for j in range(n)]

    def test_the_counter_carries_across_all_128_bits(self):
        # counters 2**128 - 2, 2**128 - 1, 0 and 1: each keystream block is one SM4 block of its counter
        key, iv = _key(4), b"\xff" * 15 + b"\xfe"
        file = bytes(range(63))  # 4 cipher blocks with its 1 byte of padding
        ecb = Cipher(algorithms.SM4(key[:16]), modes.ECB()).encryptor()
        counters = [(1 << 128) - 2, (1 << 128) - 1, 0, 1]
        keystream = b"".join(ecb.update(c.to_bytes(16, "big")) for c in counters)
        expected = bytes(p ^ k for p, k in zip(file + b"\x01", keystream))
        assert _encrypt(file, key, iv) == expected
        assert _decrypt(expected, key, iv) == file

    @pytest.mark.parametrize(
        "key,iv,message",
        [(bytes(KEY_SIZE), bytes(8), "iv must be 16 bytes"), (bytes(16), bytes(16), "file key must be 32 bytes")],
        ids=["short-iv", "short-key"],
    )
    def test_a_wrong_length_iv_or_key_is_a_usage_error(self, key, iv, message):
        domains = embed_key_shards(split_ciphertext(ciphertext_size(5), 2), bytes(KEY_SIZE))
        with pytest.raises(UsageError, match=message):
            encrypt_file(b"plain", key, iv, domains)
        with pytest.raises(UsageError, match=message):
            decrypt_file(bytearray(16), key, iv)

    def test_encrypting_leaves_nothing_allocated(self):
        # no reference cycle and no cached ctypes type per slice length: with gc off, every byte comes back
        file, key = random.Random(64).randbytes(64 * 1024), _key(6)
        domains = embed_key_shards(split_ciphertext(ciphertext_size(len(file)), 64), key)
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            encrypt_file(file, key, bytes(16), domains)
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert left < 1024, f"encrypt_file left {left} bytes allocated"


class _SlackDemandingCipher:
    """`Cipher` as `cryptography` releases with the Python OpenSSL backend behave (38, for one):
    `update_into` refuses an output shorter than its input plus 15 bytes, even in CTR."""

    def __init__(self, algorithm, mode):
        self.cipher = Cipher(algorithm, mode)

    def encryptor(self):
        inner = self.cipher.encryptor()

        class Context:
            update, finalize = inner.update, inner.finalize

            def update_into(self, data, buf):
                if len(buf) < len(data) + 15:
                    raise ValueError(f"buffer must be at least {len(data) + 15} bytes for this payload")
                return inner.update_into(data, buf)

        return Context()


def test_the_fallback_needs_no_slack_in_update_into(monkeypatch):
    monkeypatch.setattr(crypto, "_libgcrypt", None)
    monkeypatch.setattr(crypto, "Cipher", _SlackDemandingCipher)
    file, key, iv = random.Random(7).randbytes(100_003), _key(7), bytes(range(16))
    domains = _domains(file, key, iv, 16)
    assert domains == _reference_domains(file, key, iv, 16)
    buf = bytearray().join(d[size:] for d, size in zip(domains, shard_sizes(KEY_SIZE, 16)))
    decrypt_file(buf, key, iv)
    assert buf == file


class TestKernelSelection:
    def test_known_answer_decrypts_right_through_a_stub(self):
        # the stub that writes the right keystream is accepted: the checks below fail for their reason only
        assert crypto._vet_libgcrypt(_StubLibgcrypt(output=crypto._SM4_KNOWN_CIPHERTEXT)) is not None

    @pytest.mark.parametrize(
        "stub",
        [
            _StubLibgcrypt(),
            _StubLibgcrypt(output=bytes(range(16))),
            _StubLibgcrypt(version=None, output=crypto._SM4_KNOWN_CIPHERTEXT),
            _StubLibgcrypt(algo=0, output=crypto._SM4_KNOWN_CIPHERTEXT),
            _StubLibgcrypt(encrypt_rc=1, output=crypto._SM4_KNOWN_CIPHERTEXT),
        ],
        ids=["zero-bytes", "wrong-bytes", "older-than-1.9", "no-sm4", "decrypt-error"],
    )
    def test_a_library_that_fails_a_check_is_refused(self, stub):
        assert crypto._vet_libgcrypt(stub) is None

    def test_the_fallback_is_chosen_when_the_library_decrypts_wrong(self, monkeypatch):
        monkeypatch.setattr(crypto.ctypes, "CDLL", lambda name: _StubLibgcrypt(output=bytes(range(16))))
        assert crypto._load_libgcrypt() is None

    def test_the_fallback_is_chosen_without_the_library(self, monkeypatch):
        def missing(name):
            raise OSError(f"{name}: cannot open shared object file")

        monkeypatch.setattr(crypto.ctypes, "CDLL", missing)
        assert crypto._load_libgcrypt() is None

    def test_a_failed_decrypt_closes_its_handle_and_frees_the_buffer(self, monkeypatch):
        stub = _StubLibgcrypt(output=crypto._SM4_KNOWN_CIPHERTEXT)
        kernel = crypto._vet_libgcrypt(stub)
        stub.gcry_cipher_encrypt = lambda *args: 0x4C  # any nonzero gcry_error_t
        monkeypatch.setattr(crypto, "_libgcrypt", kernel)
        buf = bytearray(32)
        closed = stub.closed
        with pytest.raises(HainaError, match="cipher_encrypt"):
            decrypt_file(buf, bytes(KEY_SIZE), bytes(16))
        assert stub.closed == closed + 1
        del buf[16:]  # no export is left: the buffer can still be cut

    def test_importing_and_decrypting_prints_nothing(self):
        code = (
            f"import sys; sys.path[:0] = [{str(SRC)!r}]; from haina import crypto; "
            "key, iv = bytes(32), bytes(16); "
            "domains = crypto.embed_key_shards([crypto.ciphertext_size(5)], key); "
            "crypto.encrypt_file(b'plain', key, iv, domains); "
            "buf = bytearray(domains[0][32:]); crypto.decrypt_file(buf, key, iv); "
            "assert buf == b'plain'"
        )
        result = subprocess.run([sys.executable, "-X", "dev", "-c", code], capture_output=True, text=True, timeout=60)
        assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
