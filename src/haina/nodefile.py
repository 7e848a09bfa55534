"""The shared roster of storage-node addresses.

Canonical form: UTF-8, one host:port per line, lexicographically
sorted, trailing newline.  The digest of exactly those bytes is what
peers compare when synchronizing.
"""

from dataclasses import dataclass

from . import hashing
from .errors import IntegrityError, ParseError
from .frames import MAX_HEADER

# A STORE_ACK's `candidates` line joins the other members with commas, so it is shorter than the
# canonical bytes; the rest of that header is its `stored` digest and a `campaign_ms` float repr
# of at most 24 characters.
MAX_ROSTER_BYTES = MAX_HEADER - len("stored: \ncandidates: \ncampaign_ms: \n") - 2 * hashing.DIGEST_SIZE - 24


@dataclass(frozen=True)
class NodeFile:
    addresses: tuple

    def __len__(self):
        return len(self.addresses)

    def canonical_bytes(self) -> bytes:
        return "".join(a + "\n" for a in self.addresses).encode("utf-8")

    @property
    def digest(self) -> bytes:
        return hashing.digest(self.canonical_bytes())


def parse_address(address: str, field: str = "address"):
    """Split "host:port" into (host, port); raises ParseError(field) if the port is not an integer."""
    host, _, port = address.rpartition(":")
    try:
        return host, int(port)
    except ValueError:
        raise ParseError(field, f"{address!r} is not host:port") from None


def make_node_file(addresses) -> NodeFile:
    addrs = sorted(set(addresses))
    for a in addrs:
        host, port = parse_address(a, "node_file") if isinstance(a, str) else ("", 0)
        # a host getaddrinfo can look up: not empty, no whitespace (split() gives [host] only then);
        # the port as str() writes it: int() also reads "+80", " 80", "8_0", "0080" and "80\r"
        if host.split() != [host] or a != f"{host}:{port}" or not 0 < port < 65536:
            raise ParseError(
                "node_file", f"address {a!r} is not host:port with a host free of whitespace and a port in 1-65535"
            )
        if "," in a:
            raise ParseError("node_file", f"address {a!r} contains ',', the candidate list separator")
    nf = NodeFile(addresses=tuple(addrs))
    if len(nf.canonical_bytes()) > MAX_ROSTER_BYTES:
        raise ParseError("node_file", f"a roster over {MAX_ROSTER_BYTES} bytes makes a STORE_ACK pass the header cap")
    return nf


def parse_node_file(raw) -> NodeFile:
    try:
        text = str(raw, "utf-8")
    except UnicodeDecodeError:
        raise ParseError("node_file", "not valid UTF-8") from None
    lines = [line for line in text.split("\n") if line]
    return make_node_file(lines)


def update_node_file(local: NodeFile, remote_digest: bytes, raw) -> NodeFile:
    """Digest-compare-and-replace synchronization with one peer.

    `raw` is the remote roster's canonical bytes, as its `NF_DATA` body
    carries them; it is parsed only on digest mismatch, and verified
    against the claimed digest before adoption.
    """
    if local.digest == remote_digest:
        return local
    if hashing.digest(raw) != remote_digest:
        raise IntegrityError("remote node file does not match its claimed digest")
    replacement = parse_node_file(raw)
    if replacement.canonical_bytes() != raw:
        raise IntegrityError("remote node file is not in canonical form")
    return replacement


def node_index(nf: NodeFile, address: str) -> int:
    """1-based index of an address in the roster."""
    return nf.addresses.index(address) + 1
