"""Content-address resolution over the node roster."""

from .errors import UsageError
from .frames import Frame, MsgType
from .nodefile import NodeFile


def resolve(transport, origin: str, addresses, nf: NodeFile, timeout_ms: float = 1000.0):
    """Find every node holding each of one or two content addresses.

    One HAS_BLOCK broadcast asks every roster member about all the
    addresses at once (`address`, then `address2`); a reply's `has`
    holds one "0"/"1" per address asked.  Returns one list per address
    of the node addresses that hold it, fastest reply first
    (deterministic under the simulated transport); an address nobody
    holds gets an empty list.
    """
    if not 1 <= len(addresses) <= 2:
        raise UsageError(f"HAS_BLOCK asks about one or two addresses, not {len(addresses)}")
    header = {"address": addresses[0].hex()}
    if len(addresses) == 2:
        header["address2"] = addresses[1].hex()
    replies = transport.broadcast(origin, nf.addresses, Frame(MsgType.HAS_BLOCK, header), timeout_ms)
    holders = [[] for _ in addresses]
    for node, reply in replies.items():  # roster order
        if reply and reply[0].type is MsgType.HAS_BLOCK_REPLY:
            for found, bit in zip(holders, reply[0].header.get("has", "")):
                if bit == "1":
                    found.append(node)
    for found in holders:
        found.sort(key=lambda node: replies[node][1])  # stable: equal times keep roster order
    return holders
