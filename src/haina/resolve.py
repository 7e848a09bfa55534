"""Content-address resolution over the node roster."""

from operator import itemgetter

from .errors import IncompleteChainError, UsageError
from .frames import Frame, MsgType
from .nodefile import NodeFile

_reply_ms = itemgetter(1)


def resolve(transport, origin: str, addresses, nf: NodeFile, timeout_ms: float = 1000.0):
    """Find every node holding each of one or two content addresses.

    One HAS_BLOCK broadcast asks every roster member about all the
    addresses at once (`address`, then `address2`); a reply's `has`
    holds one "0"/"1" per address asked.  Returns one list per address
    of (node address, ms to its reply) over every positive reply,
    fastest first (deterministic under the simulated transport).
    Raises IncompleteChainError when no address has a holder.
    """
    if not 1 <= len(addresses) <= 2:
        raise UsageError(f"HAS_BLOCK asks about one or two addresses, not {len(addresses)}")
    header = {"address": addresses[0].hex()}
    if len(addresses) == 2:
        header["address2"] = addresses[1].hex()
    replies = transport.broadcast(origin, nf.addresses, Frame(MsgType.HAS_BLOCK, header), timeout_ms)
    holders = [[] for _ in addresses]
    for node in nf.addresses:
        reply = replies.get(node)
        if reply is None:
            continue
        frame, rtt = reply
        has = frame.header.get("has", "")
        if "1" in has and frame.type is MsgType.HAS_BLOCK_REPLY:
            for found, bit in zip(holders, has):
                if bit == "1":
                    found.append((node, rtt))
    if not any(holders):
        raise IncompleteChainError(list(addresses))
    for found in holders:
        found.sort(key=_reply_ms)
    return holders
