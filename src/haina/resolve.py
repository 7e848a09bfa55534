"""Content-address resolution over the node roster."""

from .errors import HainaError, UsageError
from .frames import Frame, MsgType
from .nodefile import NodeFile


def resolve(transport, origin: str, addresses, nf: NodeFile, timeout_ms: float = 1000.0):
    """Find every node holding each of one or two content addresses.

    One `transport.exchange` of a HAS_BLOCK asks every roster member
    about all the addresses at once (`address`, then `address2`); a
    reply's `has` holds one "0"/"1" per address asked.  Returns one list
    per address of the node addresses that hold it, in roster order,
    whatever their reply times; an address nobody holds gets an empty
    list.
    """
    if not 1 <= len(addresses) <= 2:
        raise UsageError(f"HAS_BLOCK asks about one or two addresses, not {len(addresses)}")
    header = {"address": addresses[0].hex()}
    if len(addresses) == 2:
        header["address2"] = addresses[1].hex()
    query = Frame(MsgType.HAS_BLOCK, header)
    results = transport.exchange(origin, [(node, query) for node in nf.addresses], timeout_ms)
    holders = [[] for _ in addresses]
    for node, result in zip(nf.addresses, results):
        if not isinstance(result, HainaError) and result[0].type is MsgType.HAS_BLOCK_REPLY:
            for found, bit in zip(holders, result[0].header.get("has", "")):
                if bit == "1":
                    found.append(node)
    return holders
