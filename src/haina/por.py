"""Storage-right election: scoring, fairness check, store acknowledgement check.

A storage event walks the chain block by block.  The node holding the
current block (the beginner) polls every other roster member for free
space, scores each reply as free_gb / rtt_ms, and hands the user the
followers' addresses, best first.  The user applies the fairness
check against its per-event tally and notifies the winner.
"""

from dataclasses import dataclass
from operator import itemgetter

from .blockstore import BYTES_PER_GB
from .errors import CampaignError, HainaError, ParseError, UsageError
from .frames import Frame, MsgType, int_field
from .nodefile import NodeFile


@dataclass
class PorConfig:
    rate: float = 0.1  # per-event fairness threshold and its escalation step, fraction of blocks
    timeout_ms: float = 1000.0

    def __post_init__(self):
        if not 0 < self.rate <= 1:
            raise UsageError("rate must satisfy 0 < rate <= 1")


@dataclass(frozen=True)
class CampaignResult:
    candidates: tuple  # follower addresses, value-descending
    elapsed_ms: float


def judge(nc_gb: float, rtt_ms: float) -> float:
    """Score a candidate: capacity / round-trip, with RTT clamped up to 1 ms.

    The paper scales this by a factor k, but every score in a campaign
    shares it, so it cannot change a ranking.
    """
    if nc_gb < 0:
        raise UsageError("free capacity cannot be negative")
    return nc_gb / (1.0 if rtt_ms < 1.0 else rtt_ms)  # max(rtt_ms, 1.0), without a builtin call per poll


def pick_first_beginner(nf: NodeFile, draw: int) -> str:
    """Select the head node: 1-based index (draw mod N) + 1 into the roster."""
    if len(nf) == 0:
        raise UsageError("node file is empty")
    if draw < 0:
        raise UsageError("rng draw must be non-negative")
    return nf.addresses[draw % len(nf)]


def run_campaign(transport, beginner: str, next_block_size: int, nf: NodeFile, cfg: PorConfig) -> CampaignResult:
    """Poll every roster member except the beginner in one `exchange`, and rank the replies.

    A node appears in the result only if it answered within the timeout
    with enough free space; refusals, silence, errors and a `freespace`
    that is not a non-negative integer as `str()` writes it drop it for
    this round.  Ties in value keep node-file order.
    """
    election = Frame(MsgType.ELECTION, {"size": str(next_block_size)})
    polls = [(addr, election) for addr in nf.addresses if addr != beginner]
    if not polls:
        raise CampaignError("no follower to poll: node file has a single member")
    t0 = transport.now()
    results = transport.exchange(beginner, polls, cfg.timeout_ms)
    elapsed = transport.now() - t0

    scored = []  # (value, address), in roster order
    takepart = MsgType.TAKEPART  # one member lookup per campaign, not per poll
    for (addr, _), result in zip(polls, results):
        if isinstance(result, HainaError):
            continue
        frame, rtt = result
        if frame.type is not takepart:
            continue
        try:
            freespace = int_field(frame, "freespace")
        except ParseError:
            continue
        if freespace < next_block_size:
            continue
        scored.append((judge(freespace / BYTES_PER_GB, rtt), addr))
    if not scored:
        raise CampaignError(f"no candidate can hold a {next_block_size}-byte block")
    scored.sort(key=itemgetter(0), reverse=True)  # a reversed sort is still stable: equal values keep roster order
    return CampaignResult(candidates=tuple([addr for _, addr in scored]), elapsed_ms=elapsed)


def check_rate(candidates, counts, total_blocks: int, rate: float, step: float):
    """Fairness check over value-sorted candidate addresses.

    `counts` maps a node address to the blocks it already holds in this
    storage event (a `Counter`: an absent node holds none).  Preference
    order: (a) best candidate holding nothing yet; (b) best candidate
    whose post-store share of the `total_blocks` stays within `rate`;
    (c) fall back to the top candidate and raise the threshold by `step`.

    Returns (chosen address, new rate, escalated flag).
    """
    if not candidates:
        raise CampaignError("no candidate to check")
    for address in candidates:
        if counts[address] == 0:
            return address, rate, False
    for address in candidates:
        if (counts[address] + 1) / total_blocks <= rate:
            return address, rate, False
    return candidates[0], rate + step, True


def check_store(ack: Frame, expected: bytes) -> bool:
    """True iff a STORE_ACK's `stored` digest is the block's content address.

    `stored` is the node's own hash of the data domain it kept, so a
    node that kept other bytes, or none, fails the check.
    """
    return ack.header.get("stored") == expected.hex()
