"""Test oracles and shared test data: checks that only the tests run, kept out of the `haina` package."""

import csv
import io

from haina import hashing
from haina.metrics import COLUMNS, MetricsRow

# forms of an integer header field that int() reads but no encoder writes: every
# encoder writes str() of a non-negative int; the last one is a fullwidth "5"
NON_CANONICAL_INTS = ["+5", " 5", "5_000", "007", "-1", "\uff15"]
NON_CANONICAL_IDS = ["plus", "space", "underscore", "leading-zeros", "negative", "fullwidth"]


def verify_chain(blocks) -> list:
    """Recompute every data hash and report each pointer that disagrees.

    Returns (block index, "previous" | "current" | "next") pairs, none
    for a valid chain.  Defined on unlocked pointers only: a locked
    chain reports every neighbour pointer.
    """
    m = len(blocks)
    digests = [hashing.digest(b.data) for b in blocks]
    violations = []
    for i, block in enumerate(blocks):
        if block.previous_hash != digests[(i - 1) % m]:
            violations.append((i, "previous"))
        if block.current_hash != digests[i]:
            violations.append((i, "current"))
        if block.next_hash != digests[(i + 1) % m]:
            violations.append((i, "next"))
    return violations


def rows_from_csv(text: str):
    """Parse `haina.metrics.rows_to_csv` output back into rows; context values stay strings."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if tuple(header or ()) != COLUMNS:
        raise ValueError(f"unexpected CSV header {header!r}")
    rows = []
    for event_id, kind, value, context in reader:
        ctx = {}
        if context:
            for pair in context.split(";"):
                key, _, val = pair.partition("=")
                ctx[key] = val
        rows.append(MetricsRow(event_id=event_id, kind=kind, value=float(value), context=ctx))
    return rows


def stored_addresses(store) -> set:
    """The content addresses a `BlockStore` holds."""
    return set(store._blocks)
