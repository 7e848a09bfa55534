"""Append-only experiment metrics and their CSV form.

Columns (stable): event_id, kind, value, context.  The context column
packs auxiliary key=value pairs separated by semicolons.
"""

import csv
import io
from dataclasses import dataclass, field

KINDS = ("decision_ms", "block_node", "stage_ms", "speedup_pct")

COLUMNS = ("event_id", "kind", "value", "context")


@dataclass(frozen=True)
class MetricsRow:
    event_id: str
    kind: str
    value: float
    context: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}")


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in rows:
        context = ";".join(f"{k}={_format_value(v)}" for k, v in sorted(row.context.items()))
        writer.writerow([row.event_id, row.kind, _format_value(row.value), context])
    return out.getvalue()

