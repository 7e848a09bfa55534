import hashlib
import json
import math

import pytest

from haina.errors import ParseError, UsageError
from haina.experiments import ClusterSpec, parse_cluster_spec, run_experiment
from haina.metrics import MetricsRow, rows_to_csv

from oracles import rows_from_csv


class TestClusterSpec:
    def test_parse_defaults(self):
        spec = parse_cluster_spec(json.dumps({"nodes": 5, "seed": 1}))
        assert spec.nodes == 5 and spec.rate == 0.1 and spec.blocks == 20

    def test_unknown_field_named(self):
        for field in ("bogus", "k"):  # the paper's k is a common scale, so no spec field sets it
            with pytest.raises(ParseError, match=f"{field}: unknown cluster spec field"):
                parse_cluster_spec(json.dumps({"nodes": 5, "seed": 1, field: 2}))

    @pytest.mark.parametrize(
        "field,value",
        [("nodes", 1), ("rate", 0.0), ("k", 2.0), ("events", 0), ("blocks", 0)]
        # a value of the wrong JSON type; true and false are neither integers nor numbers
        + [(field, value) for field in ("nodes", "events", "file_bytes", "blocks", "seed")
           for value in ("5", None, [5], {"n": 5}, 2.5, True)]
        + [(field, value) for field in ("quota_gb", "latency_ms", "jitter_ms", "rate")
           for value in ("1", None, [1], {"n": 1}, True)]
        + [("latency_matrix", value) for value in (["a>b", 5], "fast", 5, {"a>b": "fast"}, {"a>b": None},
                                                   {"a>b": True}, {"a>b": [5]})]
        # json reads NaN and Infinity, which no latency, jitter or quota can be
        + [(field, value) for field in ("quota_gb", "latency_ms", "jitter_ms") for value in (math.inf, math.nan)]
        + [("latency_matrix", {"a>b": value}) for value in (math.inf, math.nan)]
        # a quota must come to a finite number of at least 1 byte
        + [("quota_gb", value) for value in (1e300, 1e-10)],
    )
    def test_invalid_value_named(self, field, value):
        doc = {"nodes": 5, "seed": 1, field: value}
        with pytest.raises(ParseError, match=field):
            parse_cluster_spec(json.dumps(doc))

    @pytest.mark.parametrize(
        "field,value",
        [("events", True), ("seed", True), ("nodes", 2.5), ("latency_ms", "5"), ("quota_gb", math.nan),
         ("quota_gb", 1e300), ("quota_gb", 1e-10), ("latency_matrix", [1]), ("latency_matrix", {"ab": 5}),
         ("latency_matrix", {1: 5}), ("latency_matrix", {"a>b": -1.0})],
    )
    def test_direct_construction_is_checked(self, field, value):
        # tests, the acceptance suite and the benchmark build specs without parse_cluster_spec
        with pytest.raises(ParseError, match=f"^{field}:"):
            ClusterSpec(**{field: value})

    def test_not_json(self):
        with pytest.raises(ParseError):
            parse_cluster_spec("not json")
        with pytest.raises(ParseError, match="top level must be an object"):
            parse_cluster_spec("[]")  # JSON, but no object


class TestMetricsCsv:
    def test_roundtrip(self):
        rows = [
            MetricsRow("e1", "decision_ms", 12.5, {"block": "1"}),
            MetricsRow("e1", "block_node", 2.0, {"node": "a:1", "x": "y"}),
        ]
        text = rows_to_csv(rows)
        assert text.splitlines()[0] == "event_id,kind,value,context"
        back = rows_from_csv(text)
        assert [(r.event_id, r.kind, r.value) for r in back] == [
            ("e1", "decision_ms", 12.5),
            ("e1", "block_node", 2.0),
        ]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            MetricsRow("e", "nope", 1.0)

    def test_processing_rate_kind_rejected(self):
        with pytest.raises(ValueError):
            MetricsRow("e", "processing_rate_kbps", 1.0)


def _spec(**kw):
    base = dict(nodes=5, seed=42, events=3, file_bytes=2000, blocks=8, latency_ms=5.0)
    base.update(kw)
    return ClusterSpec(**base)


class TestExperiments:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(UsageError):
            run_experiment(_spec(), "nope")

    def test_fairness_rows_respect_rate_cap(self):
        spec = _spec(nodes=10, blocks=20, events=5)
        rows = run_experiment(spec, "fairness")
        placements = [r for r in rows if r.kind == "block_node"]
        escalated = {r.event_id for r in rows if r.context.get("stage") == "rate_escalation"}
        cap = int(spec.rate * spec.blocks)
        for row in placements:
            if row.event_id not in escalated:
                assert row.value <= cap
        per_event = {}
        for row in placements:
            per_event[row.event_id] = per_event.get(row.event_id, 0) + row.value
        assert all(total == spec.blocks for total in per_event.values())

    def test_decision_time_bounded_by_link_model(self):
        spec = _spec(latency_ms=25.0)
        rows = run_experiment(spec, "decision_time")
        values = [r.value for r in rows if r.kind == "decision_ms"]
        assert values
        mean = sum(values) / len(values)
        assert 2 * 25.0 <= mean <= 4 * 25.0

    def test_bdam_speedup_rows(self):
        rows = run_experiment(_spec(blocks=21, file_bytes=4000, events=2), "bdam_speedup")
        speedups = [r.value for r in rows if r.kind == "speedup_pct"]
        assert len(speedups) == 2
        for pct in speedups:
            assert 40.0 <= pct <= 55.0

    def test_capacity_totals_match_exactly(self):
        rows = run_experiment(_spec(), "capacity")
        by_stage = {r.context["stage"]: r.value for r in rows if "stage" in r.context}
        assert by_stage["total_stored_bytes"] == by_stage["total_chain_bytes"]

    def test_same_spec_same_seed_identical_csv(self):
        a = rows_to_csv(run_experiment(_spec(), "fairness"))
        b = rows_to_csv(run_experiment(_spec(), "fairness"))
        assert a == b

    def test_different_seed_differs(self):
        # with jitter the per-campaign timings are seed-sensitive
        a = rows_to_csv(run_experiment(_spec(jitter_ms=2.0), "decision_time"))
        b = rows_to_csv(run_experiment(_spec(jitter_ms=2.0, seed=43), "decision_time"))
        assert a != b


# the spec.json of the README; these digests pin its CSVs byte for byte
README_SPEC = {"nodes": 47, "blocks": 20, "events": 10, "file_bytes": 65536,
               "latency_ms": 25.0, "jitter_ms": 0.0, "rate": 0.1, "seed": 1}


@pytest.mark.parametrize(
    "name,sha256",
    [
        ("fairness", "505a35537e6164b08a988de73df8a40f78ae1ed545173a28a2ff3fdfe98e1997"),
        ("decision_time", "ea81f47f72390a6ef833f10872f11dfb4b612422533553aa1758a49edc133fc1"),
        ("bdam_speedup", "6e6a37709df5f6fad904dd643679cccb33d077b9b8c8368dfa56a63e7b2bb8da"),
        ("capacity", "34c041019cd1c0605cf9209c28250a49ab7dd3f5cf9d314f3862e6c217547ae6"),
    ],
)
def test_readme_spec_csv_is_byte_identical(name, sha256):
    assert _csv_sha256(README_SPEC, name) == sha256


# with jitter every timing is fractional, so these also pin the seeded jitter draws
@pytest.mark.parametrize(
    "name,sha256",
    [
        ("decision_time", "6a3564a4f8c4e8bfa7918d246f933238f6d9e3944d52cc202acf6e0fe3b4f60d"),
        ("bdam_speedup", "a8ca8ef0349998c46afbe038b619561ac644c6d65f541b3ff20cac5566839ec3"),
    ],
)
def test_jittered_readme_spec_csv_is_byte_identical(name, sha256):
    assert _csv_sha256({**README_SPEC, "jitter_ms": 2.0}, name) == sha256


def _csv_sha256(doc, name):
    csv = rows_to_csv(run_experiment(parse_cluster_spec(json.dumps(doc)), name))
    return hashlib.sha256(csv.encode("utf-8")).hexdigest()
