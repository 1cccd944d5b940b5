"""The benchmark's metrics: definitions and how each is computed from a run.

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric
names, units and directions; ``BENCHMARK.json`` lists the same (a test
checks that).  Every metric is computed on every workload: where a
workload's loop has no call of some kind, the metric comes from the
calls that come closest (see the table in ``rulebench/README.md``).
Times are scaled to reference host speed (:mod:`rulebench.host`).
"""

from __future__ import annotations

from statistics import median
from typing import Dict, List, NamedTuple, Optional

from .harness import INSERT_GROUP, Run, percentile
from .trace import layer_of

__all__ = ["END_TO_END", "PER_LAYER", "Metric", "end_to_end", "per_layer"]


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: Optional[float] = None


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("tuples_per_s", "tuples/s", "higher", 0.25),
    Metric("insert_p50_us", "us", "lower", 0.2),
    Metric("batch_p50_ms", "ms", "lower", 0.2),
    Metric("rule_create_p50_us", "us", "lower", 0.2),
    Metric("rule_drop_p50_us", "us", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

PER_LAYER = (
    Metric("insert_p99_us", "us", "lower"),
    Metric("batch_p90_ms", "ms", "lower"),
    Metric("rule_create_p99_us", "us", "lower"),
    Metric("rule_drop_p99_us", "us", "lower"),
    Metric("error_rate", "fraction", "lower"),
    Metric("db.self_us_per_tuple", "us", "lower"),
    Metric("match.residual_us_per_tuple", "us", "lower"),
    Metric("match.candidates_per_tuple", "count", "lower"),
    Metric("match.non_indexable_per_tuple", "count", "lower"),
    Metric("match.useful_ratio", "fraction", "higher"),
    Metric("match.memo_hit_ratio", "fraction", "higher"),
    Metric("match.add_us_per_rule", "us", "lower"),
    Metric("match.remove_us_per_rule", "us", "lower"),
    Metric("core.stab_us_per_tuple", "us", "lower"),
    Metric("core.descents_per_tuple", "count", "lower"),
    Metric("core.stab_cache_hit_ratio", "fraction", "higher"),
    Metric("rules.firings_per_tuple", "count", "lower"),
    Metric("rules.post_us_per_firing", "us", "lower"),
    Metric("rules.drain_self_us_per_firing", "us", "lower"),
    Metric("rules.savepoint_us_per_firing", "us", "lower"),
    Metric("rules.action_us_per_firing", "us", "lower"),
    Metric("rules.create_self_us_per_rule", "us", "lower"),
    Metric("bench.rule_write_share", "fraction", "lower"),
    Metric("runtime.gc_pause_ms", "ms", "lower"),
    Metric("runtime.gc_collections", "1/ktuples", "lower"),
    Metric("trace.overhead_frac", "fraction", "lower"),
    Metric("trace.coverage_frac", "fraction", "higher"),
)


def _per_tuple_latencies(run: Run) -> List[float]:
    """Seconds per tuple: each insert, or each batch's per-tuple share."""
    plain = run.plain
    if plain.inserts:
        return plain.inserts
    size = run.inputs.shape.batch_size
    return [took / size for took in plain.batches]


def _batch_latencies(run: Run) -> List[float]:
    """Seconds per batch: each ``bulk_insert``, or each group of inserts."""
    plain = run.plain
    if plain.batches:
        return plain.batches
    inserts = plain.inserts
    return [
        sum(inserts[i : i + INSERT_GROUP])
        for i in range(0, len(inserts) - INSERT_GROUP + 1, INSERT_GROUP)
    ]


def error_count(run: Run) -> int:
    """Failed calls, quarantined firings and oracle mismatches."""
    return len(run.errors) + run.quarantined + len(run.oracle_mismatches)


def end_to_end(run: Run) -> Dict[str, float]:
    plain = run.plain
    return {
        "setup_s": median(run.setup_s),
        "tuples_per_s": median(plain.rates) if plain.rates else plain.tuples / plain.busy,
        "insert_p50_us": percentile(_per_tuple_latencies(run), 0.5) * 1e6,
        "batch_p50_ms": percentile(_batch_latencies(run), 0.5) * 1e3,
        "rule_create_p50_us": percentile(plain.creates, 0.5) * 1e6,
        "rule_drop_p50_us": percentile(plain.drops, 0.5) * 1e6,
        "peak_rss_mb": run.rss_mb,
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(run: Run) -> Dict[str, float]:
    """Layer metrics of a traced run (``trace=True``)."""
    spans = run.spans

    def self_time(*names: str) -> float:
        """Summed self time of the named spans, at reference host speed."""
        return sum(spans[name].self_time for name in names if name in spans) * run.speed_factor

    def count(name: str) -> int:
        return spans[name].count if name in spans else 0

    tuples = run.traced.tuples
    firings = count("rules.savepoint")
    creates, drops = count("rules.create_rule"), count("rules.drop_rule")
    stats = run.match_stats
    residual_tests = stats.get("partial_matches", 0) + stats.get("non_indexable_tested", 0)
    plain, traced = run.plain, run.traced
    core = self_time(*(name for name in spans if layer_of(name) == "core"))
    covered = sum(s.self_time for s in spans.values())
    rule_writes = sum(plain.creates) + sum(plain.drops) if run.inputs.churn else 0.0
    return {
        "insert_p99_us": percentile(_per_tuple_latencies(run), 0.99) * 1e6,
        "batch_p90_ms": percentile(_batch_latencies(run), 0.9) * 1e3,
        "rule_create_p99_us": percentile(plain.creates, 0.99) * 1e6,
        "rule_drop_p99_us": percentile(plain.drops, 0.99) * 1e6,
        "error_rate": _ratio(error_count(run), run.attempted),
        "db.self_us_per_tuple": _ratio(self_time("db.insert", "db.bulk_insert"), tuples) * 1e6,
        "match.residual_us_per_tuple": (
            _ratio(self_time("match.match", "match.match_batch"), tuples) * 1e6
        ),
        "match.candidates_per_tuple": _ratio(stats.get("partial_matches", 0), tuples),
        "match.non_indexable_per_tuple": _ratio(stats.get("non_indexable_tested", 0), tuples),
        "match.useful_ratio": _ratio(stats.get("full_matches", 0), residual_tests),
        "match.memo_hit_ratio": _ratio(stats.get("residual_memo_hits", 0), residual_tests),
        "match.add_us_per_rule": _ratio(self_time("match.add"), creates) * 1e6,
        "match.remove_us_per_rule": _ratio(self_time("match.remove"), drops) * 1e6,
        "core.stab_us_per_tuple": _ratio(core, tuples) * 1e6,
        "core.descents_per_tuple": _ratio(stats.get("trees_searched", 0), tuples),
        "core.stab_cache_hit_ratio": (
            _ratio(stats.get("stab_cache_hits", 0), stats.get("probes", 0))
        ),
        "rules.firings_per_tuple": _ratio(firings, tuples),
        "rules.post_us_per_firing": _ratio(self_time("rules.post"), firings) * 1e6,
        "rules.drain_self_us_per_firing": _ratio(self_time("rules.drain"), firings) * 1e6,
        "rules.savepoint_us_per_firing": _ratio(self_time("rules.savepoint"), firings) * 1e6,
        "rules.action_us_per_firing": _ratio(self_time("bench.action"), firings) * 1e6,
        "rules.create_self_us_per_rule": _ratio(self_time("rules.create_rule"), creates) * 1e6,
        "bench.rule_write_share": _ratio(rule_writes, plain.busy),
        "runtime.gc_pause_ms": max(run.gc_pauses, default=0.0) * 1e3,
        "runtime.gc_collections": _ratio(len(run.gc_pauses), plain.tuples + traced.tuples) * 1e3,
        "trace.overhead_frac": 1.0 - _ratio(
            _ratio(traced.tuples, traced.busy), _ratio(plain.tuples, plain.busy)
        ),
        "trace.coverage_frac": _ratio(covered, run.traced_wall),
    }
