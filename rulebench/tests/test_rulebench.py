"""Tests of the benchmark itself, at a small scale.

Run from the root of the repository::

    python3 -m pytest rulebench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from rulebench import harness
from rulebench.metrics import END_TO_END, PER_LAYER, end_to_end, error_count, per_layer
from rulebench.trace import Tracer, fold
from rulebench.workloads import SHAPES, generate

ROOT = Path(__file__).resolve().parents[2]
SCALE = 0.05


# -- inputs ------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(SHAPES))
def test_same_seed_gives_identical_inputs(workload):
    first = generate(workload, 7, scale=SCALE)
    assert first == generate(workload, 7, scale=SCALE)
    assert first != generate(workload, 8, scale=SCALE)


def test_inputs_have_the_stated_shape():
    inputs = generate("insert-fire", 3, scale=0.1)
    opaque = [spec for spec in inputs.rules if spec.condition.startswith("sparse(")]
    assert len(opaque) == round(len(inputs.rules) * 0.10)
    assert sum(spec.audit for spec in inputs.rules) == round(len(inputs.rules) * 0.10)
    churn = generate("rule-churn", 3, scale=SCALE)
    live = {spec.name for spec in churn.rules}
    for step in churn.churn:
        assert set(step.drops) <= live  # only live rules are dropped
        live -= set(step.drops)
        live |= {spec.name for spec in step.creates}
        assert len(live) == len(churn.rules)


# -- self time -----------------------------------------------------------------


def test_fold_subtracts_direct_children_only():
    spans = [
        ("db.insert", 0.0, 10.0, -1),
        ("match.match", 1.0, 5.0, 0),
        ("core.stab", 2.0, 3.0, 1),
        ("core.stab", 3.5, 4.0, 1),
        ("rules.drain", 6.0, 9.0, 0),
        ("rules.savepoint", 6.5, 8.5, 4),
        ("bench.action", 7.0, 8.0, 5),
        ("db.insert", 11.0, 12.0, -1),
    ]
    folded = fold(spans)
    assert folded["db.insert"].count == 2
    assert folded["db.insert"].total == pytest.approx(11.0)
    assert folded["db.insert"].self_time == pytest.approx(10.0 - 4.0 - 3.0 + 1.0)
    assert folded["match.match"].self_time == pytest.approx(4.0 - 1.0 - 0.5)
    assert folded["core.stab"].self_time == pytest.approx(1.5)
    assert folded["rules.drain"].self_time == pytest.approx(1.0)
    assert folded["rules.savepoint"].self_time == pytest.approx(1.0)
    assert folded["bench.action"].self_time == pytest.approx(1.0)
    # self times partition the root spans
    assert sum(s.self_time for s in folded.values()) == pytest.approx(11.0)


def test_tracer_nests_wrapped_calls():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: None, "core.stab")
    outer = tracer.wrap(lambda: (inner(), inner()), "match.match")
    outer()
    folded = tracer.take()
    # outer opens at 0 and closes at 5; the inner calls span 1-2 and 3-4
    assert folded["match.match"].total == 5.0
    assert folded["match.match"].self_time == 3.0
    assert folded["core.stab"].count == 2
    assert folded["core.stab"].self_time == 2.0


# -- runs ------------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(SHAPES))
def test_small_run_is_correct_and_reports_every_metric(workload):
    result = harness.run(generate(workload, 1, scale=SCALE), 0.3)
    assert error_count(result) == 0 and result.oracle_checked > 0
    values = end_to_end(result)
    assert set(values) == {metric.name for metric in END_TO_END}
    assert all(value > 0 for value in values.values())


@pytest.mark.parametrize("workload", sorted(SHAPES))
def test_traced_run_self_times_cover_its_wall_time(workload):
    result = harness.run(generate(workload, 1, scale=SCALE), 2.5, trace=True)
    values = per_layer(result)
    assert set(values) == {metric.name for metric in PER_LAYER}
    assert values["error_rate"] == 0
    assert values["trace.coverage_frac"] == pytest.approx(1.0, abs=0.1)
    assert values["rules.firings_per_tuple"] > 0
    assert values["match.add_us_per_rule"] > 0
    assert values["match.remove_us_per_rule"] > 0


def test_oracle_reports_a_planted_wrong_answer(monkeypatch):
    build = harness.build

    def build_dropping_one_match(inputs, speed):
        system, setup_s = build(inputs, speed)
        match = system.engine.matcher.match
        system.engine.matcher.match = lambda relation, tup: match(relation, tup)[1:]
        return system, setup_s

    monkeypatch.setattr(harness, "build", build_dropping_one_match)
    result = harness.run(generate("insert-fire", 1, scale=0.1), 0.5)
    assert result.oracle_mismatches
    assert error_count(result) >= len(result.oracle_mismatches)


def test_planted_slowdown_in_match_moves_insert_p50_beyond_its_bound(monkeypatch):
    inputs = generate("insert-fire", 2, scale=0.1)
    baseline = end_to_end(harness.run(inputs, 1.0))["insert_p50_us"]
    delay = baseline * 1e-6  # as long again as a whole insert
    build = harness.build

    def build_with_slow_match(inputs, speed):
        system, setup_s = build(inputs, speed)
        match = system.engine.matcher.match

        def slow_match(relation, tup):
            until = time.perf_counter() + delay
            while time.perf_counter() < until:
                pass
            return match(relation, tup)

        system.engine.matcher.match = slow_match
        return system, setup_s

    monkeypatch.setattr(harness, "build", build_with_slow_match)
    slowed = end_to_end(harness.run(inputs, 1.0))["insert_p50_us"]
    bound = next(m.bound for m in END_TO_END if m.name == "insert_p50_us")
    assert slowed > baseline * (1 + bound)


# -- the contract ----------------------------------------------------------------


def test_benchmark_json_lists_the_metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(SHAPES)
    for key, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [
            (m["name"], m["unit"], m["better"], m.get("bound")) for m in spec[key]
        ]
        assert listed == [tuple(metric) for metric in metrics]


def test_cli_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "rulebench", tmp_path / "rulebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "rulebench/run.py", "--workload", "insert-fire",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
