"""Smoke and shape tests for the experiment runner (tiny sizes)."""

import pytest

from repro.bench.runner import (
    run_ablation_balancing,
    run_ablation_indexes,
    run_cost_model,
    run_matcher_scaling,
    run_fig7,
    run_fig8,
    run_fig9,
    run_space,
)
from repro.bench.reporting import format_series, format_table


class TestFigureRunners:
    def test_fig7_shape(self):
        rows = run_fig7(ns=(50, 100), fractions=(0.0, 1.0))
        assert [row["n"] for row in rows] == [50, 100]
        for row in rows:
            assert row["a=0"] > 0 and row["a=1"] > 0

    def test_fig8_shape(self):
        rows = run_fig8(ns=(50, 100), fractions=(0.5,), queries=200)
        assert all(row["a=0.5"] > 0 for row in rows)

    def test_fig9_sequential_above_ibs(self):
        """The paper's headline shape: sequential always above IBS."""
        rows = run_fig9(ns=(10, 25, 40), queries=2_000)
        for row in rows:
            assert row["sequential_us"] > row["ibs_us"], row

    def test_fig9_sequential_grows_linearly(self):
        rows = run_fig9(ns=(10, 40), queries=2_000)
        assert rows[1]["sequential_us"] > rows[0]["sequential_us"] * 2


class TestCostRunner:
    def test_cost_model_runner(self):
        result = run_cost_model()
        assert result["paper"].total_ms == pytest.approx(2.15)
        assert result["measured_ms"] > 0
        assert result["calibrated"].total_ms > 0


class TestSpaceRunner:
    def test_disjoint_linear_overlapping_superlinear(self):
        rows = run_space(ns=(100, 400))
        small, large = rows
        # disjoint: constant markers per interval
        assert small["disjoint_per_interval"] == pytest.approx(
            large["disjoint_per_interval"], abs=0.5
        )
        # overlapping: markers per interval grow with N (the log factor)
        assert large["overlapping_per_interval"] > small["overlapping_per_interval"]


class TestAblationRunners:
    def test_ablation_indexes_covers_all_structures(self):
        rows = run_ablation_indexes(n=120, queries=50, deletes=10)
        names = {row["structure"] for row in rows}
        assert names == {
            "list",
            "ibs",
            "ibs-avl",
            "ibs-rb",
            "pst",
            "rtree-1d",
            "rplus-1d",
            "segment",
            "interval",
        }
        by_name = {row["structure"]: row for row in rows}
        # static structures' modification cost (a full rebuild) dwarfs
        # the cheap dynamic inserts; compare against the cheapest
        # dynamic structures with a wide margin so scheduler noise
        # cannot flip the comparison
        for static in ("segment", "interval"):
            assert by_name[static]["insert_us"] > 3 * by_name["list"]["insert_us"]
            assert by_name[static]["insert_us"] > by_name["ibs"]["insert_us"]

    def test_ablation_balancing_heights(self):
        rows = run_ablation_balancing(n=200, queries=50)
        by_name = {row["structure"]: row for row in rows}
        assert by_name["ibs-avl"]["height"] < by_name["ibs (unbalanced)"]["height"]
        assert by_name["ibs-avl"]["height"] <= 14  # ~1.44*log2(400)


class TestMatcherScalingRunner:
    def test_strategies_agree_and_ibs_wins_at_scale(self):
        # timing comparison: best-of-3 runs so a scheduler hiccup in a
        # single pass cannot flip the (large) expected gap
        for attempt in range(3):
            rows = run_matcher_scaling(
                predicate_counts=(400,),
                strategies=("ibs", "hash", "sequential"),
                tuples=100,
            )
            large = rows[-1]
            if large["ibs"] < large["hash"] and large["ibs"] < large["sequential"]:
                return
        raise AssertionError(
            f"ibs not fastest at 400 predicates in any of 3 runs: {large}"
        )


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 0.00012], [1000.0, 0]])
        lines = text.splitlines()
        assert len(lines) == 5
        assert len(set(len(line) for line in lines)) == 1  # aligned

    def test_format_series_note(self):
        text = format_series("T", ["x"], [[1]], note="hello")
        assert "== T ==" in text
        assert "hello" in text
