"""The print_* runners render each experiment as a titled table."""

import pytest

from repro.bench.runner import (
    print_ablation_balancing,
    print_ablation_indexes,
    print_ablation_selectivity,
    print_cost_model,
    print_matcher_scaling,
    print_fig7,
    print_fig8,
    print_fig9,
    print_space,
    run_ablation_balancing,
    run_ablation_indexes,
    run_ablation_selectivity,
    run_cost_model,
    run_matcher_scaling,
    run_fig7,
    run_fig8,
    run_fig9,
    run_space,
)


@pytest.mark.parametrize(
    "print_fn,run_fn,kwargs,expect",
    [
        (print_fig7, run_fig7, {"ns": (40,), "fractions": (0.5,)}, "FIG7"),
        (print_fig8, run_fig8, {"ns": (40,), "fractions": (0.5,), "queries": 40}, "FIG8"),
        (print_fig9, run_fig9, {"ns": (5, 10), "queries": 200}, "FIG9"),
        (print_space, run_space, {"ns": (50,)}, "SPACE"),
        (
            print_ablation_indexes,
            run_ablation_indexes,
            {"n": 40, "queries": 20, "deletes": 5},
            "ABL1",
        ),
        (
            print_ablation_balancing,
            run_ablation_balancing,
            {"n": 60, "queries": 20},
            "ABL2",
        ),
        (
            print_ablation_selectivity,
            run_ablation_selectivity,
            {"predicates": 30, "tuples": 30, "rows": 200},
            "ABL3",
        ),
        (
            print_matcher_scaling,
            run_matcher_scaling,
            {"predicate_counts": (30,), "strategies": ("ibs", "hash"), "tuples": 20},
            "MATCHER-SCALING",
        ),
    ],
)
def test_print_renders_table(capsys, print_fn, run_fn, kwargs, expect):
    rows = run_fn(**kwargs)
    returned = print_fn(rows)
    out = capsys.readouterr().out
    assert f"== {expect}" in out
    assert returned is rows


def test_print_cost_model(capsys):
    result = run_cost_model()
    print_cost_model(result)
    out = capsys.readouterr().out
    assert "== COST" in out
    assert "2.150" in out  # the paper-constant total


def test_run_all_dispatch(capsys, monkeypatch):
    import runpy
    import sys

    monkeypatch.setattr(sys, "argv", ["run_all.py", "nonsense"])
    with pytest.raises(SystemExit):
        runpy.run_path("benchmarks/run_all.py", run_name="__main__")
