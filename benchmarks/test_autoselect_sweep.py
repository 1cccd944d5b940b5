"""AUTOSELECT — the rebalance pass vs every fixed backend choice.

Section 6 suggests balanced trees "would be useful for some workloads"
without saying *which* — this sweep measures it.  Each scenario family
from ``repro.workloads.scenarios`` runs against five fixed backends
and against ``auto``: the default ``PredicateIndex()`` on ``ibs``
trees, given one ``rebalance()`` pass after its warm-up pass, which
bulk-loads any tree the arrival order degenerated.

Acceptance criteria (throughput bars asserted at full scale):

* the auto row reaches at least 85 % of the best fixed backend's
  throughput on every scenario (``test_auto_close_to_best``);
* the auto row beats the worst fixed row by at least 1.3x on every
  scenario (``test_auto_beats_worst``) — on the adversarial family the
  committed numbers show >20x, because ``rebalance()`` rebuilds the
  degenerated unbalanced tree;
* the rebalance pass rebuilds the adversarial family's tree and nothing
  in any other family (``test_adversarial_migration_recorded``, at
  every scale);
* every configuration's match answers agree before timing, and the
  auto row's answers are re-checked after its rebalance pass (enforced
  inside ``run_autoselect`` itself — a disagreement raises).

Each cell is the best of nine passes, taken round-robin across a
scenario's six configurations so that a slow stretch of the host does
not land on one cell.  Running this module rewrites
``BENCH_autoselect.json`` at the repo root.  The rebuilt ``(relation, attribute)`` pairs land in the file's
``tuning`` section, not in ``rows``, so they do not participate in
``compare_bench`` row matching.

Set ``AUTOSELECT_SCALE`` (e.g. ``0.25``) for a quick smoke run: the
sweep shrinks and the acceptance bars are skipped (a smoke is not a
measurement), and the JSON is left untouched.
"""

import json
import os
import platform
from pathlib import Path

import pytest

from repro.bench.runner import AUTOSELECT_FIXED_BACKENDS, run_autoselect
from repro.workloads.scenarios import scenario_names

SEED = 33
SCALE = float(os.environ.get("AUTOSELECT_SCALE", "1.0"))
FULL_SCALE = SCALE == 1.0
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_autoselect.json"


@pytest.fixture(scope="module")
def sweep():
    report = {}
    rows = run_autoselect(seed=SEED, scale=SCALE, report_out=report)
    if FULL_SCALE:
        RESULT_PATH.write_text(
            json.dumps(
                {
                    "experiment": "autoselect_sweep",
                    "scenario": {
                        "seed": SEED,
                        "scale": SCALE,
                        "families": scenario_names(),
                    },
                    "baseline": "best/worst fixed backend per scenario",
                    "python": platform.python_version(),
                    "rows": [
                        {
                            key: round(value, 3)
                            if isinstance(value, float)
                            else value
                            for key, value in row.items()
                        }
                        for row in rows
                    ],
                    "tuning": report,
                },
                indent=2,
            )
            + "\n"
        )
    return rows, report


def test_matrix_complete(sweep):
    rows, _ = sweep
    seen = {(row["scenario"], row["backend"]) for row in rows}
    expected = {
        (family, backend)
        for family in scenario_names()
        for backend in AUTOSELECT_FIXED_BACKENDS + ("auto",)
    }
    assert seen == expected


def test_auto_close_to_best(sweep):
    """Auto reaches >= 85 % of the best fixed backend, every scenario."""
    if not FULL_SCALE:
        pytest.skip("acceptance bars apply at full scale only")
    rows, _ = sweep
    for row in rows:
        if row["backend"] != "auto":
            continue
        assert row["rel_best"] >= 0.85, (
            f"{row['scenario']}: auto at {row['rel_best']:.2f} of best fixed"
        )


def test_auto_beats_worst(sweep):
    """Auto beats the worst fixed backend by >= 1.3x on every scenario."""
    if not FULL_SCALE:
        pytest.skip("acceptance bars apply at full scale only")
    rows, _ = sweep
    for row in rows:
        if row["backend"] != "auto":
            continue
        assert row["rel_worst"] >= 1.3, (
            f"{row['scenario']}: auto only {row['rel_worst']:.2f}x of worst"
        )


def test_adversarial_migration_recorded(sweep):
    """The rebalance pass rebuilds the adversarial tree and nothing else."""
    _, report = sweep
    rebuilt = report["rebuilt"]
    assert set(rebuilt) == set(scenario_names())
    for family, pairs in rebuilt.items():
        if family == "adversarial-unbalanced":
            assert pairs, "adversarial scenario produced no rebuild"
        else:
            assert pairs == [], f"{family}: unexpected rebuilds {pairs}"
