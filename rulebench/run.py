"""Run one workload of the end-to-end rule-firing benchmark.

Usage, from the root of the repository::

    python3 rulebench/run.py --workload insert-fire --seed 1 --seconds 20 --trace 0

Prints the host fingerprint, the oracle result and every metric with its
unit, then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
also writes its span aggregates to ``.rulebench/``.  See
``rulebench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the repro sources are not at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from rulebench.harness import run
    from rulebench.host import fingerprint
    from rulebench.metrics import END_TO_END, PER_LAYER, end_to_end, error_count, per_layer
    from rulebench.workloads import SHAPES, generate

    if args.workload not in SHAPES:
        parser.error(f"unknown workload {args.workload!r}; choose one of {', '.join(SHAPES)}")
    host = fingerprint()
    print("host " + json.dumps(host, sort_keys=True))
    inputs = generate(args.workload, args.seed)
    # the inputs live for the whole run: keep them out of the program's
    # garbage collections
    gc.collect()
    gc.freeze()
    result = run(inputs, args.seconds, trace=bool(args.trace))

    for error in result.errors[:1]:
        print(error, file=sys.stderr)
    for mismatch in result.oracle_mismatches[:5]:
        print("oracle mismatch: " + mismatch, file=sys.stderr)
    failed = error_count(result)
    correct = failed == 0 and result.oracle_checked > 0
    print(
        f"oracle: {result.oracle_checked} tuples checked against the sequential "
        f"matcher, {len(result.oracle_mismatches)} mismatched; "
        f"{result.quarantined} quarantined firings; {len(result.errors)} failed calls"
    )
    if result.exhausted:
        print("note: the run used every pre-generated churn step before its time was up")
    plain = result.plain
    print(f"host speed factor: {result.speed_factor:.4f} (timings are scaled by it)")
    print(
        f"samples: {len(plain.inserts)} inserts, {len(plain.batches)} batches, "
        f"{len(plain.creates)} rule creates, {len(plain.drops)} rule drops, "
        f"{len(result.setup_s)} set-ups"
    )
    if args.trace:
        specs, values = PER_LAYER, per_layer(result)
    else:
        specs, values = END_TO_END, end_to_end(result)
    metrics = {}
    for metric in specs:
        value = values[metric.name]
        print(f"{metric.name} = {value:.6g} {metric.unit}")
        metrics[metric.name] = {"value": value, "unit": metric.unit}
    if args.trace:
        out = ROOT / ".rulebench"
        out.mkdir(exist_ok=True)
        spans = {name: vars(stats) for name, stats in sorted(result.spans.items())}
        path = out / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"host": host, "spans": spans, "metrics": metrics}, indent=1))
        print(f"spans written to {os.path.relpath(path)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
