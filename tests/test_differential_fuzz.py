"""Differential fuzzing: every registered matcher against brute force.

Random schemas, random conditions (using every clause shape the
language supports), and random mutation scripts, replayed against the
full rule engine under each matcher strategy.  The brute-force oracle
recomputes matches per event by direct evaluation.  Any divergence —
between strategies, or from the oracle — fails.
"""

import random
from typing import Dict, List, Tuple

import pytest

from repro import CollectAction, Database, RuleEngine
from repro.lang import compile_condition
from repro.match.registry import DEFAULT_REGISTRY

STRATEGIES = DEFAULT_REGISTRY.matchers()
FNS = {"isodd": lambda x: x % 2 == 1}
DEPTS = ["Shoe", "Toy", "Food", "Garden"]


def random_condition(rng: random.Random) -> str:
    """One random condition using the full clause vocabulary."""
    def atom() -> str:
        kind = rng.random()
        if kind < 0.2:
            return f"a {rng.choice(['<', '<=', '>', '>='])} {rng.randint(0, 30)}"
        if kind < 0.4:
            lo = rng.randint(0, 20)
            return f"{lo} <= b <= {lo + rng.randint(0, 10)}"
        if kind < 0.55:
            return f'dept = "{rng.choice(DEPTS)}"'
        if kind < 0.65:
            return f"a <> {rng.randint(0, 30)}"
        if kind < 0.75:
            return "isodd(b)"
        if kind < 0.85:
            prefix = rng.choice(["S", "T", "F", "G"])
            return f'dept like "{prefix}%"'
        return f'dept in ("{rng.choice(DEPTS)}", "{rng.choice(DEPTS)}")'

    parts = [atom() for _ in range(rng.randint(1, 3))]
    joiner = " and " if rng.random() < 0.7 else " or "
    body = joiner.join(parts)
    if rng.random() < 0.2:
        body = f"not ({body})"
    return body


def random_script(rng: random.Random, length: int) -> List[Tuple]:
    ops = []
    for _ in range(length):
        roll = rng.random()
        tup = {
            "a": rng.randint(0, 30),
            "b": rng.randint(0, 30),
            "dept": rng.choice(DEPTS),
        }
        if roll < 0.6:
            ops.append(("insert", tup))
        elif roll < 0.85:
            ops.append(("update", tup))
        else:
            ops.append(("delete", None))
    return ops


def build_matcher(strategy: str, tmp_path):
    """A fresh matcher; the disk tiers keep their segments in *tmp_path*."""
    if strategy.startswith("disk"):
        return DEFAULT_REGISTRY.create_matcher(
            strategy, data_dir=str(tmp_path / strategy)
        )
    return DEFAULT_REGISTRY.create_matcher(strategy)


@pytest.mark.parametrize("seed", range(6))
def test_differential_matchers(seed, tmp_path):
    rng = random.Random(seed)
    conditions = []
    while len(conditions) < 8:
        text = random_condition(rng)
        # skip conditions that can never match (engine rejects them)
        compiled = compile_condition("r", text, FNS)
        if not compiled.group.is_empty:
            conditions.append(text)
    script = random_script(rng, 60)

    transcripts: Dict[str, List] = {}
    for strategy in STRATEGIES:
        db = Database()
        db.create_relation("r", ["a", "b", "dept"])
        collect = CollectAction()
        matcher = build_matcher(strategy, tmp_path)
        engine = RuleEngine(db, matcher=matcher, functions=FNS)
        for index, text in enumerate(conditions):
            engine.create_rule(
                f"rule{index}", on="r", condition=text, action=collect,
                on_events=("insert", "update"),
            )
        live: List[int] = []
        step_rng = random.Random(seed + 999)
        for op, tup in script:
            if op == "insert":
                live.append(db.insert("r", dict(tup)))
            elif op == "update" and live:
                db.update("r", step_rng.choice(live), dict(tup))
            elif op == "delete" and live:
                tid = live.pop(step_rng.randrange(len(live)))
                db.delete("r", tid)
        transcripts[strategy] = [
            (name, tuple(sorted(tup.items()))) for name, tup in collect.records
        ]

    # oracle: replay with direct evaluation
    compiled = [
        (f"rule{index}", compile_condition("r", text, FNS))
        for index, text in enumerate(conditions)
    ]
    oracle: List = []
    store: Dict[int, Dict] = {}
    live = []
    next_tid = 1
    step_rng = random.Random(seed + 999)
    for op, tup in script:
        if op == "insert":
            tid = next_tid
            next_tid += 1
            image = {"a": tup["a"], "b": tup["b"], "dept": tup["dept"]}
            store[tid] = image
            live.append(tid)
        elif op == "update" and live:
            tid = step_rng.choice(live)
            image = dict(tup)
            store[tid] = image
        elif op == "delete" and live:
            tid = live.pop(step_rng.randrange(len(live)))
            del store[tid]
            continue
        else:
            continue
        for name, condition in compiled:
            if condition.matches(image):
                oracle.append((name, tuple(sorted(image.items()))))

    expected = sorted(oracle)
    assert sorted(transcripts["sequential"]) == expected
    for strategy, transcript in transcripts.items():
        assert sorted(transcript) == expected, (
            f"strategy {strategy!r} diverged on seed {seed}"
        )
