"""Correctness oracle: the rules each checked tuple fired, against
``RuleEngine(matcher="sequential")`` over the same rules.

The sequential matcher tests every predicate against every tuple
(the paper's Section 2.1 baseline), so it shares no index code with the
``ibs`` matcher under test.  The oracle engine replays the rule writes
of ``rule-churn`` in step order, so each tuple is checked against the
rule set that was live when it was inserted.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence, Tuple

from repro import Database, RuleEngine

from .workloads import ATTRIBUTES, FUNCTIONS, RELATION, Inputs

__all__ = ["check"]


def _ignore(context: object) -> None:
    return None


def check(
    inputs: Inputs,
    checked: Sequence[Tuple[int, int]],
    watch: Dict[int, List[str]],
    tid_base: int,
) -> List[str]:
    """Describe every checked tuple whose fired rules differ from the oracle's.

    *checked* holds ``(stream position, churn step)`` pairs; *watch*
    maps ``tid_base + position`` to the rule names fired for that tuple.
    A rule fired twice for one tuple is a mismatch too.
    """
    db = Database()
    db.create_relation(RELATION, ATTRIBUTES)
    oracle = RuleEngine(db, matcher="sequential", functions=FUNCTIONS)
    for spec in inputs.rules:
        oracle.create_rule(spec.name, RELATION, spec.condition, _ignore)
    applied = 0
    mismatches = []
    for position, step in sorted(checked, key=lambda pair: pair[1]):
        # the rule writes of a step precede its batch
        while inputs.churn and applied <= step:
            ops = inputs.churn[applied]
            for name in ops.drops:
                oracle.drop_rule(name)
            for spec in ops.creates:
                oracle.create_rule(spec.name, RELATION, spec.condition, _ignore)
            applied += 1
        tup = inputs.tuple_at(position)
        expected = {rule.name for rule in oracle.match_tuple(RELATION, tup)}
        fired = Counter(watch.get(tid_base + position, ()))
        repeated = sorted(name for name, times in fired.items() if times > 1)
        if set(fired) != expected or repeated:
            mismatches.append(
                f"position {position}: missing {sorted(expected - set(fired))}, "
                f"unexpected {sorted(set(fired) - expected)}, fired twice {repeated}"
            )
    return mismatches
