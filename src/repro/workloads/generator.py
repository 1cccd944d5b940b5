"""Workload generators reproducing the paper's experimental setup.

Section 5.2 of the paper describes the micro-benchmark workload::

    A series of IBS trees were created which contained N predicates for
    N between 0 and 1,000.  A fraction a of predicates were simple
    points of the form attribute = constant, and the remaining fraction
    1 - a were closed intervals.  The points and interval boundaries
    were drawn randomly from a uniform distribution of integers between
    1 and 10,000.  The length of the intervals was drawn randomly from
    a uniform distribution of integers between 1 and 1,000.

:class:`IntervalWorkload` generates exactly that, plus the query points
(uniform over the same domain).  :class:`ScenarioWorkload` generates
the full-index scenario of the Section 5.2 cost analysis: relations
with 15 attributes, a third of them carrying predicate clauses, 90 %
indexable predicates, two clauses per predicate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.intervals import Interval
from ..errors import WorkloadError
from ..predicates.clauses import (
    EqualityClause,
    FunctionClause,
    IntervalClause,
)
from ..predicates.predicate import Predicate

__all__ = [
    "IntervalWorkload",
    "ScenarioConfig",
    "ScenarioWorkload",
    "non_indexable_probe",
]


def non_indexable_probe(value: Any) -> bool:
    """The opaque function used for generated non-indexable clauses.

    Mirrors the paper's ``IsOdd`` example: cheap, deterministic, and
    opaque to the indexing layer.
    """
    return value % 2 == 1


class IntervalWorkload:
    """The Figures 7–9 micro-workload: points and closed intervals.

    Parameters mirror the paper: *point_fraction* is the ``a``
    parameter; values are uniform integers on
    ``[value_low, value_high]`` and interval lengths uniform integers
    on ``[length_low, length_high]``.
    """

    def __init__(
        self,
        point_fraction: float = 0.5,
        value_low: int = 1,
        value_high: int = 10_000,
        length_low: int = 1,
        length_high: int = 1_000,
        seed: Optional[int] = None,
    ):
        if not 0.0 <= point_fraction <= 1.0:
            raise WorkloadError(f"point_fraction must be in [0, 1], got {point_fraction}")
        if value_low > value_high:
            raise WorkloadError("value_low exceeds value_high")
        if length_low > length_high:
            raise WorkloadError("length_low exceeds length_high")
        self.point_fraction = point_fraction
        self.value_low = value_low
        self.value_high = value_high
        self.length_low = length_low
        self.length_high = length_high
        self._rng = random.Random(seed)

    def interval(self) -> Interval:
        """One random predicate interval (point with probability ``a``)."""
        rng = self._rng
        start = rng.randint(self.value_low, self.value_high)
        if rng.random() < self.point_fraction:
            return Interval.point(start)
        length = rng.randint(self.length_low, self.length_high)
        return Interval.closed(start, start + length)

    def intervals(self, n: int) -> List[Interval]:
        """A list of *n* random intervals."""
        return [self.interval() for _ in range(n)]

    def disjoint_intervals(self, n: int, gap: int = 2) -> List[Interval]:
        """*n* pairwise-disjoint closed intervals (for the SPACE experiment).

        Lengths follow the configured distribution; consecutive
        intervals are separated by at least *gap*.  The returned list
        is shuffled so inserting it in order keeps an unbalanced tree
        balanced (sorted insertion would degenerate it to a path —
        that adversarial case is exercised separately by ABL2).
        """
        rng = self._rng
        intervals: List[Interval] = []
        cursor = self.value_low
        for _ in range(n):
            length = rng.randint(self.length_low, self.length_high)
            intervals.append(Interval.closed(cursor, cursor + length))
            cursor += length + gap
        rng.shuffle(intervals)
        return intervals

    def query_point(self) -> int:
        """One random query value, uniform over the value domain."""
        return self._rng.randint(self.value_low, self.value_high)

    def query_points(self, n: int) -> List[int]:
        """A list of *n* random query values."""
        return [self.query_point() for _ in range(n)]

    def predicates(
        self, n: int, relation: str = "r", attribute: str = "attr"
    ) -> List[Predicate]:
        """The same workload wrapped as single-clause predicates."""
        result: List[Predicate] = []
        for interval in self.intervals(n):
            if interval.is_point:
                clause = EqualityClause(attribute, interval.low)
            else:
                clause = IntervalClause(attribute, interval)
            result.append(Predicate(relation, [clause]))
        return result


@dataclass
class ScenarioConfig:
    """Parameters of the Section 5.2 full-index scenario.

    Defaults are the paper's stated assumptions:

    * 15 attributes per relation;
    * one third of the attributes carry one or more predicate clauses;
    * 90 % of predicates are indexable;
    * 2 clauses per predicate;
    * 200 predicates per relation;
    * clause selectivity around 0.1 (each clause matches ~10 % of the
      value domain).
    """

    relations: int = 1
    attributes_per_relation: int = 15
    predicate_attr_fraction: float = 1.0 / 3.0
    predicates_per_relation: int = 200
    clauses_per_predicate: int = 2
    indexable_fraction: float = 0.9
    clause_selectivity: float = 0.1
    value_low: int = 1
    value_high: int = 10_000
    tuple_null_fraction: float = 0.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.relations < 1:
            raise WorkloadError("need at least one relation")
        if not 0 < self.predicate_attr_fraction <= 1:
            raise WorkloadError("predicate_attr_fraction must be in (0, 1]")
        if not 0 <= self.indexable_fraction <= 1:
            raise WorkloadError("indexable_fraction must be in [0, 1]")
        if self.clauses_per_predicate < 1:
            raise WorkloadError("need at least one clause per predicate")
        if not 0 < self.clause_selectivity <= 1:
            raise WorkloadError("clause_selectivity must be in (0, 1]")


class ScenarioWorkload:
    """End-to-end workload: relations, predicates, and tuple streams.

    Used by the COST and MATCHER-SCALING experiments.  Relations are named
    ``r0 .. r<k>``; attributes ``a0 .. a14``.  Predicates restrict
    attributes drawn from the designated "predicate attributes" of
    their relation, with interval widths set so each clause matches
    about ``clause_selectivity`` of the uniform value domain.
    """

    def __init__(self, config: Optional[ScenarioConfig] = None):
        self.config = config or ScenarioConfig()
        self._rng = random.Random(self.config.seed)
        cfg = self.config
        self.relation_names = [f"r{k}" for k in range(cfg.relations)]
        self.attribute_names = [f"a{k}" for k in range(cfg.attributes_per_relation)]
        n_predicate_attrs = max(
            1, round(cfg.attributes_per_relation * cfg.predicate_attr_fraction)
        )
        self.predicate_attributes = self.attribute_names[:n_predicate_attrs]

    # -- predicates ------------------------------------------------------

    def predicate(self, relation: str) -> Predicate:
        """One random conjunctive predicate for *relation*."""
        cfg = self.config
        rng = self._rng
        indexable = rng.random() < cfg.indexable_fraction
        attrs = rng.sample(
            self.predicate_attributes,
            k=min(cfg.clauses_per_predicate, len(self.predicate_attributes)),
        )
        clauses = []
        for position, attr in enumerate(attrs):
            if not indexable:
                clauses.append(
                    FunctionClause(attr, non_indexable_probe, name="is_odd")
                )
                continue
            clauses.append(self._interval_clause(attr))
        return Predicate(relation, clauses)

    def _interval_clause(self, attr: str) -> IntervalClause:
        cfg = self.config
        rng = self._rng
        domain_span = cfg.value_high - cfg.value_low + 1
        width = max(1, round(domain_span * cfg.clause_selectivity))
        if width == 1:
            return EqualityClause(attr, rng.randint(cfg.value_low, cfg.value_high))
        start = rng.randint(cfg.value_low, cfg.value_high)
        return IntervalClause(attr, Interval.closed(start, start + width - 1))

    def predicates(self) -> Dict[str, List[Predicate]]:
        """All predicates, keyed by relation."""
        return {
            relation: [
                self.predicate(relation)
                for _ in range(self.config.predicates_per_relation)
            ]
            for relation in self.relation_names
        }

    # -- tuples ------------------------------------------------------------

    def tuple(self) -> Dict[str, Any]:
        """One random tuple over the attribute schema."""
        cfg = self.config
        rng = self._rng
        tup: Dict[str, Any] = {}
        for attr in self.attribute_names:
            if cfg.tuple_null_fraction and rng.random() < cfg.tuple_null_fraction:
                tup[attr] = None
            else:
                tup[attr] = rng.randint(cfg.value_low, cfg.value_high)
        return tup

    def tuples(self, n: int) -> List[Dict[str, Any]]:
        """A list of *n* random tuples."""
        return [self.tuple() for _ in range(n)]

    def events(self, n: int) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """A stream of ``(relation, tuple)`` insert events."""
        rng = self._rng
        for _ in range(n):
            yield rng.choice(self.relation_names), self.tuple()
