"""Batched matching: ``match_batch`` and per-tuple ``match`` against an oracle.

Both entry points run one scalar loop: the batch shares index probes
(one grouped stab per distinct value per attribute) and both skip the
entry clause the stab already proved.  Comparing one path with the
other would therefore pass even if the shared loop were wrong, so every
test here computes its expected rows independently, from
``Predicate.matches`` over every registered predicate — including for
the values the grouped stab cannot take (NaN, the infinity sentinels,
unhashable values) and for ``None``-valued or missing attributes, with
multi-clause indexing and the stab cache on.
"""

import functools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    AbortMutation,
    BatchEvent,
    CollectAction,
    Database,
    EqualityClause,
    FlatIBSTree,
    FunctionClause,
    IBSTree,
    Interval,
    IntervalClause,
    MINUS_INF,
    PLUS_INF,
    Predicate,
    PredicateIndex,
    RuleEngine,
)
from repro.match.registry import DEFAULT_REGISTRY


def is_odd(x):
    return isinstance(x, int) and x % 2 == 1


BACKENDS = {"ibs": IBSTree, "flat": FlatIBSTree}
#: every registered tree backend a ``PredicateIndex`` can host (the
#: static ones cannot take incremental inserts)
HOSTABLE_BACKENDS = [
    name
    for name in DEFAULT_REGISTRY.tree_backends()
    if DEFAULT_REGISTRY.describe_backend(name)["supports_dynamic_insert"]
]
ATTRS = ["a", "b", "c"]
NAN = float("nan")
#: index options every oracle test runs under
OPTIONS = {
    "single": {},
    "multi-clause": {"multi_clause": True},
    "stab-cache": {"stab_cache_size": 16},
}


@functools.total_ordering
class UnhashablePoint:
    """Comparable with ints but not hashable — defeats value grouping."""

    __hash__ = None

    def __init__(self, v):
        self.v = v

    def _key(self, other):
        return other.v if isinstance(other, UnhashablePoint) else other

    def __eq__(self, other):
        return self.v == self._key(other)

    def __lt__(self, other):
        return self.v < self._key(other)


def build_predicates(rng, count):
    predicates = []
    while len(predicates) < count:
        clauses = []
        for _ in range(rng.randint(1, 3)):
            attr = rng.choice(ATTRS)
            kind = rng.random()
            if kind < 0.25:
                clauses.append(EqualityClause(attr, rng.randint(0, 20)))
            elif kind < 0.55:
                lo = rng.randint(0, 15)
                hi = lo + rng.randint(0, 8)
                if lo == hi:
                    interval = Interval.closed(lo, hi)
                else:
                    interval = Interval(
                        lo, hi, rng.random() < 0.8, rng.random() < 0.8
                    )
                clauses.append(IntervalClause(attr, interval))
            elif kind < 0.7:
                clauses.append(
                    IntervalClause(attr, Interval.at_least(rng.randint(0, 20)))
                )
            elif kind < 0.85:
                clauses.append(
                    IntervalClause(attr, Interval.at_most(rng.randint(0, 20)))
                )
            else:
                clauses.append(FunctionClause(attr, is_odd, name="is_odd"))
        pred = Predicate("r", clauses).normalized()
        if pred is not None:
            predicates.append(pred)
    return predicates


def edge_value(rng):
    """A value the grouped stab cannot take, a NULL, or a missing key."""
    return rng.choice(
        [NAN, MINUS_INF, PLUS_INF, None, "missing", UnhashablePoint(rng.randint(0, 22))]
    )


def random_batch(rng, size, duplicate_heavy=False, edges=False):
    def one():
        tup = {attr: rng.randint(0, 22) for attr in ATTRS}
        if edges:
            for attr in ATTRS:
                if rng.random() < 0.3:
                    value = edge_value(rng)
                    if value == "missing":
                        del tup[attr]
                    else:
                        tup[attr] = value
        return tup

    if duplicate_heavy:
        pool = [one() for _ in range(max(1, size // 4))]
        return [dict(rng.choice(pool)) for _ in range(size)]
    return [one() for _ in range(size)]


def ident_rows(rows):
    return [{pred.ident for pred in row} for row in rows]


def oracle_rows(index, batch):
    """Expected ident sets: ``Predicate.matches`` over every registered
    predicate of relation ``r``, no index involved."""
    predicates = index.predicates_for("r")
    return [{p.ident for p in predicates if p.matches(tup)} for tup in batch]


def assert_both_paths_match_oracle(index, batch):
    expected = oracle_rows(index, batch)
    assert ident_rows(index.match_batch("r", batch)) == expected
    assert [index.match_idents("r", tup) for tup in batch] == expected
    return expected


class TestDifferential:
    """match_batch and per-tuple match equal the oracle in every mode."""

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("multi_clause", [False, True])
    @pytest.mark.parametrize("stab_cache_size", [0, 16])
    @pytest.mark.parametrize("edges", [False, True], ids=["ints", "edges"])
    @pytest.mark.parametrize("seed", range(4))
    def test_randomized(self, backend, multi_clause, stab_cache_size, edges, seed):
        rng = random.Random(seed)
        predicates = build_predicates(rng, 40)
        index = PredicateIndex(
            tree_factory=BACKENDS[backend],
            multi_clause=multi_clause,
            stab_cache_size=stab_cache_size,
        )
        for pred in predicates:
            index.add(pred)
        for trial in range(6):
            batch = random_batch(
                rng, 25, duplicate_heavy=trial % 2 == 0, edges=edges
            )
            assert_both_paths_match_oracle(index, batch)
        # removal keeps the compiled-residual table consistent
        for pred in predicates[::3]:
            index.remove(pred.ident)
        assert_both_paths_match_oracle(index, random_batch(rng, 20, edges=edges))

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("options", list(OPTIONS.values()), ids=list(OPTIONS))
    @settings(max_examples=40, deadline=None)
    @given(
        batch=st.lists(
            st.fixed_dictionaries(
                {},
                optional={
                    attr: st.one_of(
                        st.integers(min_value=-2, max_value=25),
                        st.sampled_from([NAN, MINUS_INF, PLUS_INF, None]),
                        st.builds(UnhashablePoint, st.integers(-2, 25)),
                    )
                    for attr in ATTRS
                },
            ),
            max_size=20,
        )
    )
    def test_hypothesis_batches(self, backend, options, batch):
        index = PredicateIndex(tree_factory=BACKENDS[backend], **options)
        for pred in build_predicates(random.Random(99), 30):
            index.add(pred)
        assert_both_paths_match_oracle(index, batch)

    @pytest.mark.parametrize("options", list(OPTIONS.values()), ids=list(OPTIONS))
    def test_missing_attributes_treated_as_per_tuple(self, options):
        index = PredicateIndex(**options)
        for pred in build_predicates(random.Random(5), 25):
            index.add(pred)
        assert_both_paths_match_oracle(index, [{"a": 3}, {"b": 7, "c": 2}, {}])

    @pytest.mark.parametrize("options", list(OPTIONS.values()), ids=list(OPTIONS))
    def test_pickled_index_matches_oracle(self, options):
        """Compiled residuals are closures: a pickled index (the process
        pool ships frozen ones to its workers) recompiles them on load."""
        rng = random.Random(7)
        index = PredicateIndex(**options)
        index.add_many(build_predicates(rng, 40))
        index.freeze()
        clone = pickle.loads(pickle.dumps(index))
        batch = random_batch(rng, 30, edges=True)
        assert_both_paths_match_oracle(clone, batch)


class TestFallbacks:
    """Values the grouped stab cannot take stay exact."""

    @pytest.mark.parametrize("options", list(OPTIONS.values()), ids=list(OPTIONS))
    def test_unhashable_value_falls_back(self, options):
        index = PredicateIndex(**options)
        index.add(Predicate("r", [IntervalClause("a", Interval.closed(0, 10))]))
        index.add(Predicate("r", [IntervalClause("a", Interval.closed(20, 30))]))
        batch = [{"a": UnhashablePoint(5)}, {"a": 25}, {"a": 99}]
        expected = assert_both_paths_match_oracle(index, batch)
        assert expected[0] and expected[1] and not expected[2]

    @pytest.mark.parametrize("backend", HOSTABLE_BACKENDS)
    @pytest.mark.parametrize("options", list(OPTIONS.values()), ids=list(OPTIONS))
    @pytest.mark.parametrize(
        "value", [MINUS_INF, PLUS_INF, NAN], ids=["minus-inf", "plus-inf", "nan"]
    )
    def test_sentinel_value_falls_back(self, backend, options, value):
        index = PredicateIndex(
            tree_factory=DEFAULT_REGISTRY.tree_factory(backend), **options
        )
        index.add(Predicate("r", [IntervalClause("a", Interval.closed(0, 10))]))
        index.add(Predicate("r", [IntervalClause("a", Interval.at_most(50))]))
        index.add(Predicate("r", [IntervalClause("a", Interval.at_least(20))]))
        index.add(
            Predicate(
                "r",
                [
                    IntervalClause("a", Interval.at_least(5)),
                    IntervalClause("b", Interval.closed(0, 3)),
                ],
            )
        )
        batch = [{"a": value}, {"a": value, "b": 1}, {"a": 5}, {"a": 40}]
        expected = assert_both_paths_match_oracle(index, batch)
        # the sentinels lie in no interval; NaN lies in every one
        # (Interval.contains is rejection-style)
        assert bool(expected[1]) == (value is NAN)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_one_adversarial_tuple_does_not_degrade_the_batch(self, backend):
        """Unbatchable values are handled per *tuple*, not per batch.

        The batch still reports one batch route event, and the logical
        counters stay path-independent.
        """
        def loaded():
            index = PredicateIndex(tree_factory=BACKENDS[backend])
            index.add(
                Predicate("r", [IntervalClause("a", Interval.closed(0, 10))], ident=1)
            )
            index.add(
                Predicate("r", [IntervalClause("b", Interval.at_most(5))], ident=2)
            )
            return index

        batch = [
            {"a": UnhashablePoint(5), "b": 3},
            {"a": 5, "b": 100},
            {"a": MINUS_INF},
            {"a": NAN, "b": 4},
            {"a": 7},
            {"b": None},
        ]
        serial = loaded()
        expected = oracle_rows(serial, batch)
        assert [serial.match_idents("r", tup) for tup in batch] == expected
        batched = loaded()
        assert ident_rows(batched.match_batch("r", batch)) == expected
        assert batched.stats.batches_matched == 1
        assert serial.stats.logical_counts() == batched.stats.logical_counts()

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_none_valued_equals_missing_key(self, backend):
        """The NULL rule: a ``None``-valued attribute behaves exactly
        like a missing key on the per-tuple and the batched path, for
        results and for logical counters alike."""
        def loaded():
            index = PredicateIndex(tree_factory=BACKENDS[backend])
            index.add(
                Predicate("r", [IntervalClause("a", Interval.closed(0, 10))], ident=1)
            )
            index.add(
                Predicate(
                    "r", [FunctionClause("a", is_odd, negated=True)], ident=2
                )
            )
            return index

        null_batch = [{"a": None, "b": 1}, {"a": None}]
        missing_batch = [{"b": 1}, {}]
        runs = {}
        for name, batch in (("null", null_batch), ("missing", missing_batch)):
            serial = loaded()
            per_tuple = [serial.match_idents("r", tup) for tup in batch]
            batched = loaded()
            rows = ident_rows(batched.match_batch("r", batch))
            assert rows == per_tuple == oracle_rows(batched, batch)
            assert serial.stats.logical_counts() == batched.stats.logical_counts()
            runs[name] = (rows, batched.stats.logical_counts())
        assert runs["null"] == runs["missing"]

    def test_stab_many_null_rule(self):
        """``stab_many`` maps ``None`` to ``None`` on every tree shape —
        including the empty tree, where a descent-based answer would
        accidentally return the empty set — matching the pipeline's
        pre-probe NULL skip."""
        from repro.baselines import IntervalList

        for factory in (IBSTree, FlatIBSTree, IntervalList):
            empty = factory()
            assert empty.stab_many([None]) == {None: None}
            loaded = factory()
            loaded.insert(Interval.closed(0, 10), "i")
            table = loaded.stab_many([None, 5, 99])
            assert table[None] is None
            assert table[5] == {"i"}
            assert table[99] == set()

    def test_unknown_relation_and_empty_batch(self):
        index = PredicateIndex()
        assert index.match_batch("nowhere", [{"a": 1}, {"a": 2}]) == [[], []]
        assert index.match_batch("nowhere", []) == []


class TestDuplicateBatches:
    """Residuals on duplicate-heavy batches are evaluated per tuple."""

    def test_interval_residual_on_duplicates(self):
        index = PredicateIndex()
        index.add(
            Predicate(
                "r",
                [
                    EqualityClause("a", 1),  # entry clause (most selective)
                    IntervalClause("b", Interval.at_most(50)),  # open residual
                ],
            )
        )
        batch = [{"a": 1, "b": 2}] * 4 + [{"a": 1, "b": 60}]
        expected = assert_both_paths_match_oracle(index, batch)
        assert [len(row) for row in expected] == [1, 1, 1, 1, 0]

    def test_function_residual_on_duplicates(self):
        index = PredicateIndex()
        index.add(
            Predicate(
                "r",
                [EqualityClause("a", 1), FunctionClause("b", is_odd, name="is_odd")],
            )
        )
        batch = [{"a": 1, "b": 3}] * 4 + [{"a": 1, "b": 4}]
        expected = assert_both_paths_match_oracle(index, batch)
        assert [len(row) for row in expected] == [1, 1, 1, 1, 0]

    def test_equal_but_distinct_types_stay_correct(self):
        """2 == 2.0, but a type-sensitive function tells them apart."""
        index = PredicateIndex()
        index.add(
            Predicate(
                "r",
                [
                    EqualityClause("a", 1),
                    FunctionClause("b", lambda v: isinstance(v, int), name="is_int"),
                ],
            )
        )
        batch = [{"a": 1, "b": 2}, {"a": 1, "b": 2.0}] * 3
        expected = assert_both_paths_match_oracle(index, batch)
        assert expected[0] and not expected[1]


class TestStatistics:
    def test_batch_counters(self):
        index = PredicateIndex()
        for pred in build_predicates(random.Random(3), 20):
            index.add(pred)
        index.stats.reset()
        batch = random_batch(random.Random(4), 10)
        index.match_batch("r", batch)
        assert index.stats.batches_matched == 1
        assert index.stats.tuples_matched == 10
        assert index.stats.full_matches == sum(
            len(index.match("r", tup)) for tup in batch
        )


def make_db():
    db = Database()
    db.create_relation("emp", ["name", "age", "salary"])
    return db


ROWS = [
    {"name": "A", "age": 30, "salary": 15},
    {"name": "B", "age": 40, "salary": 25},
    {"name": "C", "age": 50, "salary": 12},
]


def make_engine(db, matcher="ibs"):
    collect = CollectAction()
    engine = RuleEngine(db, matcher=matcher)
    engine.create_rule(
        "mid_salary",
        on="emp",
        condition="salary >= 10 and salary <= 20",
        action=collect,
        on_events=("insert", "update"),
    )
    engine.create_rule(
        "senior",
        on="emp",
        condition="age >= 40",
        action=collect,
        on_events=("insert", "update"),
    )
    return engine, collect


def records(collect):
    return sorted((name, tuple(sorted(tup.items()))) for name, tup in collect.records)


class TestBulkMutationsThroughEngine:
    """bulk_insert / bulk_update fire one BatchEvent, same rule firings."""

    @pytest.mark.parametrize(
        "matcher", ["ibs", PredicateIndex(tree_factory=FlatIBSTree)]
    )
    def test_bulk_insert_equals_per_tuple_inserts(self, matcher):
        db_one, db_bulk = make_db(), make_db()
        _, collect_one = make_engine(db_one)
        _, collect_bulk = make_engine(db_bulk, matcher=matcher)
        for row in ROWS:
            db_one.insert("emp", dict(row))
        db_bulk.bulk_insert("emp", [dict(row) for row in ROWS])
        assert records(collect_bulk) == records(collect_one)
        assert db_bulk.count("emp") == len(ROWS)

    def test_bulk_update_equals_per_tuple_updates(self):
        db_one, db_bulk = make_db(), make_db()
        tids_one = [db_one.insert("emp", dict(row)) for row in ROWS]
        tids_bulk = db_bulk.bulk_insert("emp", [dict(row) for row in ROWS])
        _, collect_one = make_engine(db_one)
        _, collect_bulk = make_engine(db_bulk)
        for tid in tids_one:
            db_one.update("emp", tid, {"salary": 18})
        db_bulk.bulk_update("emp", {tid: {"salary": 18} for tid in tids_bulk})
        assert records(collect_bulk) == records(collect_one)

    def test_bulk_insert_is_one_batch_event(self):
        db = make_db()
        seen = []
        db.subscribe(seen.append)
        db.bulk_insert("emp", [dict(row) for row in ROWS])
        assert len(seen) == 1
        (event,) = seen
        assert isinstance(event, BatchEvent)
        assert event.kind == "batch" and len(event) == len(ROWS)
        assert [sub.kind for sub in event] == ["insert"] * len(ROWS)

    def test_bulk_insert_veto_rolls_back_whole_batch(self):
        db = make_db()

        def veto(event):
            if isinstance(event, BatchEvent):
                raise AbortMutation("no batches today")

        db.subscribe(veto)
        with pytest.raises(AbortMutation):
            db.bulk_insert("emp", [dict(row) for row in ROWS])
        assert db.count("emp") == 0

    def test_bulk_update_missing_tid_rolls_back(self):
        db = make_db()
        tids = db.bulk_insert("emp", [dict(row) for row in ROWS])
        with pytest.raises(Exception):
            db.bulk_update("emp", {tids[0]: {"salary": 99}, 10_000: {"salary": 1}})
        assert db.relation("emp").get(tids[0])["salary"] == ROWS[0]["salary"]
