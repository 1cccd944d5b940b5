"""``PredicateIndex.rebalance()``: rebuild only the degenerate trees.

The paper's IBS-tree is unbalanced (Section 4.2): inserting predicates
in sorted order degrades it to a list.  ``rebalance()`` bulk-loads a
tree again when ``height > 4 * node_count.bit_length()``.  These tests
pin the one invariant that matters — **match answers are identical
before and after a rebuild**, against the sequential-search oracle, on
the scalar, batched and columnar paths — plus the transaction around
the rebuild: a failure before the commit leaves the old tree live, and
a commit keeps epochs, the stab cache and the columnar plane coherent.
"""

import random

import pytest

from repro import PredicateIndex
from repro.errors import InjectedFault, PredicateError
from repro.maintenance import MaintenancePolicy
from repro.match.catalog import rebuild_attribute_tree
from repro.match.observer import MatchObserver
from repro.match.registry import DEFAULT_REGISTRY
from repro.predicates import PredicateBuilder
from repro.testing.faults import FaultInjector, injected

N = 200
PROBES = [
    {"a": v, "b": w}
    for v, w in ((4, 3), (15, 150), (108, 1), (255, 999), (1996, 17), (-5, 40))
] + [{"a": 9999}, {"a": None, "b": 33}, {}]


def sorted_predicates(n=N):
    """Predicates whose entry intervals arrive in ascending order."""
    return [
        PredicateBuilder("r").between("a", i * 10, i * 10 + 8).build(ident=f"p{i}")
        for i in range(n)
    ]


def random_predicates(seed, n=N):
    rng = random.Random(seed)
    predicates = []
    for i in range(n):
        a = rng.uniform(0, 2000)
        b = rng.uniform(0, 1000)
        builder = PredicateBuilder("r").between("a", a, a + rng.uniform(1, 50))
        if rng.random() < 0.5:
            builder = builder.between("b", b, b + rng.uniform(1, 100))
        predicates.append(builder.build(ident=f"q{i}"))
    return predicates


def oracle_answers(predicates, probes=PROBES):
    oracle = DEFAULT_REGISTRY.create_matcher("sequential")
    for predicate in predicates:
        oracle.add(predicate)
    return [sorted(p.ident for p in oracle.match("r", tup)) for tup in probes]


def answers(index, probes=PROBES):
    return [sorted(p.ident for p in index.match("r", tup)) for tup in probes]


def batch_answers(index, probes=PROBES):
    return [sorted(p.ident for p in row) for row in index.match_batch("r", probes)]


def within_bound(tree):
    return tree.height <= 4 * tree.node_count.bit_length()


def build(predicates, **kwargs):
    index = PredicateIndex(**kwargs)
    for predicate in predicates:
        index.add(predicate)  # one by one: arrival order shapes the tree
    return index


BACKENDS = ["ibs", "avl", "rb", "flat", "disk"]


def index_for(backend, tmp_path, predicates, **kwargs):
    if backend == "disk":
        return build(predicates, storage="disk", data_dir=str(tmp_path), **kwargs)
    return build(predicates, tree_factory=backend, **kwargs)


class TestSortedInsertion:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_answers_equal_sequential_before_and_after(self, backend, tmp_path):
        predicates = sorted_predicates()
        expected = oracle_answers(predicates)
        index = index_for(backend, tmp_path, predicates)
        assert answers(index) == expected
        assert batch_answers(index) == expected
        rebuilt = index.rebalance()
        assert answers(index) == expected
        assert batch_answers(index) == expected
        for tree in index._catalog.relations["r"].trees.values():
            assert within_bound(tree), (backend, tree.height, tree.node_count)
        assert index.stats.tree_rebuilds == len(rebuilt)

    @pytest.mark.parametrize("backend", ["ibs", "flat", "disk"])
    def test_unbalanced_backends_degenerate_and_get_rebuilt(self, backend, tmp_path):
        index = index_for(backend, tmp_path, sorted_predicates())
        assert not within_bound(index.tree_for("r", "a"))
        assert index.rebalance() == [("r", "a")]
        assert index.rebalance() == []  # the rebuilt tree is healthy

    @pytest.mark.parametrize("backend", ["avl", "rb"])
    def test_balanced_backends_are_never_rebuilt(self, backend, tmp_path):
        index = index_for(backend, tmp_path, sorted_predicates())
        assert index.rebalance() == []

    def test_multi_clause_rebuild_keeps_every_entry(self):
        predicates = [
            PredicateBuilder("r")
            .between("a", i * 10, i * 10 + 8)
            .between("b", i, i + 30)
            .build(ident=f"m{i}")
            for i in range(N)
        ]
        expected = oracle_answers(predicates)
        index = build(predicates, multi_clause=True)
        assert sorted(index.rebalance()) == [("r", "a"), ("r", "b")]
        assert answers(index) == expected
        assert batch_answers(index) == expected

    def test_relation_argument_limits_the_pass(self):
        index = build(sorted_predicates())
        for i in range(N):
            index.add(
                PredicateBuilder("s").between("a", i, i + 1).build(ident=f"s{i}")
            )
        assert index.rebalance("s") == [("s", "a")]
        assert index.rebalance("no-such-relation") == []
        assert index.rebalance() == [("r", "a")]


class TestRandomOrder:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_healthy_trees_are_left_alone(self, seed):
        predicates = random_predicates(seed)
        index = build(predicates)
        trees = dict(index._catalog.relations["r"].trees)
        version = index._catalog.relations["r"].version
        assert index.rebalance() == []
        assert index._catalog.relations["r"].trees == trees
        for attribute, tree in trees.items():
            assert index.tree_for("r", attribute) is tree
        assert index._catalog.relations["r"].version == version
        assert index.stats.tree_rebuilds == 0
        assert answers(index) == oracle_answers(predicates)

    def test_trees_without_shape_statistics_are_skipped(self):
        index = build(sorted_predicates(), tree_factory="interval-list")
        assert not hasattr(index.tree_for("r", "a"), "height")
        assert index.rebalance() == []


class TestRebuildTransaction:
    def test_failed_rebuild_leaves_the_old_tree_live(self):
        predicates = sorted_predicates()
        index = build(predicates)
        state = index._catalog.relations["r"]
        old_tree = state.trees["a"]
        version = state.version

        def exploding_factory():
            raise RuntimeError("no trees today")

        index._store.tree_factory = exploding_factory
        with pytest.raises(RuntimeError):
            index.rebalance()
        assert state.trees["a"] is old_tree
        assert state.version == version
        assert index.stats.tree_rebuilds == 0
        assert answers(index) == oracle_answers(predicates)

    def test_entry_dropping_backend_is_rejected_before_commit(self):
        index = build(sorted_predicates())
        state = index._catalog.relations["r"]
        old_tree = state.trees["a"]

        class Amnesiac:
            def bulk_load(self, pairs):
                pass

            def __len__(self):
                return 0

        index._store.tree_factory = Amnesiac
        with pytest.raises(PredicateError, match="dropped entries"):
            rebuild_attribute_tree(index._store, state, "a", index._observer)
        assert state.trees["a"] is old_tree

    def test_tick_during_rebuild_aborts_before_commit(self):
        index = build(sorted_predicates())
        state = index._catalog.relations["r"]
        old_tree = state.trees["a"]
        with injected(FaultInjector(seed=0)) as injector:
            injector.arm("maint.tick_during_migration", at_hit=1)
            with pytest.raises(InjectedFault):
                index.rebalance()
            assert injector.fired
        assert state.trees["a"] is old_tree
        assert index.stats.tree_rebuilds == 0

    def test_rebuild_bumps_epoch_and_keeps_cache_coherent(self):
        predicates = sorted_predicates()
        expected = oracle_answers(predicates)
        index = build(predicates, stab_cache_size=64)
        state = index._catalog.relations["r"]
        old_tree = state.trees["a"]
        old_epoch = old_tree.epoch
        # populate the stab cache against the old tree's epoch
        assert answers(index) == expected
        assert state.stab_cache
        version = state.version
        assert index.rebalance() == [("r", "a")]
        new_tree = index.tree_for("r", "a")
        assert new_tree is not old_tree
        assert new_tree.epoch > old_epoch
        assert state.epoch_floor > old_epoch
        assert state.version == version + 1
        # cached stabs keyed on the old epoch must not leak through
        assert answers(index) == expected
        assert batch_answers(index) == expected

    def test_columnar_plane_survives_a_rebuild(self):
        pytest.importorskip("numpy")
        predicates = sorted_predicates()
        expected = oracle_answers(predicates)
        index = build(predicates, tree_factory="flat", columnar=True)
        assert batch_answers(index) == expected
        plane = index._catalog.relations["r"].columnar_plane
        assert plane is not None and plane[1] is not None
        assert index.rebalance() == [("r", "a")]
        assert batch_answers(index) == expected
        rebuilt_plane = index._catalog.relations["r"].columnar_plane
        assert rebuilt_plane[0] == index._catalog.relations["r"].version
        assert rebuilt_plane[0] != plane[0]

    def test_rebuild_reports_to_the_observer(self):
        class Recorder(MatchObserver):
            def __init__(self):
                self.seen = []

            def on_tree_rebuild(self, relation, attribute):
                self.seen.append((relation, attribute))

        index = build(sorted_predicates())
        recorder = Recorder()
        state = index._catalog.relations["r"]
        rebuild_attribute_tree(index._store, state, "a", recorder)
        assert recorder.seen == [("r", "a")]

    def test_frozen_index_refuses_to_rebalance(self):
        index = build(sorted_predicates())
        index.freeze()
        with pytest.raises(PredicateError, match="frozen"):
            index.rebalance()


class TestPeriodicRebalance:
    def test_task_fires_on_rebalance_interval(self):
        index = PredicateIndex(maintenance=MaintenancePolicy(rebalance_interval=32))
        predicates = sorted_predicates()
        for predicate in predicates:
            index.add(predicate)
        runs = index.maintenance_report()["tasks"]["rebalance"]["runs"]
        assert runs == N // 32
        assert index.stats.tree_rebuilds >= 1
        # the next 32 ticks run the pass once more over the final tree
        index.match_batch("r", [{"a": 5}] * 32)
        assert index.maintenance_report()["tasks"]["rebalance"]["runs"] == runs + 1
        assert within_bound(index.tree_for("r", "a"))
        assert answers(index) == oracle_answers(predicates)

    def test_no_task_without_interval(self):
        index = PredicateIndex(maintenance=MaintenancePolicy(evict_interval=8))
        assert "rebalance" not in index.maintenance_report()["tasks"]
