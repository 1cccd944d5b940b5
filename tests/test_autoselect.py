"""Backend auto-selection: the decision procedure and live migrations.

Unit tests drive :class:`AutoSelector.decide` with a fake cost table
and ``tree=None`` profiles (pure, deterministic — no timing involved);
the integration tests force real migrations through
``PredicateIndex(auto_backend=True)`` and the concurrent facade and
assert the one invariant that matters: **match results are identical
before, during and after a live backend migration**, on the scalar,
batched, columnar and concurrent paths alike.
"""

import threading

import pytest

from repro import PredicateIndex
from repro.concurrency import ConcurrentPredicateIndex
from repro.core import Interval
from repro.db import Database
from repro.errors import PredicateError
from repro.maintenance import MaintenancePolicy
from repro.match.autoselect import (
    DEFAULT_CANDIDATES,
    AttributeProfile,
    AutoSelector,
    migrate_attribute_tree,
)
from repro.match.registry import DEFAULT_REGISTRY
from repro.predicates import PredicateBuilder


class FakeCostTable:
    """Size-independent per-backend prices — decisions become arithmetic."""

    def __init__(self, stab, insert=None):
        self.stab = dict(stab)
        self.insert = dict(insert if insert is not None else {})

    def __contains__(self, backend):
        return backend in self.stab

    def stab_ms(self, backend, n):
        return self.stab[backend]

    def insert_ms(self, backend, n):
        return self.insert.get(backend, 0.0)


def selector_with(stab, current_evidence=(100, 0, 0), **kwargs):
    kwargs.setdefault("candidates", tuple(stab))
    kwargs.setdefault("cost_table", FakeCostTable(stab))
    kwargs.setdefault("min_evidence_ops", 10)
    kwargs.setdefault("trial_candidates", 0)
    selector = AutoSelector(**kwargs)
    stabs, inserts, deletes = current_evidence
    if stabs:
        selector.evidence.observe_stabs("r", {"a": stabs})
    for _ in range(inserts):
        selector.evidence.observe_insert("r", "a")
    for _ in range(deletes):
        selector.evidence.observe_delete("r", "a")
    return selector


def profile_for(selector, current="ibs", size=100, tree=None):
    return AttributeProfile(
        relation="r",
        attribute="a",
        size=size,
        current_backend=current,
        usage=selector.evidence.usage("r", "a"),
        tree=tree,
    )


class TestDecide:
    def test_below_evidence_floor_returns_none(self):
        selector = selector_with(
            {"ibs": 1.0, "flat": 0.1}, current_evidence=(5, 0, 0)
        )
        assert selector.decide(profile_for(selector)) is None

    def test_migrates_to_decisively_cheaper_backend(self):
        selector = selector_with({"ibs": 1.0, "flat": 0.1})
        decision = selector.decide(profile_for(selector))
        assert decision.migrate
        assert decision.chosen_backend == "flat"
        assert "migrate to flat" in decision.reason
        assert decision.costs_ms["flat"] < decision.costs_ms["ibs"]

    def test_hysteresis_keeps_close_calls(self):
        # flat at 0.9x of current does not clear the 0.8 ratio
        selector = selector_with({"ibs": 1.0, "flat": 0.9})
        decision = selector.decide(profile_for(selector))
        assert not decision.migrate
        assert decision.chosen_backend == "ibs"
        assert "kept" in decision.reason

    def test_same_backend_never_rebuilds_without_probe(self):
        # without a live probe the current cost IS the table's price,
        # so best == current can never clear the hysteresis margin
        selector = selector_with({"ibs": 1.0})
        decision = selector.decide(profile_for(selector))
        assert not decision.migrate

    def test_unknown_current_backend_assumes_parity(self):
        selector = selector_with({"ibs": 1.0, "flat": 1.0})
        decision = selector.decide(profile_for(selector, current="weird"))
        assert not decision.migrate
        assert decision.chosen_backend == "weird"

    def test_writes_price_against_insert_cost(self):
        # flat stabs cheaper but inserts are ruinous: a write-heavy
        # window must keep the tree
        table = FakeCostTable(
            {"ibs": 1.0, "flat": 0.1}, {"ibs": 0.1, "flat": 50.0}
        )
        selector = selector_with(
            {"ibs": 1.0, "flat": 0.1},
            cost_table=table,
            current_evidence=(10, 90, 0),
        )
        decision = selector.decide(profile_for(selector))
        assert not decision.migrate

    def test_decision_is_deterministic(self):
        dicts = []
        for _ in range(2):
            selector = selector_with({"ibs": 1.0, "flat": 0.1, "avl": 0.5})
            dicts.append(selector.decide(profile_for(selector)).as_dict())
        assert dicts[0] == dicts[1]

    def test_quarantine_blocks_choice_until_it_expires(self):
        selector = selector_with(
            {"ibs": 1.0, "flat": 0.1}, quarantine_passes=2
        )
        selector.begin_pass()
        decision = selector.decide(profile_for(selector))
        assert decision.chosen_backend == "flat"
        selector.commit(decision, False, error="factory exploded")
        assert decision.error == "factory exploded"
        assert not decision.migrated
        # next pass: flat is quarantined, nothing else beats ibs
        selector.begin_pass()
        decision = selector.decide(profile_for(selector))
        assert not decision.migrate
        # quarantine ages out after quarantine_passes passes
        selector.begin_pass()
        decision = selector.decide(profile_for(selector))
        assert decision.migrate and decision.chosen_backend == "flat"

    def test_commit_success_resets_evidence_and_records_history(self):
        selector = selector_with({"ibs": 1.0, "flat": 0.1})
        decision = selector.decide(profile_for(selector))
        selector.commit(decision, True)
        assert decision.migrated
        assert selector.evidence.usage("r", "a").total == 0
        assert selector.history == [decision]
        report = selector.report()
        assert report["migrations"][0]["chosen_backend"] == "flat"


class _SlowFakeTree:
    """Enumerable tree whose stabs look arbitrarily slow to a fake clock."""

    def __init__(self, n=8):
        self._items = [(i, Interval.closed(i, i + 1)) for i in range(n)]

    def items(self):
        return iter(self._items)

    def stab(self, value):
        return []


class TestLiveProbe:
    def test_probe_triggers_same_backend_rebuild(self):
        # the fake clock advances 1s per reading: the live tree probes
        # at ~seconds per stab while the table prices a healthy ibs at
        # microseconds — exactly the degenerate-shape escape hatch
        ticks = iter(range(1000))
        selector = selector_with(
            {"ibs": 0.0001},
            timer=lambda: float(next(ticks)),
        )
        decision = selector.decide(
            profile_for(selector, tree=_SlowFakeTree())
        )
        assert decision.migrate
        assert decision.chosen_backend == "ibs"
        assert decision.reason.startswith("rebuild on ibs")
        assert "probed" in decision.reason

    def test_trial_requires_enumerable_tree(self):
        selector = selector_with({"ibs": 1.0})
        assert selector._trial_stab_ms("ibs", object()) is None

    def test_empty_candidates_rejected(self):
        with pytest.raises(PredicateError):
            AutoSelector(candidates=())


def build_index(**kwargs):
    index = PredicateIndex(**kwargs)
    for i in range(60):
        low = i * 10
        index.add(
            PredicateBuilder("r")
            .between("a", low, low + 8)
            .build(ident=f"p{i}")
        )
    return index


def force_avl_table():
    # avl priced at zero forces a migration off any probed tree; ibs
    # priced high keeps the decision independent of machine speed
    return FakeCostTable({"ibs": 1.0, "avl": 0.0})


PROBES = [{"a": v} for v in (4, 15, 108, 255, 308, 402, 596, 9999, None)]


def auto_index(**kwargs):
    index = build_index(
        auto_backend=True,
        auto_cost_table=force_avl_table(),
        auto_candidates=("ibs", "avl"),
        min_evidence_ops=16,
        **kwargs,
    )
    # deterministic table-driven choice: no trial probes in tests
    index._selector.trial_candidates = 0
    return index


class TestPredicateIndexMigration:
    def test_match_results_identical_across_migration(self):
        index = auto_index()
        reference = build_index()
        expected_scalar = [
            sorted(p.ident for p in reference.match("r", tup))
            for tup in PROBES
        ]
        expected_batch = reference.match_batch("r", PROBES)
        # warm-up accumulates the evidence that clears the floor
        index.match_batch("r", PROBES)
        before = [
            sorted(p.ident for p in index.match("r", tup)) for tup in PROBES
        ]
        assert before == expected_scalar
        decisions = index.autoselect()
        migrated = [d for d in decisions if d.migrated]
        assert migrated, "the zero-priced avl candidate must win"
        assert index.attribute_backends("r")["a"] == "avl"
        after_scalar = [
            sorted(p.ident for p in index.match("r", tup)) for tup in PROBES
        ]
        after_batch = index.match_batch("r", PROBES)
        assert after_scalar == expected_scalar
        assert [
            [p.ident for p in row] for row in after_batch
        ] == [[p.ident for p in row] for row in expected_batch]

    def test_migration_bumps_epoch_and_keeps_cache_coherent(self):
        index = auto_index()
        index.match_batch("r", PROBES)
        old_tree = index.tree_for("r", "a")
        old_epoch = old_tree.epoch
        # populate the stab cache against the old tree's epoch
        for tup in PROBES:
            index.match("r", tup)
        assert index.autoselect()
        new_tree = index.tree_for("r", "a")
        assert new_tree is not old_tree
        assert new_tree.epoch > old_epoch
        # cached stabs keyed on the old epoch must not leak through
        reference = build_index()
        for tup in PROBES:
            assert sorted(p.ident for p in index.match("r", tup)) == sorted(
                p.ident for p in reference.match("r", tup)
            )

    def test_migration_counts_in_stats_and_report(self):
        index = auto_index()
        index.match_batch("r", PROBES)
        assert index.stats.backend_migrations == 0
        index.autoselect()
        assert index.stats.backend_migrations == 1
        report = index.tuning_report()
        assert report["migrations"][0]["chosen_backend"] == "avl"
        assert "r.a" in report["decisions"]
        # post-migration the evidence window restarted
        assert report["evidence"].get("r", {}).get("a", {"total": 0}).get(
            "total", 0
        ) == 0

    def test_periodic_autoselect_fires_on_interval(self):
        index = auto_index(maintenance=MaintenancePolicy(autoselect_interval=32))
        for _ in range(3):
            index.match_batch("r", PROBES * 2)
        assert index.attribute_backends("r")["a"] == "avl"

    def test_columnar_plane_survives_migration(self):
        pytest.importorskip("numpy")
        index = auto_index(columnar=True)
        reference = build_index(columnar=True)
        expected = [
            [p.ident for p in row]
            for row in reference.match_batch("r", PROBES)
        ]
        assert [
            [p.ident for p in row] for row in index.match_batch("r", PROBES)
        ] == expected
        assert index.autoselect()
        assert [
            [p.ident for p in row] for row in index.match_batch("r", PROBES)
        ] == expected

    def test_failed_migration_is_transactional(self):
        index = auto_index()
        state = index._catalog.relations["r"]
        old_tree = state.trees["a"]
        expected = [
            sorted(p.ident for p in index.match("r", tup)) for tup in PROBES
        ]

        def exploding_factory():
            raise RuntimeError("no such backend today")

        with pytest.raises(RuntimeError):
            migrate_attribute_tree(
                index._catalog,
                index._store,
                "r",
                state,
                "a",
                "boom",
                exploding_factory,
                index._observer,
            )
        assert state.trees["a"] is old_tree
        assert index.stats.backend_migrations == 0
        assert [
            sorted(p.ident for p in index.match("r", tup)) for tup in PROBES
        ] == expected

    def test_entry_dropping_backend_is_rejected_before_commit(self):
        index = auto_index()
        state = index._catalog.relations["r"]
        old_tree = state.trees["a"]

        class Amnesiac:
            def bulk_load(self, pairs):
                pass

            def __len__(self):
                return 0

        with pytest.raises(PredicateError, match="dropped entries"):
            migrate_attribute_tree(
                index._catalog,
                index._store,
                "r",
                state,
                "a",
                "amnesiac",
                Amnesiac,
                index._observer,
            )
        assert state.trees["a"] is old_tree

    def test_run_pass_quarantines_failing_backend_and_continues(self):
        index = auto_index()
        index.match_batch("r", PROBES)
        selector = index._selector
        original = selector.factory_for

        def sabotage(backend):
            if backend == "avl":
                return lambda: (_ for _ in ()).throw(RuntimeError("boom"))
            return original(backend)

        selector.factory_for = sabotage
        decisions = index.autoselect()
        failed = [d for d in decisions if d.migrate and not d.migrated]
        assert failed and failed[0].error
        assert index.attribute_backends("r")["a"] in (None, "ibs")
        assert selector.report()["quarantine"]

    def test_disabled_index_raises(self):
        index = PredicateIndex()
        with pytest.raises(PredicateError, match="auto"):
            index.autoselect()
        with pytest.raises(PredicateError, match="auto"):
            index.tuning_report()


class TestRegistryAndDatabase:
    def test_auto_matcher_is_registered_with_capabilities(self):
        info = DEFAULT_REGISTRY.describe_matcher("auto")
        assert info["capabilities"]["auto_backend"]
        assert info["capabilities"]["self_tuning"]

    def test_create_matcher_auto_builds_selftuning_index(self):
        index = DEFAULT_REGISTRY.create_matcher("auto")
        assert index._selector is not None
        assert index.autoselect() == []  # empty index: nothing to tune

    def test_database_accepts_auto_matcher(self):
        db = Database(matcher="auto")
        assert db.default_matcher == "auto"

    def test_default_candidates_are_registered_backends(self):
        for backend in DEFAULT_CANDIDATES:
            assert backend in DEFAULT_REGISTRY.tree_backends()


class TestConcurrentFacade:
    def make_facade(self):
        facade = ConcurrentPredicateIndex(
            auto_backend=True,
            auto_cost_table=force_avl_table(),
            auto_candidates=("ibs", "avl"),
            min_evidence_ops=16,
        )
        facade._selector.trial_candidates = 0
        for i in range(60):
            low = i * 10
            facade.add(
                PredicateBuilder("r")
                .between("a", low, low + 8)
                .build(ident=f"p{i}")
            )
        return facade

    def test_migration_preserves_results_under_concurrent_readers(self):
        with self.make_facade() as facade:
            expected = {
                tup["a"]: frozenset(facade.match_idents("r", tup))
                for tup in PROBES
                if tup["a"] is not None
            }
            for _ in range(4):  # clear the evidence floor
                for tup in PROBES:
                    facade.match_idents("r", tup)
            mismatches = []
            stop = threading.Event()

            def reader():
                while not stop.is_set():
                    for value, want in expected.items():
                        got = frozenset(facade.match_idents("r", {"a": value}))
                        if got != want:
                            mismatches.append((value, got, want))
                            return

            threads = [threading.Thread(target=reader) for _ in range(2)]
            for thread in threads:
                thread.start()
            try:
                decisions = facade.autoselect()
            finally:
                stop.set()
                for thread in threads:
                    thread.join()
            assert not mismatches
            assert any(d.migrated for d in decisions)
            report = facade.tuning_report()
            assert report["backend_plan"] == {"r": {"a": "avl"}}
            for value, want in expected.items():
                assert frozenset(facade.match_idents("r", {"a": value})) == want

    def test_batch_results_survive_migration(self):
        with self.make_facade() as facade:
            expected = [
                [p.ident for p in row]
                for row in facade.match_batch("r", PROBES)
            ]
            for _ in range(4):
                facade.match_batch("r", PROBES)
            assert any(d.migrated for d in facade.autoselect())
            assert [
                [p.ident for p in row]
                for row in facade.match_batch("r", PROBES)
            ] == expected

    def test_writes_after_migration_land_on_the_plan_backend(self):
        with self.make_facade() as facade:
            for _ in range(4):
                facade.match_batch("r", PROBES)
            assert any(d.migrated for d in facade.autoselect())
            facade.add(
                PredicateBuilder("r").between("a", 7000, 7010).build(ident="late")
            )
            assert "late" in facade.match_idents("r", {"a": 7005})

    def test_disabled_facade_raises(self):
        with ConcurrentPredicateIndex() as facade:
            with pytest.raises(PredicateError, match="auto_backend=True"):
                facade.autoselect()
