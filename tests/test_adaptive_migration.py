"""Selectivity-feedback entry-clause migration.

The paper fixes each predicate's entry clause at registration time: the
estimated most selective indexable clause goes into the IBS-tree.  The
adaptive layer revisits that choice with observed evidence — the
fraction of matched tuples the entry clause actually admitted — and
migrates the entry clause to a different attribute tree when the
estimates say it would admit decisively fewer candidates.  Matching
semantics must be bit-for-bit unchanged by any migration; only the
candidate counts move.
"""

import pytest

from repro import PredicateIndex
from repro.db.statistics import EntryClauseFeedback
from repro.errors import InjectedFault
from repro.maintenance import MaintenancePolicy
from repro.predicates import PredicateBuilder
from repro.testing import FaultInjector, injected


def two_clause_pred():
    # equality on "a" (estimate 0.10, chosen at registration) plus a
    # bounded range on "b" (estimate 0.25, the migration target when
    # the "a" clause observably admits everything)
    return PredicateBuilder("r").eq("a", 5).between("b", 0, 100).build()


def adverse_tuples(n):
    # every tuple satisfies a == 5 (entry clause admits it) but fails
    # the "b" range: observed selectivity of the entry clause -> 1.0
    return [{"a": 5, "b": 500 + i} for i in range(n)]


class TestFeedback:
    def test_observed_selectivity_needs_min_samples(self):
        fb = EntryClauseFeedback(min_samples=4)
        fb.observe_tuples("r", 3)
        fb.observe_candidates(["p"], 3)
        assert fb.observed_selectivity("r", "p") is None
        fb.observe_tuples("r", 1)
        assert fb.observed_selectivity("r", "p") == pytest.approx(0.75)

    def test_reset_is_windowed_per_relation(self):
        fb = EntryClauseFeedback(min_samples=1)
        fb.observe_tuples("r", 10)
        fb.observe_tuples("s", 7)
        fb.observe_candidates(["p"], 5)
        fb.observe_candidates(["q"], 2)
        fb.reset("r", ["p"])
        assert fb.tuples_seen("r") == 0
        assert fb.candidate_hits("p") == 0
        assert fb.tuples_seen("s") == 7
        assert fb.candidate_hits("q") == 2
        fb.reset()
        assert fb.as_dict() == {"tuples_seen": {}, "candidate_hits": {}}

    def test_selectivity_is_clamped(self):
        fb = EntryClauseFeedback(min_samples=1)
        fb.observe_tuples("r", 2)
        fb.observe_candidates(["p"], 5)  # batch counting can overshoot
        assert fb.observed_selectivity("r", "p") == 1.0


class TestMigration:
    def test_explicit_retune_migrates(self):
        idx = PredicateIndex(adaptive=True, min_feedback_tuples=8)
        ident = idx.add(two_clause_pred())
        assert idx._relations["r"].indexed_under[ident] == ("a",)
        for tup in adverse_tuples(10):
            idx.match("r", tup)
        assert idx.retune("r") == [ident]
        assert idx._relations["r"].indexed_under[ident] == ("b",)
        assert idx.stats.clause_migrations == 1
        assert idx.check_invariants() is True

    def test_matching_semantics_unchanged_after_migration(self):
        idx = PredicateIndex(adaptive=True, min_feedback_tuples=8)
        ident = idx.add(two_clause_pred())
        oracle = PredicateIndex()
        oracle.add(two_clause_pred())
        for tup in adverse_tuples(10):
            idx.match("r", tup)
        idx.retune("r")
        for tup in (
            {"a": 5, "b": 50},
            {"a": 5, "b": 500},
            {"a": 4, "b": 50},
            {"a": 4, "b": 500},
            {"a": 5},
            {"b": 50},
        ):
            got = [p.ident for p in idx.match("r", tup)]
            expected = len(oracle.match("r", tup))
            assert got == ([ident] if expected else []), tup

    def test_auto_retune_on_match_path(self):
        idx = PredicateIndex(
            adaptive=True,
            min_feedback_tuples=8,
            maintenance=MaintenancePolicy(retune_interval=20),
        )
        ident = idx.add(two_clause_pred())
        for tup in adverse_tuples(25):
            idx.match("r", tup)
        assert idx._relations["r"].indexed_under[ident] == ("b",)

    def test_auto_retune_on_batch_path(self):
        idx = PredicateIndex(
            adaptive=True,
            min_feedback_tuples=8,
            maintenance=MaintenancePolicy(retune_interval=20),
        )
        ident = idx.add(two_clause_pred())
        idx.match_batch("r", adverse_tuples(25))
        assert idx._relations["r"].indexed_under[ident] == ("b",)
        # batch matching still correct afterwards
        results = idx.match_batch("r", [{"a": 5, "b": 50}, {"a": 5, "b": 500}])
        assert [p.ident for p in results[0]] == [ident]
        assert results[1] == []

    def test_no_migration_when_entry_clause_performs(self):
        idx = PredicateIndex(adaptive=True, min_feedback_tuples=8)
        ident = idx.add(two_clause_pred())
        # entry clause rejects every tuple: observed selectivity 0.0
        for i in range(10):
            idx.match("r", {"a": 99, "b": 50})
        assert idx.retune("r") == []
        assert idx._relations["r"].indexed_under[ident] == ("a",)
        assert idx.stats.clause_migrations == 0

    def test_no_migration_without_enough_samples(self):
        idx = PredicateIndex(adaptive=True, min_feedback_tuples=256)
        idx.add(two_clause_pred())
        for tup in adverse_tuples(10):
            idx.match("r", tup)
        assert idx.retune("r") == []

    def test_no_migration_for_single_clause_predicates(self):
        idx = PredicateIndex(adaptive=True, min_feedback_tuples=4)
        ident = idx.add(PredicateBuilder("r").between("x", 0, 10).build())
        for i in range(8):
            idx.match("r", {"x": 5})
        assert idx.retune("r") == []
        assert idx._relations["r"].indexed_under[ident] == ("x",)

    def test_multi_clause_indexing_never_migrates(self):
        idx = PredicateIndex(
            multi_clause=True, adaptive=True, min_feedback_tuples=4
        )
        idx.add(two_clause_pred())
        for tup in adverse_tuples(8):
            idx.match("r", tup)
        assert idx.retune("r") == []
        assert idx.stats.clause_migrations == 0

    def test_retune_without_adaptive_observation_is_noop(self):
        idx = PredicateIndex()  # adaptive off: no feedback accumulates
        idx.add(two_clause_pred())
        for tup in adverse_tuples(10):
            idx.match("r", tup)
        assert idx.retune() == []

    def test_feedback_window_resets_after_retune(self):
        idx = PredicateIndex(adaptive=True, min_feedback_tuples=8)
        idx.add(two_clause_pred())
        for tup in adverse_tuples(10):
            idx.match("r", tup)
        idx.retune("r")
        assert idx.feedback.tuples_seen("r") == 0
        # immediately retuning again has no evidence to act on
        assert idx.retune("r") == []


class TestMigrationFaults:
    def test_insert_fault_during_migration_restores_old_entry(self):
        idx = PredicateIndex(adaptive=True, min_feedback_tuples=8)
        ident = idx.add(two_clause_pred())
        for tup in adverse_tuples(10):
            idx.match("r", tup)
        inj = FaultInjector()
        inj.arm("tree.insert", at_hit=1)
        with injected(inj):
            with pytest.raises(InjectedFault):
                idx.retune("r")
        # the old entry clause is back in place and matching still works
        assert idx._relations["r"].indexed_under[ident] == ("a",)
        assert idx.check_invariants() is True
        assert [p.ident for p in idx.match("r", {"a": 5, "b": 50})] == [ident]
        assert idx.match("r", {"a": 5, "b": 500}) == []

    def test_double_fault_parks_predicate_on_brute_force(self):
        idx = PredicateIndex(adaptive=True, min_feedback_tuples=8)
        ident = idx.add(two_clause_pred())
        for tup in adverse_tuples(10):
            idx.match("r", tup)
        inj = FaultInjector(max_faults=2)
        inj.arm("tree.insert", at_hit=1, count=2)  # new-tree insert AND restore
        with injected(inj):
            with pytest.raises(InjectedFault):
                idx.retune("r")
        rel = idx._relations["r"]
        assert ident in rel.non_indexable
        assert ident not in rel.indexed_under
        # brute force is sound: answers are still exact
        assert [p.ident for p in idx.match("r", {"a": 5, "b": 50})] == [ident]
        assert idx.match("r", {"a": 5, "b": 500}) == []
        assert idx.check_invariants() is True
