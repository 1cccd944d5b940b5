"""Online cost-driven per-attribute backend auto-selection.

This module closes the self-tuning loop the repo already had three
thirds of: :class:`~repro.match.observer.StatsObserver` measures
logical work, :mod:`repro.bench.cost_model` prices tree backends, and
the registry exposes ten of them — but nothing connected the three, so
every attribute ran whatever backend the caller hard-coded.  The
:class:`AutoSelector` here

1. **accumulates evidence**: per-(relation, attribute) stab counts flow
   from the pipeline's ``on_attribute_stabs`` hook into an
   :class:`~repro.db.statistics.IndexWorkloadEvidence` window, and the
   facades report interval inserts/deletes as predicates come and go;
2. **prices backends**: each candidate backend's calibrated
   :class:`~repro.bench.cost_model.BackendCostModel` is evaluated
   against the observed stab/insert/delete mix at the attribute's
   current tree size.  The *current* backend is priced from a **live
   micro-probe** of the actual tree whenever possible — a degenerate
   tree (adversarial insertion order) costs what it costs, not what a
   healthy bulk-loaded specimen of its class would cost — so the
   selector can escape pathological shapes the static table would
   never reveal;
3. **migrates transactionally**: under the same evidence-floor /
   hysteresis / quarantine discipline ``retune()`` uses for entry
   clauses, the attribute's intervals are re-loaded into the predicted
   cheapest backend via ``bulk_load`` (O(N log N)), the replacement is
   fully built and sanity-checked *before* the old tree is unhooked,
   and the commit bumps the epoch floor, clears the stab cache and the
   relation version so every epoch-keyed cache stays coherent.

Decisions are surfaced through the
``MatchObserver.on_backend_migration`` hook and recorded for the
``tuning_report()`` introspection APIs on both facades.

Safety in the concurrent facade: the selector itself never mutates a
published frozen base — the facade records the winning plan and
publishes it by building a *fresh* base (a compaction), exactly like
every other structural change there.
"""

from __future__ import annotations

import time
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
)

from ..core.intervals import is_infinite
from ..errors import PredicateError
from ..predicates.clauses import IntervalClause
from ..testing.faults import fault_point
from .catalog import ClauseCatalog, RelationState
from .observer import MatchObserver
from .store import TreeStore

__all__ = [
    "AUTO_MIGRATION_RATIO",
    "DEFAULT_CANDIDATES",
    "EvidenceObserver",
    "AttributeProfile",
    "BackendDecision",
    "AutoSelector",
    "migrate_attribute_tree",
    "attribute_pairs",
]

#: Backends the selector migrates between by default: the four
#: IBS-tree variants.  All of them expose ``items()`` (so a later pass
#: can migrate *away* again), ``bulk_load``, and the full dynamic
#: capability set.  The sequential baseline is deliberately absent —
#: it cannot enumerate its own pairs, so picking it would be a one-way
#: door.
DEFAULT_CANDIDATES: Tuple[str, ...] = ("ibs", "avl", "rb", "flat")

#: Hysteresis: a backend migration happens only when the best candidate
#: prices below ``current_cost * AUTO_MIGRATION_RATIO`` — a predicted
#: win of at least 20 %, which absorbs micro-probe noise and prevents
#: flapping.
AUTO_MIGRATION_RATIO = 0.8


class EvidenceObserver(MatchObserver):
    """Routes ``on_attribute_stabs`` events into an evidence window.

    Composed next to the facade's :class:`StatsObserver` via
    :class:`CompositeObserver`; its ``wants_attribute_stabs`` flag is
    what switches the pipeline's per-attribute counting on.
    """

    __slots__ = ("evidence",)

    wants_attribute_stabs = True

    def __init__(self, evidence: Any) -> None:
        self.evidence = evidence

    def on_attribute_stabs(self, relation: str, counts: Dict[str, int]) -> None:
        self.evidence.observe_stabs(relation, counts)


class AttributeProfile:
    """Everything :meth:`AutoSelector.decide` needs about one attribute.

    ``tree`` may be ``None`` (pure table-driven decision, used by the
    deterministic unit tests and the CLI's what-if mode); when present
    it enables the live micro-probe pricing of the current backend.
    """

    __slots__ = (
        "relation",
        "attribute",
        "size",
        "current_backend",
        "usage",
        "tree",
    )

    def __init__(
        self,
        relation: str,
        attribute: str,
        size: int,
        current_backend: Optional[str],
        usage: Any,
        tree: Any = None,
    ) -> None:
        self.relation = relation
        self.attribute = attribute
        self.size = size
        self.current_backend = current_backend
        self.usage = usage
        self.tree = tree


class BackendDecision:
    """One pricing verdict for one (relation, attribute)."""

    __slots__ = (
        "relation",
        "attribute",
        "current_backend",
        "chosen_backend",
        "costs_ms",
        "current_cost_ms",
        "evidence_ops",
        "size",
        "migrate",
        "reason",
        "migrated",
        "error",
    )

    def __init__(
        self,
        relation: str,
        attribute: str,
        current_backend: Optional[str],
        chosen_backend: str,
        costs_ms: Dict[str, float],
        current_cost_ms: float,
        evidence_ops: int,
        size: int,
        migrate: bool,
        reason: str,
    ) -> None:
        self.relation = relation
        self.attribute = attribute
        self.current_backend = current_backend
        self.chosen_backend = chosen_backend
        #: candidate backend -> predicted window cost, milliseconds
        self.costs_ms = costs_ms
        self.current_cost_ms = current_cost_ms
        self.evidence_ops = evidence_ops
        self.size = size
        #: whether the hysteresis test warranted a migration
        self.migrate = migrate
        self.reason = reason
        #: set by :meth:`AutoSelector.commit`
        self.migrated = False
        self.error: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "relation": self.relation,
            "attribute": self.attribute,
            "current_backend": self.current_backend,
            "chosen_backend": self.chosen_backend,
            "costs_ms": dict(self.costs_ms),
            "current_cost_ms": self.current_cost_ms,
            "evidence_ops": self.evidence_ops,
            "size": self.size,
            "migrate": self.migrate,
            "migrated": self.migrated,
            "reason": self.reason,
            "error": self.error,
        }

    def __repr__(self) -> str:
        return (
            f"<BackendDecision {self.relation}.{self.attribute}: "
            f"{self.current_backend} -> {self.chosen_backend} "
            f"({self.reason})>"
        )


class AutoSelector:
    """Evidence-driven backend selection with retune()'s discipline.

    Parameters
    ----------
    candidates:
        Backend names eligible as migration targets; all must be
        registered tree backends with ``items()``/``bulk_load``.
    cost_table:
        A calibrated
        :class:`~repro.bench.cost_model.BackendCostTable`; measured
        lazily via ``default_backend_cost_table()`` when omitted.
    min_evidence_ops:
        Evidence floor: no decision before this many logical
        operations (stabs + inserts + deletes) have been observed for
        the attribute — mirroring ``EntryClauseFeedback.min_samples``.
    quarantine_passes:
        A (relation, attribute, backend) whose migration *failed* is
        barred from being chosen again for this many passes.
    probe_samples:
        Stabs per live micro-probe of the current tree.
    trial_candidates:
        When the current tree was live-probed, this many of the
        table's top-ranked candidates are *trial-built* (``bulk_load``
        of the live entries) and probed on the same samples — two
        probes of the same data at the same moment cancel the machine
        noise a statically calibrated table cannot, so close calls are
        settled by measurement instead of extrapolation.  ``0``
        disables trials (pure table ranking).
    registry:
        Backend registry for resolving candidate factories; defaults
        to the process-wide ``DEFAULT_REGISTRY``.
    timer:
        Injectable clock for the live micro-probe (tests).
    """

    def __init__(
        self,
        candidates: Iterable[str] = DEFAULT_CANDIDATES,
        cost_table: Any = None,
        min_evidence_ops: int = 512,
        quarantine_passes: int = 3,
        probe_samples: int = 128,
        trial_candidates: int = 3,
        default_backend: Optional[str] = "ibs",
        registry: Any = None,
        timer: Callable[[], float] = time.perf_counter,
    ) -> None:
        from ..db.statistics import IndexWorkloadEvidence

        self.candidates = tuple(candidates)
        if not self.candidates:
            raise PredicateError("auto-selection needs at least one candidate backend")
        self._cost_table = cost_table
        self._registry = registry
        #: candidate name -> why it was capability-gated out of the
        #: pool (never trial-built, never migrated to); surfaced in
        #: :meth:`report` so an operator can see the whole story.
        self.excluded_candidates: Dict[str, str] = {}
        eligible = []
        for name in self.candidates:
            reason = self._capability_gate(name)
            if reason is not None:
                self.excluded_candidates[name] = reason
            else:
                eligible.append(name)
        if not eligible:
            gated = ", ".join(
                f"{name} ({reason})"
                for name, reason in self.excluded_candidates.items()
            )
            raise PredicateError(
                f"every auto-selection candidate was capability-gated: {gated}"
            )
        self.candidates = tuple(eligible)
        self.min_evidence_ops = int(min_evidence_ops)
        self.quarantine_passes = int(quarantine_passes)
        self.probe_samples = int(probe_samples)
        self.trial_candidates = int(trial_candidates)
        self.default_backend = default_backend
        self._timer = timer
        self.evidence = IndexWorkloadEvidence(min_ops=self.min_evidence_ops)
        self.observer = EvidenceObserver(self.evidence)
        #: (relation, attribute, backend) -> passes left in quarantine
        self._quarantine: Dict[Tuple[str, str, str], int] = {}
        #: most recent decision per (relation, attribute)
        self._last: Dict[Tuple[str, str], BackendDecision] = {}
        #: committed migrations, oldest first (bounded)
        self.history: List[BackendDecision] = []
        self.passes = 0

    # -- collaborator access --------------------------------------------

    @property
    def cost_table(self) -> Any:
        if self._cost_table is None:
            from ..bench.cost_model import default_backend_cost_table

            self._cost_table = default_backend_cost_table()
        return self._cost_table

    @property
    def registry(self) -> Any:
        if self._registry is None:
            from .registry import DEFAULT_REGISTRY

            self._registry = DEFAULT_REGISTRY
        return self._registry

    def factory_for(self, backend: str) -> Callable[[], Any]:
        return self.registry.tree_factory(backend)

    def _capability_gate(self, backend: str) -> Optional[str]:
        """Why *backend* cannot be a migration target, or ``None``.

        A migrated tree must keep absorbing the live write stream, so
        static structures (``segment``, ``static-interval``) that
        declare ``supports_dynamic_insert/delete = False`` are never
        trial-built; the ``disk`` backend is likewise excluded — its
        trees belong to a :class:`~repro.disk.store.DiskTreeStore`
        with segment-file lifecycle the in-memory migration path does
        not manage.  Names the registry cannot describe pass through
        un-gated and fail (loudly, then quarantined) at trial-build
        time, exactly as before gating existed.
        """
        try:
            card = self.registry.describe_backend(backend)
        except Exception:  # noqa: BLE001 - unknown names keep legacy path
            return None
        reasons = []
        if not card.get("supports_dynamic_insert", True):
            reasons.append("no dynamic insert")
        if not card.get("supports_dynamic_delete", True):
            reasons.append("no dynamic delete")
        if card.get("disk_backed", False):
            reasons.append("disk-backed tree store")
        if not reasons:
            return None
        return ", ".join(reasons)

    # -- the decision procedure -----------------------------------------

    def begin_pass(self) -> None:
        """Start a pass: age the quarantine window."""
        self.passes += 1
        expired = []
        for key, remaining in self._quarantine.items():
            if remaining <= 1:
                expired.append(key)
            else:
                self._quarantine[key] = remaining - 1
        for key in expired:
            del self._quarantine[key]

    def decide(self, profile: AttributeProfile) -> Optional[BackendDecision]:
        """Price every candidate against the observed window.

        Returns ``None`` below the evidence floor; otherwise a
        :class:`BackendDecision` whose ``migrate`` flag says whether
        the hysteresis test warranted moving.  Pure with respect to
        index state — nothing is mutated here — so it is directly
        unit-testable with a fake cost table and ``tree=None``.
        """
        usage = profile.usage
        ops = usage.total
        if ops < self.min_evidence_ops:
            return None
        size = max(profile.size, 1)
        stabs = usage.stabs
        writes = usage.inserts + usage.deletes
        table = self.cost_table
        costs: Dict[str, float] = {}
        for backend in self.candidates:
            if backend not in table:
                continue
            costs[backend] = stabs * table.stab_ms(backend, size) + writes * (
                table.insert_ms(backend, size)
            )
        if not costs:
            return None
        current = profile.current_backend
        current_cost = costs.get(current) if current is not None else None
        if current_cost is None and current is not None and current in table:
            current_cost = stabs * table.stab_ms(current, size) + writes * (
                table.insert_ms(current, size)
            )
        probed = False
        if profile.tree is not None and stabs:
            # Live micro-probe: the table prices a *healthy* specimen of
            # the current backend; the actual tree may be degenerate
            # (adversarial insertion order), and only measuring it
            # directly lets the selector escape such shapes.
            probe_ms = self._probe_stab_ms(profile.tree)
            if probe_ms is not None:
                write_ms = (
                    table.insert_ms(current, size)
                    if current is not None and current in table
                    else min(table.insert_ms(b, size) for b in costs)
                )
                current_cost = stabs * probe_ms + writes * write_ms
                probed = True
        if current_cost is None:
            # unknown, unpriceable current backend and no live tree to
            # probe: assume parity with the best candidate (no migration)
            current_cost = min(costs.values())
        eligible = {
            backend: cost
            for backend, cost in costs.items()
            if (profile.relation, profile.attribute, backend)
            not in self._quarantine
        }
        if not eligible:
            return None
        trialed: Dict[str, float] = {}
        if probed and self.trial_candidates > 0:
            # The incumbent was measured, so measure the challengers
            # too: trial-build the table's top-ranked candidates on the
            # live entries and probe them on the same samples.  The
            # table still does the ranking (trials stay O(K·N log N),
            # not O(|candidates|·N log N)); the trials settle the close
            # calls the table's extrapolated constants cannot.
            ranked = sorted(eligible, key=lambda b: eligible[b])
            for backend in ranked[: self.trial_candidates]:
                trial_ms = self._trial_stab_ms(backend, profile.tree)
                if trial_ms is None:
                    continue
                write_ms = (
                    table.insert_ms(backend, size) if backend in table else 0.0
                )
                trialed[backend] = stabs * trial_ms + writes * write_ms
                eligible[backend] = trialed[backend]
                costs[backend] = trialed[backend]
        best_backend = min(eligible, key=lambda b: eligible[b])
        best_cost = eligible[best_backend]
        # Same-backend "migration" is a rebuild: without a probe the
        # current cost IS the table's price for that backend, so the
        # hysteresis test can only pass when the live probe showed the
        # actual tree degenerated (adversarial insertion order) — and
        # a bulk_load onto the same backend restores its healthy shape.
        migrate = best_cost < current_cost * AUTO_MIGRATION_RATIO
        if migrate:
            action = "rebuild on" if best_backend == current else "migrate to"
            basis = "trial-probed" if best_backend in trialed else "predicts"
            reason = (
                f"{action} {best_backend}: {basis} {best_cost:.4f}ms vs "
                f"{'probed' if probed else 'modeled'} "
                f"{current_cost:.4f}ms over {ops} ops"
            )
            chosen = best_backend
        else:
            reason = "kept: no candidate beats the hysteresis margin"
            chosen = current if current is not None else best_backend
        decision = BackendDecision(
            relation=profile.relation,
            attribute=profile.attribute,
            current_backend=current,
            chosen_backend=chosen,
            costs_ms=costs,
            current_cost_ms=current_cost,
            evidence_ops=ops,
            size=size,
            migrate=migrate,
            reason=reason,
        )
        self._last[(profile.relation, profile.attribute)] = decision
        return decision

    def commit(
        self,
        decision: BackendDecision,
        migrated: bool,
        error: Optional[str] = None,
    ) -> None:
        """Record a migration attempt's outcome.

        Success resets the attribute's evidence window (the next
        decision must rest on evidence gathered *on the new backend*);
        failure quarantines the (relation, attribute, backend) triple
        for :attr:`quarantine_passes` passes.
        """
        decision.migrated = migrated
        decision.error = error
        if migrated:
            self.evidence.reset_attribute(decision.relation, decision.attribute)
            self.history.append(decision)
            if len(self.history) > 256:
                del self.history[:-256]
        elif error is not None:
            self._quarantine[
                (decision.relation, decision.attribute, decision.chosen_backend)
            ] = self.quarantine_passes

    def _probe_stab_ms(self, tree: Any) -> Optional[float]:
        """Measure the live tree's amortised stab cost, or ``None``.

        Probe values are drawn deterministically from the tree's own
        finite interval endpoints, so the probe exercises the populated
        part of the domain without consuming any random state.
        """
        from ..bench.cost_model import MIN_MEASURED_MS

        items = getattr(tree, "items", None)
        if items is None:
            return None
        values: List[Any] = []
        for _ident, interval in items():
            if not is_infinite(interval.low):
                values.append(interval.low)
            elif not is_infinite(interval.high):
                values.append(interval.high)
            if len(values) >= self.probe_samples:
                break
        if not values:
            return None
        samples = self.probe_samples
        probes = [values[i % len(values)] for i in range(samples)]
        timer = self._timer
        stab = tree.stab
        best = float("inf")
        for _round in range(3):  # best-of-3 absorbs scheduler hiccups
            start = timer()
            for value in probes:
                stab(value)
            elapsed = timer() - start
            if elapsed < best:
                best = elapsed
        return max(best / samples * 1e3, MIN_MEASURED_MS)

    def _trial_stab_ms(self, backend: str, tree: Any) -> Optional[float]:
        """Bulk-load *tree*'s entries onto a trial *backend* and probe it.

        Returns ``None`` when the live tree cannot enumerate itself or
        the trial build fails — the caller then falls back to the
        table's price for that candidate.
        """
        items = getattr(tree, "items", None)
        if items is None:
            return None
        try:
            trial = self.factory_for(backend)()
            pairs = [(interval, ident) for ident, interval in items()]
            loader = getattr(trial, "bulk_load", None)
            if loader is not None:
                loader(pairs)
            else:
                for interval, ident in pairs:
                    trial.insert(interval, ident)
        except Exception:  # noqa: BLE001 - a broken trial is not a decision
            return None
        return self._probe_stab_ms(trial)

    # -- the serial-facade pass -----------------------------------------

    def run_pass(
        self,
        catalog: ClauseCatalog,
        store: TreeStore,
        observer: MatchObserver,
        relation: Optional[str] = None,
    ) -> List[BackendDecision]:
        """One full decide-and-migrate pass over a mutable catalog.

        Returns every decision that cleared the evidence floor (so
        callers can inspect the kept ones too); migrations that fail
        are quarantined and the pass continues — one bad backend never
        aborts tuning for the rest of the index.
        """
        self.begin_pass()
        decisions: List[BackendDecision] = []
        targets = [relation] if relation is not None else list(catalog.relations)
        for rel in targets:
            state = catalog.relations.get(rel)
            if state is None:
                continue
            for attribute in list(state.trees):
                tree = state.trees[attribute]
                override = state.tree_backends.get(attribute)
                current = override[0] if override else self.default_backend
                profile = AttributeProfile(
                    relation=rel,
                    attribute=attribute,
                    size=len(tree) if hasattr(tree, "__len__") else 0,
                    current_backend=current,
                    usage=self.evidence.usage(rel, attribute),
                    tree=tree,
                )
                decision = self.decide(profile)
                if decision is None:
                    continue
                decisions.append(decision)
                if not decision.migrate:
                    continue
                try:
                    migrate_attribute_tree(
                        catalog,
                        store,
                        rel,
                        state,
                        attribute,
                        decision.chosen_backend,
                        self.factory_for(decision.chosen_backend),
                        observer,
                    )
                except Exception as exc:  # noqa: BLE001 - quarantine & continue
                    self.commit(decision, False, error=str(exc))
                else:
                    self.commit(decision, True)
        return decisions

    # -- introspection ---------------------------------------------------

    def report(self) -> Dict[str, Any]:
        """The ``tuning_report()`` payload: evidence, picks, history."""
        return {
            "candidates": list(self.candidates),
            "excluded_candidates": dict(self.excluded_candidates),
            "min_evidence_ops": self.min_evidence_ops,
            "migration_ratio": AUTO_MIGRATION_RATIO,
            "passes": self.passes,
            "evidence": self.evidence.as_dict(),
            "decisions": {
                f"{relation}.{attribute}": decision.as_dict()
                for (relation, attribute), decision in self._last.items()
            },
            "migrations": [decision.as_dict() for decision in self.history],
            "quarantine": {
                f"{relation}.{attribute}:{backend}": remaining
                for (relation, attribute, backend), remaining in (
                    self._quarantine.items()
                )
            },
        }


def attribute_pairs(
    state: RelationState, attribute: str
) -> List[Tuple[Any, Hashable]]:
    """``(interval, ident)`` pairs of *attribute*'s tree.

    Prefers the tree's own ``items()``; reconstructs from the catalog
    (the predicates' entry clauses on *attribute*) for foreign backends
    that cannot enumerate themselves.  Both give the same multiset —
    the tree holds exactly the entry clauses ``indexed_under`` says it
    holds.
    """
    tree = state.trees[attribute]
    items = getattr(tree, "items", None)
    if items is not None:
        return [(interval, ident) for ident, interval in items()]
    pairs: List[Tuple[Any, Hashable]] = []
    for ident, attributes in state.indexed_under.items():
        if attribute not in attributes:
            continue
        predicate = state.predicates[ident]
        for clause in predicate.indexable_clauses():
            if isinstance(clause, IntervalClause) and clause.attribute == attribute:
                pairs.append((clause.interval, ident))
                break
    return pairs


def migrate_attribute_tree(
    catalog: ClauseCatalog,
    store: TreeStore,
    relation: str,
    state: RelationState,
    attribute: str,
    backend: str,
    factory: Callable[[], Any],
    observer: MatchObserver,
) -> Any:
    """Rebuild *attribute*'s tree on *backend*, transactionally.

    The replacement is fully constructed, loaded (``bulk_load`` when
    the backend has one — the O(N log N) path — incremental inserts
    otherwise) and size-checked **before** any shared state changes;
    a failure at any point before the commit leaves the old tree
    untouched and live.  The commit then performs the epoch dance that
    keeps every derived structure coherent:

    * the replacement's epoch starts past the old tree's (and the
      relation floor), and ``retire_tree`` raises the floor past the
      old epoch — so ``(attribute, tree_epoch)`` stab-cache keys can
      never alias across the swap;
    * the stab cache is cleared (uniform policy for tree-map shape
      changes) and ``state.version`` bumps, invalidating the columnar
      plane by version mismatch;
    * the pick is recorded in ``state.tree_backends`` *and* the
      catalog's durable ``backend_plan``, so rebuilds, rollbacks and
      snapshot compactions re-create the attribute on the chosen
      backend.
    """
    old_tree = state.trees[attribute]
    old_override = state.tree_backends.get(attribute)
    old_backend = old_override[0] if old_override else None
    pairs = attribute_pairs(state, attribute)
    replacement = factory()
    if hasattr(replacement, "epoch"):
        replacement.epoch = max(
            state.epoch_floor, getattr(old_tree, "epoch", 0) + 1
        )
    loader = getattr(replacement, "bulk_load", None)
    if loader is not None:
        loader(pairs)
    else:
        for interval, ident in pairs:
            replacement.insert(interval, ident)
    if hasattr(replacement, "__len__") and len(replacement) != len(pairs):
        raise PredicateError(
            f"backend {backend!r} dropped entries during migration of "
            f"{relation}.{attribute}: {len(replacement)} != {len(pairs)}"
        )
    # a maintenance tick interrupting the migration right here (the
    # ``maint.tick_during_migration`` drill) aborts before the commit:
    # the replacement is garbage-collected and the old tree stays live
    fault_point("maint.tick_during_migration")
    # ---- commit point: nothing above mutated shared state ----
    state.trees[attribute] = replacement
    store.retire_tree(state, old_tree)
    state.stab_cache.clear()
    state.version += 1
    state.tree_backends[attribute] = (backend, factory)
    catalog.backend_plan.setdefault(relation, {})[attribute] = (backend, factory)
    observer.on_backend_migration(relation, attribute, old_backend, backend)
    return replacement
