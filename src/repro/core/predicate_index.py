"""The paper's two-level predicate index (Figure 1).

Structure::

    inserted or modified tuples enter here
                    |
          hash on relation name
        /                       \\
    [relation R1]            [relation Rn]
      |- list of non-indexable predicates for Ri
      |- one IBS-tree per attribute with >= 1 indexable clause
      |       (each predicate's MOST SELECTIVE indexable clause
      |        is entered into the tree for its attribute)
      '- PREDICATES table: ident -> full predicate

Matching a tuple *t* of relation *R*:

1. hash on the relation name to find R's second-level index;
2. for every attribute of *t* that has an IBS-tree, stab the tree with
   t's value for that attribute, collecting *partial match* candidates;
3. add every non-indexable predicate of R as a candidate;
4. retrieve each candidate from the PREDICATES table and test the full
   conjunction against *t*; the survivors are the complete matches.

Step 4 is sound because a predicate is indexed under exactly one of its
clauses: if that clause does not match, the conjunction cannot match,
so skipping the predicate is safe; if it does match, the residual test
decides.

:class:`PredicateIndex` is a facade over the layered kernel in
:mod:`repro.match`: the :class:`~repro.match.catalog.ClauseCatalog`
(predicate storage and entry-clause decisions), the
:class:`~repro.match.store.TreeStore` (tree lifecycle and cache
policy), and the :class:`~repro.match.pipeline.MatchPipeline` (the one
staged match implementation), observed by a
:class:`~repro.match.observer.StatsObserver` feeding :attr:`stats`.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

from ..errors import PredicateError
from ..maintenance import MaintenancePolicy, MaintenanceScheduler
from ..match import health as _health
from ..match.catalog import ClauseCatalog, RelationState, rebuild_attribute_tree
from ..match.observer import MatchStatistics, StatsObserver
from ..match.pipeline import MatchPipeline
from ..match.store import TreeStore
from ..predicates.predicate import Predicate
from .ibs_tree import IBSTree
from .selectivity import SelectivityEstimator

__all__ = ["PredicateIndex", "MatchStatistics"]

TreeFactory = Callable[[], IBSTree]


class PredicateIndex:
    """Figure 1: hash on relation name + per-attribute IBS-trees.

    Parameters
    ----------
    tree_factory:
        Constructor for the per-attribute interval index, or the name
        of a backend registered in the
        :data:`~repro.match.registry.DEFAULT_REGISTRY` (``"ibs"``,
        ``"avl"``, ``"rb"``, ``"flat"``, …).  Defaults to the
        unbalanced :class:`~repro.core.ibs_tree.IBSTree` (as in the
        paper's measurements); pass
        :class:`~repro.core.avl_ibs_tree.AVLIBSTree` for guaranteed
        balance, or any object with the same ``insert/delete/stab``
        interface (see :mod:`repro.baselines`).
    estimator:
        Selectivity estimator used to pick each predicate's entry
        clause; defaults to the System R style constants.
    multi_clause:
        The paper indexes exactly **one** clause per predicate — the
        most selective — and relies on the residual test for the rest.
        With ``multi_clause=True`` every indexable clause enters its
        attribute's tree and a predicate is a candidate only when
        *all* of its indexed clauses match (set intersection): fewer
        residual tests at the price of more tree probes and markers.
        The ABL4 benchmark quantifies the trade-off the paper chose.
    stab_cache_size:
        Capacity of the per-relation LRU stab cache, keyed on
        ``(attribute, tree_epoch, value)``.  Every tree mutation bumps
        the tree's epoch, so entries never need invalidating — a stale
        key simply stops being looked up and ages out.  Duplicate-heavy
        (OLTP-style) tuple streams answer repeated stabs from the cache
        instead of descending the tree.  ``0`` (the default) disables
        caching.
    adaptive:
        Record observed entry-clause feedback (tuples seen, candidates
        admitted per predicate) during :meth:`match` / :meth:`match_batch`,
        enabling :meth:`retune` to migrate a predicate's entry clause
        to a different attribute tree when the static estimate behind
        the original choice turns out wrong on live data.  The paper
        picks the "most selective clause" once, from a-priori
        estimates; this closes the loop with measured selectivities.
    min_feedback_tuples:
        Minimum observed tuples per relation before a migration
        decision may be made (guards against noise on tiny samples).
    columnar:
        Try the vectorized columnar plane
        (:mod:`repro.match.columnar`) first on every
        :meth:`match_batch` call.  The plane is derived lazily from
        the attribute trees, cached on the relation's mutation
        version, and skipped when NumPy is not installed or the batch
        leaves the plane's numeric domain; the scalar pipeline remains
        the semantics of record.  The tree backend must export a stab
        plane (``tree_factory="flat"``, or ``storage="disk"``); any
        other backend raises ``ValueError`` here instead of running
        scalar.  Cannot be combined with ``adaptive`` or
        ``multi_clause``.
    maintenance:
        A :class:`~repro.maintenance.MaintenancePolicy` routing every
        periodic mechanism (retune, rebalance, disk-tier eviction)
        through one deterministic
        :class:`~repro.maintenance.MaintenanceScheduler`: the policy's
        ``retune_interval`` (with ``adaptive``) and
        ``rebalance_interval`` are the only way to run those passes
        periodically.  The scheduler's clock
        advances once per matched tuple and once per predicate write,
        and never while the index is frozen.  See
        :meth:`maintenance_report`.
    """

    #: Strategy name (matches the PredicateMatcher convention).
    name = "ibs"

    def __init__(
        self,
        tree_factory: Union[str, TreeFactory] = IBSTree,
        estimator: Optional[SelectivityEstimator] = None,
        multi_clause: bool = False,
        stab_cache_size: int = 0,
        adaptive: bool = False,
        min_feedback_tuples: int = 256,
        columnar: bool = False,
        storage: str = "memory",
        data_dir: Optional[str] = None,
        memory_budget: Optional[int] = None,
        maintenance: Optional[MaintenancePolicy] = None,
    ):
        if isinstance(tree_factory, str):
            # Imported here, not at module top: the registry's builders
            # import this module lazily and vice versa.
            from ..match.registry import DEFAULT_REGISTRY

            tree_factory = DEFAULT_REGISTRY.tree_factory(tree_factory)
        self._tree_factory = tree_factory
        if columnar and (adaptive or multi_clause):
            raise ValueError(
                "columnar=True cannot be combined with adaptive=True or "
                "multi_clause=True"
            )
        self._adaptive = bool(adaptive)
        # Imported lazily: repro.core must stay importable before
        # repro.db finishes initialising (db imports core).
        from ..db.statistics import EntryClauseFeedback

        #: Observed entry-clause selectivity counters (see
        #: :class:`~repro.db.statistics.EntryClauseFeedback`); populated
        #: only when ``adaptive`` is set.
        self.feedback = EntryClauseFeedback(min_samples=min_feedback_tuples)
        self._catalog = ClauseCatalog(estimator, multi_clause)
        if storage not in ("memory", "disk"):
            raise ValueError(
                f"unknown storage {storage!r}; expected 'memory' or 'disk'"
            )
        self._storage = storage
        self._data_dir = data_dir
        if storage == "disk":
            # Imported lazily: the disk tier is optional machinery most
            # indexes never touch.
            import tempfile as _tempfile

            from ..disk.store import DiskTreeStore

            if data_dir is None:
                self._data_dir = _tempfile.mkdtemp(prefix="repro-disk-")
            self._store: TreeStore = DiskTreeStore(
                self._data_dir, stab_cache_size, memory_budget
            )
        else:
            if memory_budget is not None:
                raise ValueError("memory_budget requires storage='disk'")
            self._store = TreeStore(tree_factory, stab_cache_size)
        if columnar and not hasattr(self._store.tree_factory, "export_stab_plane"):
            raise ValueError(
                "columnar=True needs a tree backend that exports a stab "
                "plane (tree_factory='flat' or storage='disk'), not "
                f"{getattr(tree_factory, '__name__', tree_factory)!r}"
            )
        self._observer = StatsObserver(MatchStatistics())
        self._pipeline = MatchPipeline(
            self._catalog,
            self._store,
            self._observer,
            feedback=self.feedback,
            adaptive=self._adaptive,
            columnar=bool(columnar),
        )
        self._frozen = False
        self._maintenance = self._build_maintenance(maintenance)

    def _build_maintenance(
        self, policy: Optional[MaintenancePolicy]
    ) -> Optional[MaintenanceScheduler]:
        """Register this index's periodic mechanisms as scheduler tasks.

        Without a policy no scheduler is built and the hot paths skip
        ticking entirely.
        """
        if policy is None:
            return None
        scheduler = MaintenanceScheduler(
            policy=policy, observer=self._pipeline.observer
        )
        if self._adaptive and policy.retune_interval is not None:
            scheduler.register_callback(
                "retune",
                lambda budget, relation: self.retune(relation),
                interval_ops=policy.retune_interval,
                priority=10,
                cost_class="cheap",
            )
        if policy.rebalance_interval is not None:
            scheduler.register_callback(
                "rebalance",
                lambda budget, relation: self.rebalance(relation),
                interval_ops=policy.rebalance_interval,
                priority=5,
                cost_class="bulk",
            )
        if policy.evict_interval is not None and hasattr(self._store, "maybe_evict"):
            scheduler.register_callback(
                "evict",
                lambda budget, relation: self._store.maybe_evict(),
                interval_ops=policy.evict_interval,
                priority=0,
                cost_class="io",
            )
        return scheduler

    def _tick(self, relation: Optional[str], count: int) -> None:
        """Advance the maintenance clock by *count* ops.

        The one op-count semantics (documented on
        :class:`~repro.maintenance.MaintenanceClock`): matched tuples
        and predicate writes tick, and a frozen index never ticks — so
        no maintenance task can run against frozen state.
        """
        if self._frozen:
            return
        self._maintenance.advance(count, relation=relation)

    @property
    def maintenance_scheduler(self) -> Optional[MaintenanceScheduler]:
        """The index's scheduler, or ``None`` when nothing is periodic."""
        return self._maintenance

    def maintenance_report(self) -> Dict[str, Any]:
        """Introspect the maintenance plane.

        Returns the clock position, the per-task table (intervals,
        runs, failures, backoff marks, quarantine flags), the active
        policy, and the dead-letter tail.  An index with no scheduler
        reports ``enabled: False``.
        """
        if self._maintenance is None:
            return {"enabled": False, "clock_ops": 0, "tasks": {}, "failures": []}
        return self._maintenance.report()

    # -- layer access (compat: tests reach into these) ---------------------

    @property
    def _relations(self) -> Dict[str, RelationState]:
        """The catalog's relation-name → state table."""
        return self._catalog.relations

    @property
    def _relation_of(self) -> Dict[Hashable, str]:
        """The catalog's ident → relation routing map."""
        return self._catalog.relation_of

    @property
    def _estimator(self) -> SelectivityEstimator:
        return self._catalog.estimator

    @property
    def _multi_clause(self) -> bool:
        return self._catalog.multi_clause

    @property
    def _stab_cache_size(self) -> int:
        return self._store.stab_cache_size

    @property
    def _cache_lru(self) -> bool:
        return self._store.cache_lru

    @property
    def stats(self) -> MatchStatistics:
        """Match-pipeline counters (see :class:`MatchStatistics`)."""
        return self._observer.stats

    @stats.setter
    def stats(self, value: MatchStatistics) -> None:
        self._observer.stats = value

    # -- snapshot support --------------------------------------------------

    def freeze(self) -> None:
        """Make the index permanently immutable.

        Every per-attribute tree is frozen (backends without a
        ``freeze`` method are skipped) and subsequent calls to
        :meth:`add`, :meth:`add_many`, :meth:`remove`, :meth:`retune`
        and :meth:`verify_and_rebuild` raise
        :class:`~repro.errors.PredicateError`.  Matching remains
        available — the epoch-snapshot layer (:mod:`repro.concurrency`)
        publishes frozen indexes that lock-free readers stab
        concurrently.  A frozen index intended for concurrent reads
        must be built with ``adaptive=False`` (the feedback counters
        mutate on the read path and are not synchronised), but the stab
        cache *may* stay on: freezing demotes it from LRU to
        append-only — hits skip the move-to-end touch, and inserts stop
        once the cache is full instead of evicting — and swaps the
        ``OrderedDict`` for a plain ``dict`` (odict inserts also splice
        a C-level linked list, which concurrent writers can corrupt),
        so every remaining cache operation is a single GIL-atomic
        ``dict`` access, and
        since nothing ever deletes a key from a frozen index's cache, a
        looked-up key cannot vanish mid-read.  Because frozen trees
        never bump their epochs, those cached stabs stay valid for the
        snapshot's whole lifetime — this is what lets an epoch-snapshot
        base keep serving cache hits across writes that would invalidate
        a mutable index's entire cache.  Residuals are compiled at
        registration, so readers never write them.
        """
        self._frozen = True
        self._store.cache_lru = False
        for state in self._catalog.relations.values():
            self._store.freeze_state(state)

    @property
    def frozen(self) -> bool:
        """Whether :meth:`freeze` has been called."""
        return self._frozen

    def _check_mutable(self) -> None:
        if self._frozen:
            raise PredicateError(
                "PredicateIndex is frozen (published in an epoch snapshot); "
                "build a successor index instead of mutating"
            )

    def tree_epochs(self, relation: str) -> Dict[str, int]:
        """Current ``attribute -> tree epoch`` map for *relation*.

        Publication hook for the epoch-snapshot layer and its checker:
        thanks to the per-relation epoch floor the values are monotone
        over the index's whole life, even across tree drop/recreate and
        :meth:`verify_and_rebuild`.  Unknown relations map to ``{}``.
        """
        state = self._catalog.relations.get(relation)
        if state is None:
            return {}
        return self._store.tree_epochs(state)

    # -- disk-tier introspection --------------------------------------------

    @property
    def storage(self) -> str:
        """``"memory"`` or ``"disk"``."""
        return self._storage

    @property
    def data_dir(self) -> Optional[str]:
        """The disk tier's data directory (``None`` on the memory tier)."""
        return self._data_dir

    def resident_bytes(self) -> int:
        """Approximate decoded-object bytes the trees hold in RAM.

        On the disk tier this is the evictable residency the store's
        ``memory_budget`` bounds — mmap'd pages are *not* counted, they
        belong to the OS page cache.  On the memory tier it is a
        per-interval/per-node approximation of the full object graph
        (there is nowhere to evict to, so the number is diagnostic).
        """
        counter = getattr(self._store, "resident_bytes", None)
        if counter is not None:
            return int(counter())
        total = 0
        for state in self._catalog.relations.values():
            for tree in state.trees.values():
                total += 200 * len(tree) + 120 * getattr(tree, "node_count", 0)
        return total

    def maybe_evict(self) -> bool:
        """Shed cold decoded trees if the store is over its budget.

        Disk-tier stores run their coldest-first eviction sweep and
        return True; memory-tier stores have nowhere to evict to and
        return False.  Safe on a frozen index (eviction drops caches,
        never structure) — the maintenance plane's ``evict`` task calls
        this on every live shard base.
        """
        sweep = getattr(self._store, "maybe_evict", None)
        if sweep is None:
            return False
        sweep()
        return True

    def seal(self, release: bool = False) -> Dict[str, Dict[str, str]]:
        """Seal every disk-backed tree to its segment file.

        Returns ``{relation: {attribute: segment path}}``.  With
        ``release`` the staging copies are dropped afterwards (they
        rehydrate on demand).  No-op trees (memory tier) are skipped.
        """
        out: Dict[str, Dict[str, str]] = {}
        for relation, state in self._catalog.relations.items():
            sealed: Dict[str, str] = {}
            for attribute, tree in state.trees.items():
                sealer = getattr(tree, "seal", None)
                if sealer is not None:
                    sealed[attribute] = sealer(release=release)
            if sealed:
                out[relation] = sealed
        return out

    def segment_catalog(self) -> Dict[str, Dict[str, Optional[str]]]:
        """``{relation: {attribute: current segment path or None}}``.

        ``None`` marks a dirty tree (staged mutations not yet sealed).
        Empty on the memory tier.
        """
        out: Dict[str, Dict[str, Optional[str]]] = {}
        for relation, state in self._catalog.relations.items():
            row: Dict[str, Optional[str]] = {}
            for attribute, tree in state.trees.items():
                if getattr(tree, "disk_backed", False):
                    row[attribute] = tree.segment_path
            if row:
                out[relation] = row
        return out

    # -- registration -------------------------------------------------------

    def add(self, predicate: Predicate) -> Hashable:
        """Index *predicate*; returns its identifier.

        The predicate is normalized first (same-attribute interval
        clauses merged); a contradictory predicate is rejected since it
        can never match.  Atomic: a failure (e.g. an injected fault in
        a tree insert) leaves no trace of the predicate behind.
        """
        self._check_mutable()
        ident = self._catalog.register(self._store, predicate)
        if self._maintenance is not None:
            self._tick(self._catalog.relation_of.get(ident), 1)
        return ident

    def add_many(self, predicates: Iterable[Predicate]) -> List[Hashable]:
        """Bulk-register *predicates*; returns their identifiers in order.

        Equivalent to ``[self.add(p) for p in predicates]`` but entry
        clauses destined for an attribute with **no existing tree** are
        collected and handed to the backend's :meth:`~IBSTree.bulk_load`
        in one pass — sorted endpoints, balanced structure, no per-insert
        rotations — which is how recovery and rule-set loading should
        register a large predicate population.  Clauses for attributes
        that already have a live tree are inserted incrementally (the
        tree is not rebuilt under its existing entries).

        Atomic: on any failure every predicate this call registered is
        removed again before the exception propagates.
        """
        self._check_mutable()
        idents = self._catalog.register_many(self._store, predicates)
        if self._maintenance is not None and idents:
            self._tick(None, len(idents))
        return idents

    def remove(self, ident: Hashable) -> Predicate:
        """Un-index and return the predicate registered under *ident*."""
        self._check_mutable()
        relation = self._catalog.relation_of.get(ident)
        predicate = self._catalog.unregister(self._store, ident)
        if self._maintenance is not None:
            self._tick(relation, 1)
        return predicate

    # -- matching ----------------------------------------------------------

    def match(self, relation: str, tup: Mapping[str, Any]) -> List[Predicate]:
        """All predicates of *relation* that fully match the tuple."""
        matched = self._pipeline.match(relation, tup)
        if self._maintenance is not None:
            self._tick(relation, 1)
        return matched

    def match_idents(self, relation: str, tup: Mapping[str, Any]) -> Set[Hashable]:
        """Identifiers of all fully matching predicates."""
        matched = self._pipeline.match_idents(relation, tup)
        if self._maintenance is not None:
            self._tick(relation, 1)
        return matched

    def match_batch(
        self, relation: str, tuples: Iterable[Mapping[str, Any]]
    ) -> List[List[Predicate]]:
        """Match a batch of tuples; returns one result list per tuple.

        Row *i* equals ``self.match(relation, tuples[i])``: both run
        the same scalar loop, the batch sharing one grouped stab
        descent per attribute tree across its tuples (or answering
        from the columnar plane when enabled); see
        :meth:`MatchPipeline.match_batch`.
        """
        tuple_list = list(tuples)
        results = self._pipeline.match_batch(relation, tuple_list)
        if self._maintenance is not None and tuple_list:
            self._tick(relation, len(tuple_list))
        return results

    # -- adaptive entry-clause migration -----------------------------------

    def retune(self, relation: Optional[str] = None) -> List[Hashable]:
        """One feedback-driven migration pass; returns migrated idents.

        For every indexed predicate of *relation* (or of every relation)
        with enough observed samples, compare the **observed**
        selectivity of its current entry clause — the fraction of
        matched tuples that admitted it as a candidate — against the
        estimated selectivity of its best indexable clause on a
        *different* attribute.  When the alternative's estimate is below
        ``observed * MIGRATION_RATIO`` (0.5, in
        :mod:`repro.match.catalog`), the entry clause is migrated to
        the alternative's attribute tree: the static "most selective
        clause" choice the paper fixes at registration time is revised
        with live evidence.

        The migration is transactional per predicate: the old entry is
        re-inserted if the new tree's insert fails, and if *that* also
        fails the predicate is parked on the non-indexable list (brute
        force is always sound) before the failure propagates.  After a
        pass the relation's feedback window is reset so the next
        decision rests on fresh evidence.  No-op under multi-clause
        indexing (every indexable clause is already entered) and before
        ``min_feedback_tuples`` samples.
        """
        self._check_mutable()
        return self._catalog.retune(
            self._store,
            self.feedback,
            self._observer,
            relation,
        )

    # -- tree rebalancing --------------------------------------------------

    def rebalance(self, relation: Optional[str] = None) -> List[Tuple[str, str]]:
        """Bulk-load degenerate attribute trees again; returns what it rebuilt.

        The paper's IBS-tree is unbalanced (Section 4.2): sorted
        insertion degrades it towards a list, and stabs then descend
        O(N) nodes instead of O(log N).  A tree of *relation* (or of
        every relation) counts as degenerate when its ``height``
        exceeds ``4 * node_count.bit_length()``; each such tree is
        rebuilt with ``bulk_load`` on the store's backend — balanced
        by construction — inside the transaction of
        :func:`~repro.match.catalog.rebuild_attribute_tree`.  Trees
        that do not report ``height`` and ``node_count`` are skipped.
        Returns the ``(relation, attribute)`` pairs rebuilt.
        """
        self._check_mutable()
        relations = self._catalog.relations
        targets = [relation] if relation is not None else list(relations)
        rebuilt: List[Tuple[str, str]] = []
        for rel in targets:
            state = relations.get(rel)
            if state is None:
                continue
            for attribute, tree in list(state.trees.items()):
                height = getattr(tree, "height", None)
                nodes = getattr(tree, "node_count", None)
                if height is None or nodes is None:
                    continue
                if height > 4 * nodes.bit_length():
                    rebuild_attribute_tree(
                        self._store, state, attribute, self._observer
                    )
                    rebuilt.append((rel, attribute))
        return rebuilt

    # -- introspection ---------------------------------------------------------

    def get(self, ident: Hashable) -> Predicate:
        """Return the predicate registered under *ident*."""
        return self._catalog.get(ident)

    def __contains__(self, ident: Hashable) -> bool:
        return ident in self._catalog

    def __len__(self) -> int:
        """Total number of indexed predicates across all relations."""
        return len(self._catalog)

    def predicates_for(self, relation: str) -> List[Predicate]:
        """All predicates registered for *relation*."""
        return self._catalog.predicates_for(relation)

    def relations(self) -> List[str]:
        """Relations with at least one registered predicate."""
        return list(self._catalog.relations)

    def indexed_attribute(self, ident: Hashable) -> Optional[str]:
        """The (first) attribute whose tree holds this predicate, or None."""
        attributes = self.indexed_attributes(ident)
        return attributes[0] if attributes else None

    def indexed_attributes(self, ident: Hashable) -> Tuple[str, ...]:
        """Every attribute whose tree holds this predicate (may be empty)."""
        return self._catalog.indexed_attributes(ident)

    def tree_for(self, relation: str, attribute: str) -> Optional[IBSTree]:
        """The IBS-tree for ``relation.attribute``, if one exists."""
        state = self._catalog.relations.get(relation)
        if state is None:
            return None
        return state.trees.get(attribute)

    def describe(self) -> Dict[str, Dict[str, Any]]:
        """Structural summary per relation (for reports and debugging)."""
        summary: Dict[str, Dict[str, Any]] = {}
        for relation, state in self._catalog.relations.items():
            summary[relation] = {
                "predicates": len(state.predicates),
                "non_indexable": len(state.non_indexable),
                "trees": {
                    attr: len(tree) for attr, tree in state.trees.items()
                },
            }
        return summary

    # -- self-healing ----------------------------------------------------------

    def check_invariants(self) -> bool:
        """Validate the whole index; raise on any violation.

        Checks the cross-registry bookkeeping (predicates table,
        ``indexed_under``, ``non_indexable``, ``_relation_of``), runs
        every per-attribute tree's own invariant validator, and
        differentially probes each tree against a freshly built
        reference (see :meth:`audit`).  Returns True when healthy,
        raises :class:`~repro.errors.TreeInvariantError` otherwise.
        """
        return _health.check_invariants(self._catalog, self._tree_factory)

    def audit(self) -> List[str]:
        """Non-raising health check: a list of problem descriptions.

        An empty list means the index is healthy.  Beyond the
        registry-consistency checks and each tree's internal
        validator, every tree is *differentially* probed: a reference
        tree is rebuilt from the same intervals and both are stabbed
        at every finite clause endpoint.  This catches completeness
        corruption — markers silently lost by an interrupted
        structural delete — that is invisible to the internal
        validator, which only proves the markers still present sound.
        """
        return _health.audit(self._catalog, self._tree_factory)

    def verify_and_rebuild(self) -> Dict[str, Any]:
        """Detect index corruption and repair it in place.

        Audits every relation; for each one reporting problems, drops
        its per-attribute trees and rebuilds them from the PREDICATES
        table — the durable source of truth — preserving identifiers
        and entry-clause choices, then re-audits (including the
        differential probe check) to prove the repair took.  Orphaned
        ``_relation_of`` entries with no backing predicate are pruned.

        Returns a report ``{"healthy": bool, "problems": [...],
        "rebuilt": [relation, ...]}`` where ``healthy`` reflects the
        state *before* repair.  Raises
        :class:`~repro.errors.TreeInvariantError` only if a rebuilt
        relation still fails its audit (the predicates table itself is
        damaged beyond repair).
        """
        self._check_mutable()
        return _health.verify_and_rebuild(
            self._catalog, self._store, self._tree_factory
        )

    def _rebuild_relation(self, relation: str, state: RelationState) -> None:
        """Rebuild *relation*'s trees and registries from its predicates."""
        self._catalog.rebuild_relation(self._store, relation, state)

    def __repr__(self) -> str:
        return (
            f"<PredicateIndex {len(self)} predicates over "
            f"{len(self._catalog.relations)} relations>"
        )
