"""`ConcurrentPredicateIndex` — thread-safe sharded matching front-end.

Satisfies the :class:`~repro.baselines.base.PredicateMatcher` contract
(so the rule engine can select it as the ``"ibs-concurrent"`` strategy)
while allowing matching to proceed concurrently with predicate
registration, removal, compaction, and rebuilds:

* one :class:`~repro.concurrency.shard.RelationShard` per relation —
  writers to different relations never contend;
* reads are lock-free: a match loads the shard's current
  :class:`~repro.concurrency.shard.EpochSnapshot` once and works on
  that immutable state;
* :meth:`match_batch` optionally hands the batch to the supervised
  worker-process tier (:mod:`repro.parallel`), which answers in the
  snapshot's canonical row order; the in-process fallback returns the
  same rows in the same order.

Lock ordering (documented in ``docs/concurrency_model.md``): the
facade's catalog lock protects only the shard table and the ident →
relation routing map, and is never held while a shard's write lock is
taken with user code on the stack below it; shard locks are leaf locks.
Publication hooks registered via :meth:`on_publish` run under the
publishing shard's write lock and must not call back into the write
API.

On parallelism: reads run inline on the calling thread unless
``workers`` asks for worker processes.  The measured advantage of
this layer on a mixed read/write workload (see the CONCURRENCY
benchmark) comes from *snapshot isolation*: writes land in a small
overlay instead of mutating the big per-attribute trees, so the frozen
base's decode and residual caches stay warm where the serial index
invalidates them on every mutation.
"""

from __future__ import annotations

import threading
from typing import (
    Any,
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

from ..baselines.base import PredicateMatcher
from ..core.ibs_tree import IBSTree
from ..core.predicate_index import PredicateIndex, TreeFactory
from ..core.selectivity import SelectivityEstimator
from ..errors import ConcurrencyError, PredicateError, UnknownIntervalError
from ..maintenance import MaintenancePolicy, MaintenanceScheduler
from ..match.observer import MatchStatistics, StatsObserver
from ..predicates.predicate import Predicate
from .shard import (
    DEFAULT_COMPACTION_THRESHOLD,
    EpochSnapshot,
    PublishHook,
    RelationShard,
)

__all__ = ["ConcurrentPredicateIndex"]


class ConcurrentPredicateIndex(PredicateMatcher):
    """Sharded, epoch-snapshot concurrent predicate matcher.

    Parameters
    ----------
    tree_factory / estimator / multi_clause:
        Forwarded to every internal :class:`PredicateIndex` (base and
        overlay of each shard).  ``tree_factory`` also accepts the name
        of a backend registered in the
        :data:`~repro.match.registry.DEFAULT_REGISTRY` (``"ibs"``,
        ``"avl"``, …).  The internal indexes are always built
        with ``adaptive=False`` — feedback counters mutate state on the
        read path and are unsafe under lock-free readers (see
        ``docs/concurrency_model.md``).
    snapshot_cache_size:
        Stab-cache capacity for each shard's base/overlay index.
        Freezing demotes the cache to an append-only discipline (plain
        GIL-atomic dict reads/writes, no LRU reordering, no eviction),
        so it is safe under lock-free readers — and because a frozen
        tree's epoch never moves, cached stabs stay valid for the whole
        life of the snapshot.  This is the snapshot design's main
        single-CPU win over a mutable index, whose every write bumps a
        tree epoch and strands the entire cache.  ``0`` disables it.
    workers:
        Number of worker processes :meth:`match_batch` hands batches
        to.  ``0`` (the default) matches inline on the calling thread.
        ``N >= 1`` starts the supervised multiprocess tier
        (:mod:`repro.parallel`) lazily on first use: shard bases are
        published into shared memory and matched on ``N`` worker
        processes.  The string ``"process"`` means one worker per CPU.
        The tier is self-healing: worker crashes, hangs, and torn
        frames are retried and, past the restart budget, the facade
        **degrades** to the in-process path — results are identical in
        every mode, only latency changes.  With ``workers >= 1`` all
        ``match_batch`` rows are returned in the snapshot's canonical
        order (:meth:`EpochSnapshot.canonical_rank`), whichever tier
        served them, so results are reproducible across processes and
        runs.  :meth:`close` reaps the workers (the facade is also a
        context manager).
    compaction_threshold:
        Overlay/tombstone size at which a shard folds its overlay into
        a fresh bulk-loaded base.  ``None`` takes the policy's
        ``compaction_threshold`` when ``maintenance`` is given, else
        :data:`~repro.concurrency.shard.DEFAULT_COMPACTION_THRESHOLD`.
    min_chunk:
        Smallest per-worker tuple chunk worth dispatching to the
        process tier; smaller batches run inline.
    columnar:
        Forwarded to every internal index: batch reads try the
        vectorized columnar plane (:mod:`repro.match.columnar`) first.
        A natural fit for this facade — snapshot bases are frozen, so
        their mutation version never moves and the plane is built once
        per compaction.  Safe under lock-free readers: the plane cache
        is a single GIL-atomic attribute publish of an immutable
        object.  Silently inert when NumPy is not installed.  Cannot be
        combined with ``multi_clause``.
    auto_backend:
        Enable per-attribute backend auto-selection
        (:class:`~repro.match.autoselect.AutoSelector`).  Reads and
        writes accumulate workload evidence at the facade level;
        :meth:`autoselect` prices each attribute against the calibrated
        cost table and records winners in a backend *plan*.  Under
        snapshot publication the safe migration primitive is a
        compaction: the plan is applied to every fresh base built by
        the shard (``set_backend_plan``), so a migration publishes a
        whole new :class:`EpochSnapshot` and never mutates a frozen
        base — readers only ever see the old or the new epoch.
    auto_candidates / auto_cost_table / min_evidence_ops:
        Forwarded to the :class:`~repro.match.autoselect.AutoSelector`
        — candidate backend names, a pre-calibrated cost table, and
        the evidence floor below which no decision is made.
    maintenance:
        A :class:`~repro.maintenance.MaintenancePolicy` driving this
        facade's background work off the unified maintenance clock:
        ``compact_interval`` compacts shards proactively (folding
        overlays *before* the synchronous size threshold forces a
        write-side fold), ``autoselect_interval`` retunes backends
        continuously off that same clock instead of explicit
        :meth:`autoselect` calls, ``evict_interval`` sweeps disk-tier
        residency, and a :class:`~repro.disk.checkpoint.DiskCheckpointer`
        attached to this facade registers its budgeted checkpoint task
        here.  The policy's ``compaction_threshold`` also becomes the
        shards' synchronous backstop threshold unless the
        ``compaction_threshold`` argument is given.  See
        :meth:`maintenance_report`.
    """

    name = "ibs-concurrent"

    def __init__(
        self,
        tree_factory: Union[str, TreeFactory] = IBSTree,
        estimator: Optional[SelectivityEstimator] = None,
        multi_clause: bool = False,
        workers: Union[int, str] = 0,
        compaction_threshold: Optional[int] = None,
        min_chunk: int = 64,
        snapshot_cache_size: int = 4_096,
        columnar: bool = False,
        auto_backend: bool = False,
        auto_candidates: Optional[Iterable[str]] = None,
        auto_cost_table: Optional[Any] = None,
        min_evidence_ops: int = 512,
        storage: str = "memory",
        data_dir: Optional[str] = None,
        memory_budget: Optional[int] = None,
        maintenance: Optional[MaintenancePolicy] = None,
    ):
        backend_name: Optional[str] = None
        if isinstance(tree_factory, str):
            from ..match.registry import DEFAULT_REGISTRY

            backend_name = tree_factory
            tree_factory = DEFAULT_REGISTRY.tree_factory(tree_factory)
        elif tree_factory is IBSTree:
            backend_name = "ibs"
        if workers == "process":
            import os

            workers = os.cpu_count() or 1
        elif isinstance(workers, str):
            raise ConcurrencyError(
                f"unknown pool kind {workers!r}: workers takes a count or 'process'"
            )
        if columnar and multi_clause:
            raise ConcurrencyError(
                "columnar=True cannot be combined with multi_clause=True"
            )
        if storage not in ("memory", "disk"):
            raise ConcurrencyError(
                f"unknown storage {storage!r}: expected 'memory' or 'disk'"
            )
        if storage == "disk" and data_dir is None:
            import tempfile

            data_dir = tempfile.mkdtemp(prefix="repro-disk-")
        self._storage = storage
        self._data_dir = data_dir
        self._memory_budget = memory_budget
        self._tree_factory = tree_factory
        self._estimator = estimator
        self._multi_clause = bool(multi_clause)
        self._snapshot_cache_size = max(0, int(snapshot_cache_size))
        self._workers = max(0, int(workers))
        self._columnar = bool(columnar)
        if compaction_threshold is None:
            # the policy owns the synchronous backstop threshold unless
            # the caller pinned one explicitly
            compaction_threshold = (
                maintenance.compaction_threshold
                if maintenance is not None
                else DEFAULT_COMPACTION_THRESHOLD
            )
        self._compaction_threshold = int(compaction_threshold)
        self._min_chunk = max(1, int(min_chunk))
        #: catalog lock: shard-table and routing-map writes only.
        self._catalog_lock = threading.Lock()
        self._shards: Dict[str, RelationShard] = {}
        #: ident -> relation routing.  Entries are *claimed* under the
        #: catalog lock before the shard add (so the same ident can
        #: never be registered under two relations) and removed with a
        #: GIL-atomic ``pop``.
        self._relation_of: Dict[Hashable, str] = {}
        #: shared by every shard; appended to by :meth:`on_publish`.
        self._publish_hooks: List[PublishHook] = []
        self._process_pool: Optional[Any] = None
        self._pool_lock = threading.Lock()
        self._closed = False
        #: relation -> attribute -> (backend name, factory).  Mutated
        #: only under ``_auto_lock`` and published by whole-dict
        #: replacement, so ``_index_factory`` may read it bare.
        self._backend_plan: Dict[str, Dict[str, Tuple[str, Any]]] = {}
        #: guards evidence writes, plan publication, and selector
        #: bookkeeping — short critical sections only, never held
        #: across a compaction.
        self._auto_lock = threading.Lock()
        #: serializes whole :meth:`autoselect` passes (including their
        #: compactions); never taken by readers or writers.
        self._tune_lock = threading.Lock()
        self._selector: Optional[Any] = None
        if auto_backend:
            from ..match.autoselect import DEFAULT_CANDIDATES, AutoSelector

            self._selector = AutoSelector(
                candidates=(
                    tuple(auto_candidates)
                    if auto_candidates is not None
                    else DEFAULT_CANDIDATES
                ),
                cost_table=auto_cost_table,
                min_evidence_ops=min_evidence_ops,
                default_backend=backend_name,
            )
        self._maint_observer = StatsObserver(MatchStatistics())
        self._maintenance = self._build_maintenance(maintenance)

    def _build_maintenance(
        self, policy: Optional[MaintenancePolicy]
    ) -> Optional[MaintenanceScheduler]:
        """Register the facade's background work as scheduler tasks.

        ``compact`` (closing ROADMAP item 4's follow-on: background
        compaction off one clock) and ``autoselect`` (closing item 5's:
        continuous retune-by-compaction) register here; the disk tier's
        ``checkpoint`` task is registered by the
        :class:`~repro.disk.checkpoint.DiskCheckpointer` that attaches
        to this facade, and ``evict`` sweeps each shard's disk store.
        The shards' synchronous size-threshold fold stays as the
        structural backstop — a write burst can always outrun any
        periodic schedule — but its threshold is sourced from the same
        policy, so there is one place to tune both.
        """
        if policy is None:
            return None
        scheduler = MaintenanceScheduler(
            policy=policy, observer=self._maint_observer
        )
        if policy.compact_interval is not None:
            scheduler.register_callback(
                "compact",
                lambda budget, relation: self.compact(relation),
                interval_ops=policy.compact_interval,
                priority=5,
                cost_class="bulk",
            )
        if self._selector is not None and policy.autoselect_interval is not None:
            scheduler.register_callback(
                "autoselect",
                lambda budget, relation: self.autoselect(relation),
                interval_ops=policy.autoselect_interval,
                priority=3,
                cost_class="bulk",
            )
        if policy.evict_interval is not None and self._storage == "disk":
            scheduler.register_callback(
                "evict",
                lambda budget, relation: self._evict_pass(),
                interval_ops=policy.evict_interval,
                priority=0,
                cost_class="io",
            )
        return scheduler

    def _evict_pass(self) -> int:
        """Ask every live shard index to shed cold decoded trees."""
        evicted = 0
        for _relation, shard in self._shard_items():
            snap = shard.snapshot
            for index in (snap.base, snap.overlay):
                if index is not None and index.maybe_evict():
                    evicted += 1
        return evicted

    def _tick(self, relation: Optional[str], count: int) -> None:
        """Advance the maintenance clock (one op per matched tuple or
        predicate write — the unified semantics documented on
        :class:`~repro.maintenance.MaintenanceClock`)."""
        self._maintenance.advance(count, relation=relation)

    @property
    def maintenance_scheduler(self) -> Optional[MaintenanceScheduler]:
        """The facade's scheduler, or ``None`` without a policy."""
        return self._maintenance

    @property
    def maintenance_stats(self) -> MatchStatistics:
        """Counters fed by the scheduler's ``on_maintenance`` hook."""
        return self._maint_observer.stats

    def maintenance_report(self) -> Dict[str, Any]:
        """Introspect the maintenance plane (mirrors :meth:`tuning_report`)."""
        if self._maintenance is None:
            return {"enabled": False, "clock_ops": 0, "tasks": {}, "failures": []}
        return self._maintenance.report()

    # -- shard / pool management ---------------------------------------

    def _index_factory(self) -> PredicateIndex:
        index = PredicateIndex(
            tree_factory=self._tree_factory,
            estimator=self._estimator,
            multi_clause=self._multi_clause,
            stab_cache_size=self._snapshot_cache_size,
            adaptive=False,
            columnar=self._columnar,
            storage=self._storage,
            data_dir=self._data_dir,
            memory_budget=self._memory_budget,
        )
        # The auto-selection plan rides on every fresh base/overlay:
        # the plan dict is replaced wholesale under _auto_lock, so a
        # bare read here always sees a complete plan.
        plan = self._backend_plan
        if plan:
            index.set_backend_plan(plan)
        return index

    def shard(self, relation: str) -> RelationShard:
        """The shard for *relation*, creating it on first use."""
        shard = self._shards.get(relation)
        if shard is not None:
            return shard
        with self._catalog_lock:
            shard = self._shards.get(relation)
            if shard is None:
                shard = RelationShard(
                    relation,
                    self._index_factory,
                    compaction_threshold=self._compaction_threshold,
                    publish_hooks=self._publish_hooks,
                )
                self._shards[relation] = shard
            return shard

    @property
    def storage(self) -> str:
        """``"memory"`` or ``"disk"``."""
        return self._storage

    @property
    def data_dir(self) -> Optional[str]:
        """The disk tier's data directory (``None`` on the memory tier)."""
        return self._data_dir

    def resident_bytes(self) -> int:
        """Decoded-object residency summed over every published snapshot.

        Counts the current epoch's base and overlay of each shard; old
        epochs still pinned by in-flight readers are unreachable from
        here and die with their readers.
        """
        total = 0
        for _relation, shard in self._shard_items():
            snap = shard.snapshot
            for index in (snap.base, snap.overlay):
                counter = getattr(index, "resident_bytes", None)
                if counter is not None:
                    total += counter()
        return total

    def _adopt_shard(
        self,
        relation: str,
        shard: RelationShard,
        idents: Iterable[Hashable],
    ) -> None:
        """Install a recovered shard and its ident routing (cold start).

        Recovery seam for :func:`repro.disk.checkpoint.recover_concurrent`:
        the shard arrives pre-built from checkpoint segments at its
        manifest epoch, *idents* are the predicates it already holds.
        Refuses to replace a live shard — recovery populates an empty
        facade, it never clobbers one in use.
        """
        with self._catalog_lock:
            if relation in self._shards:
                raise ConcurrencyError(
                    f"cannot adopt shard {relation!r}: relation already live"
                )
            for ident in idents:
                existing = self._relation_of.get(ident)
                if existing is not None and existing != relation:
                    raise PredicateError(
                        f"predicate ident {ident!r} already indexed under "
                        f"relation {existing!r}"
                    )
                self._relation_of[ident] = relation
            self._shards[relation] = shard

    def _shard_items(self) -> List[Tuple[str, RelationShard]]:
        """Stable snapshot of the shard table, taken under the catalog lock.

        Iterating ``self._shards`` bare can race a first-use shard
        creation and raise ``dictionary changed size during iteration``.
        """
        with self._catalog_lock:
            return list(self._shards.items())

    def _claim_ident(self, ident: Hashable, relation: str) -> bool:
        """Reserve *ident* for *relation* in the routing map.

        Returns ``True`` when this call inserted the entry (the caller
        must release it with :meth:`_release_ident` if the shard add
        fails), ``False`` when the ident is already routed to the same
        relation (the shard will reject the duplicate itself).  An
        ident routed to a *different* relation raises — without this
        guard a cross-relation duplicate would silently overwrite the
        routing entry and strand the first predicate (still matching,
        unreachable via ``get``/``remove``), diverging from the serial
        index's uniqueness contract.
        """
        with self._catalog_lock:
            existing = self._relation_of.get(ident)
            if existing is None:
                self._relation_of[ident] = relation
                return True
            if existing != relation:
                raise PredicateError(
                    f"predicate ident {ident!r} already indexed under "
                    f"relation {existing!r}"
                )
            return False

    def _release_ident(self, ident: Hashable, relation: str) -> None:
        """Undo a claim whose shard add raised.

        The entry is kept when the shard's current snapshot already
        holds the ident — the predicate *was* published despite the
        exception (a post-publish hook raised, or a racing duplicate
        add won) and must stay routable.
        """
        shard = self._shards.get(relation)
        if shard is not None and ident in shard.snapshot:
            return
        with self._catalog_lock:
            if self._relation_of.get(ident) == relation:
                del self._relation_of[ident]

    # -- auto-selection evidence ---------------------------------------

    def _observe_read(
        self,
        relation: str,
        snapshot: EpochSnapshot,
        tuples: Iterable[Mapping[str, Any]],
    ) -> None:
        """Fold one read's per-attribute stab counts into the evidence.

        Counts non-null values for every attribute the snapshot keeps
        a tree for (base or overlay — both are frozen for the
        snapshot's life) — the same logical totals the serial
        pipeline's ``on_attribute_stabs`` hook reports.  Only called
        when auto-selection is on; readers pay nothing otherwise.
        """
        attrs = set(snapshot.base.attribute_backends(relation))
        if snapshot.overlay is not None:
            attrs.update(snapshot.overlay.attribute_backends(relation))
        if not attrs:
            return
        counts: Dict[str, int] = {}
        for tup in tuples:
            for attribute in attrs:
                if tup.get(attribute) is not None:
                    counts[attribute] = counts.get(attribute, 0) + 1
        if counts:
            with self._auto_lock:
                self._selector.evidence.observe_stabs(relation, counts)

    def _indexed_attrs(self, relation: str, ident: Hashable) -> Tuple[str, ...]:
        """The attributes whose trees hold *ident*, overlay first."""
        shard = self._shards.get(relation)
        if shard is None:
            return ()
        snapshot = shard.snapshot
        for index in (snapshot.overlay, snapshot.base):
            if index is None:
                continue
            attrs = index.indexed_attributes(ident)
            if attrs:
                return attrs
        return ()

    def _record_write(
        self, relation: str, attrs: Iterable[str], insert: bool
    ) -> None:
        with self._auto_lock:
            evidence = self._selector.evidence
            for attribute in attrs:
                if insert:
                    evidence.observe_insert(relation, attribute)
                else:
                    evidence.observe_delete(relation, attribute)

    def _get_process_pool(self) -> Any:
        pool = self._process_pool
        if pool is None:
            with self._pool_lock:
                pool = self._process_pool
                if pool is None:
                    if self._closed:
                        raise ConcurrencyError(
                            "ConcurrentPredicateIndex is closed"
                        )
                    from ..parallel import ProcessMatchPool

                    pool = ProcessMatchPool(
                        workers=self._workers,
                        min_chunk=self._min_chunk,
                    )
                    self._process_pool = pool
        return pool

    def _process_match(
        self, snapshot: EpochSnapshot, tuple_list: List[Mapping[str, Any]]
    ) -> Optional[List[List[Predicate]]]:
        """One attempt at the process tier; ``None`` means fall back."""
        try:
            pool = self._get_process_pool()
            return pool.match_batch(snapshot, tuple_list)
        except (ConcurrencyError, RuntimeError):
            # closed (or closing) facade, or a pool that cannot start:
            # the caller runs the batch in-process instead
            return None

    def degrade_process_tier(self, reason: str) -> None:
        """Force the process tier into degraded mode (bench/test hook).

        Subsequent ``match_batch`` calls run on the in-process path with
        identical results — this is the state the tier enters on its own
        when every worker slot exhausts its restart budget.  No-op
        unless ``workers >= 1``.
        """
        if self._workers < 1:
            return
        self._get_process_pool().degrade(reason)

    def process_stats(self) -> Optional[Dict[str, Any]]:
        """Diagnostics from the process tier (``None`` before first use).

        Keys include ``live``, ``restarts``, ``kills``, ``quarantined``,
        ``degraded`` and ``segments`` — see
        :meth:`repro.parallel.ProcessMatchPool.stats`.
        """
        pool = self._process_pool
        return pool.stats() if pool is not None else None

    def close(self) -> None:
        """Shut down the process tier.  Idempotent.

        Matching stays available afterwards (it just runs inline, with
        unchanged results); registration is unaffected.  This reaps
        every worker process and unlinks every published shared-memory
        segment.
        """
        with self._pool_lock:
            self._closed = True
            process_pool = self._process_pool
        if process_pool is not None:
            process_pool.close()

    def __enter__(self) -> "ConcurrentPredicateIndex":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- publication hooks ---------------------------------------------

    def on_publish(self, hook: PublishHook) -> None:
        """Register ``hook(relation, epoch, kind, payload)``.

        Called after every epoch publication, under the publishing
        shard's write lock — the calls for one relation arrive in
        strict epoch order.  Hooks must be fast and must never call
        this facade's write API (``add``/``remove``/``retune``/…), or
        they will deadlock on the shard lock they are already under.
        """
        self._publish_hooks.append(hook)

    # -- PredicateMatcher: registration --------------------------------

    def add(self, predicate: Predicate) -> Hashable:
        """Register *predicate*; returns its identifier."""
        normalized = predicate.normalized()
        if normalized is None:
            raise PredicateError(
                f"predicate {predicate} is unsatisfiable and cannot be indexed"
            )
        relation = normalized.relation
        ident = normalized.ident
        shard = self.shard(relation)
        claimed = self._claim_ident(ident, relation)
        try:
            shard.add(normalized)
        except BaseException:
            if claimed:
                self._release_ident(ident, relation)
            raise
        if self._selector is not None:
            self._record_write(
                relation, self._indexed_attrs(relation, ident), insert=True
            )
        if self._maintenance is not None:
            self._tick(relation, 1)
        return ident

    def add_many(self, predicates: Iterable[Predicate]) -> List[Hashable]:
        """Register many predicates grouped by relation shard."""
        by_relation: Dict[str, List[Predicate]] = {}
        ordered: List[Hashable] = []
        for predicate in predicates:
            normalized = predicate.normalized()
            if normalized is None:
                raise PredicateError(
                    f"predicate {predicate} is unsatisfiable and cannot be indexed"
                )
            by_relation.setdefault(normalized.relation, []).append(normalized)
            ordered.append(normalized.ident)
        for relation, group in by_relation.items():
            shard = self.shard(relation)
            claimed: List[Hashable] = []
            try:
                for normalized in group:
                    if self._claim_ident(normalized.ident, relation):
                        claimed.append(normalized.ident)
                shard.add_many(group)
            except BaseException:
                for ident in claimed:
                    self._release_ident(ident, relation)
                raise
            if self._selector is not None:
                for normalized in group:
                    self._record_write(
                        relation,
                        self._indexed_attrs(relation, normalized.ident),
                        insert=True,
                    )
            if self._maintenance is not None:
                self._tick(relation, len(group))
        return ordered

    def remove(self, ident: Hashable) -> Predicate:
        """Unregister and return the predicate under *ident*."""
        # pop() is atomic: exactly one of several racing removers of
        # the same ident proceeds to the shard; the rest raise here.
        relation = self._relation_of.pop(ident, None)
        if relation is None:
            raise UnknownIntervalError(ident)
        # capture before the remove: afterwards the snapshot no longer
        # holds the ident and the attributes are unrecoverable
        attrs = (
            self._indexed_attrs(relation, ident)
            if self._selector is not None
            else ()
        )
        try:
            predicate = self._shards[relation].remove(ident)
        except BaseException:
            self._relation_of.setdefault(ident, relation)
            raise
        if attrs:
            self._record_write(relation, attrs, insert=False)
        if self._maintenance is not None:
            self._tick(relation, 1)
        return predicate

    # -- PredicateMatcher: matching (lock-free reads) ------------------

    def snapshot(self, relation: str) -> EpochSnapshot:
        """The current epoch snapshot for *relation* (may be empty)."""
        return self.shard(relation).snapshot

    def match(self, relation: str, tup: Mapping[str, Any]) -> List[Predicate]:
        """All predicates of *relation* matching *tup* at one epoch."""
        snapshot = self.snapshot(relation)
        if self._selector is not None:
            self._observe_read(relation, snapshot, (tup,))
        matched = snapshot.match(tup)
        if self._maintenance is not None:
            self._tick(relation, 1)
        return matched

    def match_idents(self, relation: str, tup: Mapping[str, Any]) -> Set[Hashable]:
        """Identifiers of all matching predicates at one epoch."""
        snapshot = self.snapshot(relation)
        if self._selector is not None:
            self._observe_read(relation, snapshot, (tup,))
        matched = snapshot.match_idents(tup)
        if self._maintenance is not None:
            self._tick(relation, 1)
        return matched

    def match_idents_at(
        self, relation: str, tup: Mapping[str, Any]
    ) -> Tuple[int, frozenset]:
        """``(epoch, idents)`` — the match *and* the epoch that served it.

        The read-side half of the epoch checker protocol: a stress
        reader records this pair and the checker later validates the
        idents against a serial replay of the publication log up to
        that epoch.
        """
        snapshot = self.snapshot(relation)
        return snapshot.epoch, frozenset(snapshot.match_idents(tup))

    def match_batch(
        self, relation: str, tuples: Iterable[Mapping[str, Any]]
    ) -> List[List[Predicate]]:
        """Match several tuples against one epoch.

        The whole batch is served by a **single** snapshot — a batch
        never straddles a concurrent write.  With ``workers >= 1`` the
        batch is first offered to the supervised multiprocess tier; if
        it declines (too small, no worker available, degraded after
        exhausting its restart budget, or the facade is closed) the
        batch runs in-process instead.  Either way the rows are
        identical and arrive in the snapshot's canonical order.
        """
        snapshot = self.snapshot(relation)
        tuple_list = tuples if isinstance(tuples, list) else list(tuples)
        if self._selector is not None:
            self._observe_read(relation, snapshot, tuple_list)
        if self._workers >= 1:
            rows = self._process_match(snapshot, tuple_list)
            if rows is None:
                # degraded / declined: in-process answer, same canonical
                # order as the process tier so results are mode-independent
                rows = snapshot.canonical_rows(snapshot.match_batch(tuple_list))
        else:
            rows = snapshot.match_batch(tuple_list)
        if self._maintenance is not None and tuple_list:
            self._tick(relation, len(tuple_list))
        return rows

    # -- maintenance ---------------------------------------------------

    def compact(self, relation: Optional[str] = None) -> Dict[str, int]:
        """Force compaction; returns ``{relation: new_epoch}``."""
        if relation is not None:
            shard = self._shards.get(relation)
            items = [(relation, shard)] if shard is not None else []
        else:
            items = self._shard_items()
        return {rel: shard.compact() for rel, shard in items}

    def retune(self, relation: Optional[str] = None) -> List[Hashable]:
        """Rebuild shard bases so entry-clause choices are re-made.

        The serial index migrates individual entry clauses in place;
        under snapshot publication the equivalent safe operation is a
        per-shard compaction — the fresh base re-runs entry-clause
        selection against the current estimator for every live
        predicate, and readers only ever see the old or the new epoch.
        Returns the identifiers whose entry attribute changed.
        """
        migrated: List[Hashable] = []
        if relation is not None:
            shard = self._shards.get(relation)
            items = [(relation, shard)] if shard is not None else []
        else:
            items = self._shard_items()
        for rel, shard in items:
            before = shard.snapshot
            old_attrs = {
                pred.ident: before.base.indexed_attributes(pred.ident)
                for pred in before.base.predicates_for(rel)
            }
            shard.compact()
            after = shard.snapshot
            for pred in after.base.predicates_for(rel):
                old = old_attrs.get(pred.ident)
                if old is not None and old != after.base.indexed_attributes(
                    pred.ident
                ):
                    migrated.append(pred.ident)
        return migrated

    def autoselect(self, relation: Optional[str] = None) -> List[Any]:
        """One cost-driven backend-selection pass over the shards.

        Decisions are priced against the facade-level evidence and the
        selector's calibrated cost table, exactly as in the serial
        index.  A migration, however, never touches a published tree:
        the winning ``(backend, factory)`` pair is recorded in the
        facade's backend plan and the shard is **compacted** — the
        fresh bulk-loaded base picks the plan up via
        ``set_backend_plan`` and is published as a whole new
        :class:`EpochSnapshot`.  Readers only ever see the old or the
        new epoch; the frozen old base is never mutated.

        Returns every :class:`BackendDecision` that cleared the
        evidence floor.  A compaction failure rolls the plan back and
        quarantines the (relation, attribute, backend) triple, exactly
        like a failed serial migration.
        """
        selector = self._selector
        if selector is None:
            raise PredicateError(
                "backend auto-selection is disabled; construct the facade "
                "with auto_backend=True"
            )
        from ..match.autoselect import AttributeProfile

        if relation is not None:
            shard = self._shards.get(relation)
            items = [(relation, shard)] if shard is not None else []
        else:
            items = self._shard_items()
        decisions: List[Any] = []
        with self._tune_lock:
            with self._auto_lock:
                selector.begin_pass()
            for rel, shard in items:
                snapshot = shard.snapshot
                base = snapshot.base
                overlay = snapshot.overlay
                backends = dict(base.attribute_backends(rel))
                if overlay is not None:
                    for attribute, name in overlay.attribute_backends(rel).items():
                        backends.setdefault(attribute, name)
                migrations: List[Any] = []
                for attribute, current in backends.items():
                    base_tree = base.tree_for(rel, attribute)
                    overlay_tree = (
                        overlay.tree_for(rel, attribute)
                        if overlay is not None
                        else None
                    )
                    size = (len(base_tree) if base_tree is not None else 0) + (
                        len(overlay_tree) if overlay_tree is not None else 0
                    )
                    # probe the populated tree: pre-compaction the base
                    # may be empty while everything sits in the overlay
                    tree = base_tree
                    if tree is None or (overlay_tree is not None and not len(tree)):
                        tree = overlay_tree
                    if tree is None:
                        continue
                    plan_entry = self._backend_plan.get(rel, {}).get(attribute)
                    if plan_entry is not None:
                        current = plan_entry[0]
                    elif current is None:
                        current = selector.default_backend
                    profile = AttributeProfile(
                        relation=rel,
                        attribute=attribute,
                        size=size,
                        current_backend=current,
                        usage=selector.evidence.usage(rel, attribute),
                        tree=tree,
                    )
                    decision = selector.decide(profile)
                    if decision is None:
                        continue
                    decisions.append(decision)
                    if decision.migrate:
                        migrations.append(decision)
                if not migrations:
                    continue
                with self._auto_lock:
                    old_plan = self._backend_plan
                    plan = {r: dict(a) for r, a in old_plan.items()}
                    rel_plan = plan.setdefault(rel, {})
                    for decision in migrations:
                        rel_plan[decision.attribute] = (
                            decision.chosen_backend,
                            selector.factory_for(decision.chosen_backend),
                        )
                    self._backend_plan = plan
                try:
                    shard.compact()
                except Exception as exc:  # noqa: BLE001 - quarantine & continue
                    with self._auto_lock:
                        self._backend_plan = old_plan
                        for decision in migrations:
                            selector.commit(decision, False, error=str(exc))
                else:
                    with self._auto_lock:
                        for decision in migrations:
                            selector.commit(decision, True)
        return decisions

    def tuning_report(self) -> Dict[str, Any]:
        """The selector's report plus the facade's live backend plan."""
        selector = self._selector
        if selector is None:
            raise PredicateError(
                "backend auto-selection is disabled; construct the facade "
                "with auto_backend=True"
            )
        with self._auto_lock:
            report = selector.report()
            report["backend_plan"] = {
                rel: {attr: entry[0] for attr, entry in attrs.items()}
                for rel, attrs in self._backend_plan.items()
            }
        return report

    def verify_and_rebuild(self) -> Dict[str, Any]:
        """Audit every shard's published base; rebuild the unhealthy ones.

        Readers are never exposed to a half-repaired state: a failing
        shard keeps serving its old epoch until the verified
        replacement base is published.
        """
        problems: List[str] = []
        rebuilt: List[str] = []
        for relation, shard in self._shard_items():
            snapshot = shard.snapshot
            shard_problems = snapshot.base.audit()
            if snapshot.overlay is not None:
                shard_problems.extend(snapshot.overlay.audit())
            if not shard_problems:
                continue
            problems.extend(f"{relation}: {p}" for p in shard_problems)
            shard.rebuild()
            rebuilt.append(relation)
        return {"healthy": not problems, "problems": problems, "rebuilt": rebuilt}

    # -- introspection -------------------------------------------------

    def get(self, ident: Hashable) -> Predicate:
        """Return the predicate registered under *ident*."""
        relation = self._relation_of.get(ident)
        if relation is None:
            raise UnknownIntervalError(ident)
        return self._shards[relation].snapshot.get(ident)

    def __contains__(self, ident: Hashable) -> bool:
        return ident in self._relation_of

    def __len__(self) -> int:
        return sum(len(shard.snapshot) for _, shard in self._shard_items())

    def relations(self) -> List[str]:
        """Relations with a shard (possibly empty after removals)."""
        return [relation for relation, _ in self._shard_items()]

    def epochs(self) -> Dict[str, int]:
        """Current published epoch per relation."""
        return {
            relation: shard.snapshot.epoch
            for relation, shard in self._shard_items()
        }

    def __repr__(self) -> str:
        return (
            f"<ConcurrentPredicateIndex {len(self)} predicates over "
            f"{len(self._shards)} shards, workers={self._workers}>"
        )
