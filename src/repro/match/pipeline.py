"""The staged match pipeline: route → stab → candidates → residual → emit.

One implementation of the paper's matching procedure (module docstring
of :mod:`repro.core.predicate_index`, steps 1–4) serves every read
path:

* one scalar loop (:meth:`MatchPipeline._match_rows`) behind both
  ``match`` / ``match_idents`` — a single tuple is the one-row case —
  and ``match_batch``: grouped stab descents, one candidate stage, and
  compiled residuals that skip the clauses the index probe proved;
* the vectorized columnar plane (:mod:`repro.match.columnar`), tried
  first by ``match_batch`` when enabled, which falls back to that loop;
* the concurrency layer's epoch-snapshot reads, via the module-level
  :func:`snapshot_match_batch` merge (base results filtered through
  tombstones, overlay results appended in insertion order), of which
  :func:`snapshot_match` / :func:`snapshot_match_idents` are the
  one-tuple case, run through each index's per-tuple ``match``.

Every stage reports what it did through a
:class:`~repro.match.observer.MatchObserver` — the pipeline itself
keeps no counters — so statistics, tracing, and future observability
hang off one seam instead of scattered increments.
"""

from __future__ import annotations

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
)

from ..core.intervals import MINUS_INF, PLUS_INF
from ..predicates.predicate import Predicate
from .catalog import CLOSED, MULTI, SINGLE, TRIVIAL, ClauseCatalog, RelationState
from .observer import MatchObserver
from .store import TreeStore

__all__ = [
    "MatchPipeline",
    "snapshot_match",
    "snapshot_match_idents",
    "snapshot_match_batch",
]


class MatchPipeline:
    """Runs tuples through the staged match against catalog state.

    Parameters
    ----------
    catalog:
        The :class:`~repro.match.catalog.ClauseCatalog` holding the
        per-relation state (trees, predicates, compiled residuals).
    store:
        The :class:`~repro.match.store.TreeStore` whose cache policy
        (``stab_cache_size``, ``cache_lru``) governs the stab stage.
    observer:
        Stage-boundary sink; swap it to change what is recorded
        without touching the pipeline.
    feedback:
        Entry-clause feedback counters
        (:class:`~repro.db.statistics.EntryClauseFeedback`); consulted
        only when ``adaptive``.
    adaptive:
        Record observed entry-clause selectivities on the match path
        (never safe on a frozen index read concurrently).
    columnar:
        Try the vectorized columnar plane
        (:mod:`repro.match.columnar`) first on every
        :meth:`match_batch` call.  The plane is built lazily per
        relation, cached on the relation's mutation version, and
        silently skipped whenever NumPy is missing, the relation's
        shape is not vectorizable, or the batch carries values outside
        the plane's numeric domain — the scalar stages below remain
        the semantics of record.  The owning index rejects it together
        with ``adaptive`` (the feedback counters need the scalar path's
        per-candidate bookkeeping) or multi-clause indexing.
    """

    __slots__ = ("catalog", "store", "observer", "feedback", "adaptive", "columnar")

    def __init__(
        self,
        catalog: ClauseCatalog,
        store: TreeStore,
        observer: MatchObserver,
        feedback: Any = None,
        adaptive: bool = False,
        columnar: bool = False,
    ) -> None:
        self.catalog = catalog
        self.store = store
        self.observer = observer
        self.feedback = feedback
        self.adaptive = bool(adaptive)
        self.columnar = bool(columnar)

    # -- entry points ---------------------------------------------------

    def match(self, relation: str, tup: Mapping[str, Any]) -> List[Predicate]:
        """All predicates of *relation* that fully match the tuple.

        The one-row case of the scalar loop behind :meth:`match_batch`,
        with per-tuple route accounting and no columnar plane.
        """
        return self._match_rows(relation, [tup], False)[0]

    def match_idents(self, relation: str, tup: Mapping[str, Any]) -> Set[Hashable]:
        """Identifiers of all fully matching predicates."""
        return {pred.ident for pred in self.match(relation, tup)}

    def match_batch(
        self, relation: str, tuples: Iterable[Mapping[str, Any]]
    ) -> List[List[Predicate]]:
        """Match a batch of tuples; returns one result list per tuple.

        Row *i* holds exactly what ``self.match(relation, tuples[i])``
        returns — in the same order, since both run :meth:`_match_rows`,
        unless the columnar plane (tried first when enabled) answers the
        batch.  A batch only shares more work: one grouped stab per
        distinct value per attribute, one resolution of the
        non-indexable residuals.
        """
        tuples = list(tuples)
        if not tuples:
            return []
        if self.columnar:
            state = self.catalog.relations.get(relation)
            if state is not None:
                rows = self._columnar_match_batch(relation, state, tuples)
                if rows is not None:
                    return rows
        return self._match_rows(relation, tuples, True)

    # -- the scalar loop --------------------------------------------------

    def _match_rows(
        self, relation: str, tuples: List[Mapping[str, Any]], batched: bool
    ) -> List[List[Predicate]]:
        """Route, stab, gather candidates and test residuals for *tuples*.

        1. the tuples' values are grouped per indexed attribute,
           deduplicated and sorted, and each attribute tree is stabbed
           **once per distinct value** via ``stab_many``
           (:meth:`_stab_tables`);
        2. each tuple's candidates are read back from those tables — in
           the paper's single-clause scheme the per-attribute stabbed
           sets are disjoint, so no per-tuple union is built; under
           multi-clause indexing a candidate must be hit in every tree
           it is indexed under;
        3. residual tests run through the **compiled evaluators** in
           ``state.residuals`` (see
           :func:`~repro.match.catalog.compile_residual`), which skip
           the clauses the index probe already *proved*; every
           non-indexable predicate is tested against every tuple.

        Tuples the grouping cannot take — an unhashable, NaN or
        infinity-sentinel value in an indexed attribute — stay in this
        loop: :meth:`_stab_tables` stabs them one value at a time (a NaN
        yields every entry of the tree), and their candidates are tested
        with ``Predicate.matches``, because skipping the entry clause is
        unsound for a sentinel, which a tree stab may admit and
        ``clause.matches`` rejects.
        ``None``-valued and missing attributes are equivalent everywhere
        (the NULL rule: NULL matches no clause) and never force that.
        """
        observer = self.observer
        observer.on_route(relation, len(tuples), batched)
        state = self.catalog.relations.get(relation)
        if state is None:
            return [[] for _ in tuples]
        stab_tables, unbatchable = self._stab_tables(relation, state, tuples)
        multi_clause = self.catalog.multi_clause
        feedback = self.feedback if self.adaptive and not multi_clause else None
        if feedback is not None:
            feedback.observe_tuples(relation, len(tuples))
        indexed_under = state.indexed_under
        predicates = state.predicates
        residuals = state.residuals
        # Non-indexable predicates are tested against *every* tuple:
        # resolve their entries once per call into homogeneous per-kind
        # lists so the tuple loop runs without per-candidate dict
        # lookups or kind dispatch.
        ni_closed: List[Tuple[Any, ...]] = []
        ni_single: List[Tuple[Predicate, str, Any]] = []
        ni_multi: List[Tuple[Predicate, Any]] = []
        ni_trivial: List[Predicate] = []
        ni_opaque: List[Predicate] = []
        for ident in state.non_indexable:
            entry = residuals[ident]
            kind = entry[0]
            if kind == MULTI:
                ni_multi.append((entry[1], entry[3]))
            elif kind == SINGLE:
                ni_single.append((entry[1], entry[2], entry[3]))
            elif kind == CLOSED:
                ni_closed.append(entry)
            elif kind == TRIVIAL:
                ni_trivial.append(entry[1])
            else:
                ni_opaque.append(entry[1])
        stab_items = list(stab_tables.items())
        partial = full = 0
        results: List[List[Predicate]] = []
        for position, tup in enumerate(tuples):
            tup_get = tup.get
            row: List[Predicate] = []
            append = row.append
            hits = unbatchable.get(position)
            proven = hits is None
            if hits is None:
                hits = []
                for attribute, table in stab_items:
                    value = tup_get(attribute)
                    if value is not None:
                        hits.append((attribute, table[value]))
            if multi_clause:
                groups: List[Set[Hashable]] = [_hit_in_every_tree(indexed_under, hits)]
            else:
                groups = [stabbed for _, stabbed in hits if stabbed]
            for group in groups:
                partial += len(group)
                if feedback is not None:
                    feedback.observe_candidates(group)
                if not proven:
                    for ident in group:
                        predicate = predicates[ident]
                        if predicate.matches(tup):
                            append(predicate)
                    continue
                for ident in group:
                    entry = residuals[ident]
                    kind = entry[0]
                    if kind == CLOSED:
                        # (kind, pred, attr, low, high): the dominant
                        # shape, inlined — a closure call per candidate
                        # would double the cost of this loop.  The test
                        # is rejection-style, like Interval.contains, so
                        # partially-ordered values (NaN) get the same
                        # verdict as ``Predicate.matches``; sentinels
                        # still fail (one bound comparison proves them
                        # outside any closed interval).
                        v = tup_get(entry[2])
                        try:
                            ok = v is not None and not (
                                v < entry[3] or v > entry[4]
                            )
                        except TypeError:
                            ok = False  # incomparable value
                        if ok:
                            append(entry[1])
                    elif kind == SINGLE:
                        # (kind, pred, attr, check)
                        if entry[3](tup_get(entry[2])):
                            append(entry[1])
                    elif kind == TRIVIAL:
                        # every clause was proven by the index probes
                        append(entry[1])
                    elif kind == MULTI:
                        # (kind, pred, attrs, evaluate): evaluate fetches
                        # its own values
                        if entry[3](tup_get):
                            append(entry[1])
                    elif entry[1].matches(tup):  # OPAQUE: unknown clause subclass
                        append(entry[1])
            for entry in ni_closed:
                v = tup_get(entry[2])
                try:
                    ok = v is not None and not (v < entry[3] or v > entry[4])
                except TypeError:
                    ok = False
                if ok:
                    append(entry[1])
            for predicate, attribute, check in ni_single:
                if check(tup_get(attribute)):
                    append(predicate)
            for predicate, evaluate in ni_multi:
                if evaluate(tup_get):
                    append(predicate)
            row.extend(ni_trivial)
            for predicate in ni_opaque:
                if predicate.matches(tup):
                    append(predicate)
            full += len(row)
            results.append(row)
        observer.on_candidates(
            relation, partial, len(state.non_indexable) * len(tuples)
        )
        observer.on_residual(relation, full)
        return results

    def _columnar_match_batch(
        self,
        relation: str,
        state: RelationState,
        tuples: List[Mapping[str, Any]],
    ) -> Optional[List[List[Predicate]]]:
        """Try the vectorized columnar plane; ``None`` means "use scalar".

        The plane is cached on ``state.columnar_plane`` keyed by the
        relation's mutation version: a mutable index rebuilds it after
        every catalog change, a frozen index builds it exactly once.
        The cache write is a single attribute assignment and every
        builder computes an equivalent plane, so concurrent readers of
        a frozen index race benignly.  No observer event fires unless
        the plane actually answers the batch — the scalar fallback
        must report a virgin stage sequence.

        The plane bails (``None``) on out-of-domain values and the
        scalar loop takes the whole batch, unhashable and sentinel
        values included.  ``None``-valued and missing attributes are
        equivalent on both (the NULL rule) and bail nothing.
        """
        from . import columnar

        if not columnar.HAVE_NUMPY:
            return None
        cached = state.columnar_plane
        if cached is not None and cached[0] == state.version:
            plane = cached[1]
        else:
            plane = columnar.build_relation_plane(state)
            state.columnar_plane = (state.version, plane)
        if plane is None:
            return None
        rows = plane.match_batch(tuples, self.observer, relation)
        if rows is not None and self.observer.wants_attribute_stabs:
            # same logical accounting as the scalar paths: one probe
            # per non-NULL value of an indexed attribute
            attr_counts: Dict[str, int] = {}
            for attribute in state.trees:
                count = sum(
                    1 for tup in tuples if tup.get(attribute) is not None
                )
                if count:
                    attr_counts[attribute] = count
            if attr_counts:
                self.observer.on_attribute_stabs(relation, attr_counts)
        return rows

    def _stab_tables(
        self, relation: str, state: RelationState, tuples: List[Mapping[str, Any]]
    ) -> Tuple[
        Dict[str, Dict[Any, Optional[Set[Hashable]]]],
        Dict[int, List[Tuple[str, Optional[Set[Hashable]]]]],
    ]:
        """Run the stab stage for *tuples* and report it to the observer.

        Returns ``(stab_tables, unbatchable)``.  *stab_tables* maps each
        indexed attribute to a table ``value -> stabbed idents``
        (``None`` for values incomparable with the tree), filled by one
        grouped ``stab_many`` descent per tree over the distinct values
        of the batchable tuples, or from the epoch-keyed stab cache.

        A tuple is *unbatchable* when an indexed attribute holds an
        unhashable value — the per-value grouping and the stab tables
        need to hash it — an infinity sentinel, for which the caller
        must not skip the proven entry clause, or a NaN, which
        ``Interval.contains`` admits to every interval while a tree
        descent drops it into one gap.  Such a tuple is stabbed one
        value at a time, a NaN yielding every entry of the tree;
        *unbatchable* maps its position to its ``(attribute, stabbed
        idents or None)`` pairs.

        The reported *probes* are logical — one per non-NULL value of an
        indexed attribute, however the tuples are grouped — while
        *descents* count the tree descents actually performed.
        ``None``-valued and *missing* attributes both mean "no probe"
        (the NULL rule, NULL matches no clause), here and on the
        columnar plane alike.
        """
        trees = state.trees
        stab_tables: Dict[str, Dict[Any, Optional[Set[Hashable]]]] = {}
        unbatchable: Dict[int, List[Tuple[str, Optional[Set[Hashable]]]]] = {}
        attr_counts: Optional[Dict[str, int]] = (
            {} if self.observer.wants_attribute_stabs else None
        )
        attributes = list(trees)
        by_attribute: Dict[str, Set[Any]] = {a: set() for a in attributes}
        probes = descents = cache_hits = 0
        for position, tup in enumerate(tuples):
            tup_get = tup.get
            staged: List[Tuple[str, Any]] = []
            batchable = True
            for attribute in attributes:
                value = tup_get(attribute)
                if value is None:
                    continue  # NULL rule: no probe
                if value is MINUS_INF or value is PLUS_INF:
                    batchable = False
                else:
                    try:
                        hash(value)
                    except TypeError:
                        batchable = False
                    else:
                        if value != value:  # NaN
                            batchable = False
                staged.append((attribute, value))
            probes += len(staged)
            if attr_counts is not None:
                for attribute, _ in staged:
                    attr_counts[attribute] = attr_counts.get(attribute, 0) + 1
            if batchable:
                for attribute, value in staged:
                    by_attribute[attribute].add(value)
                continue
            hits: List[Tuple[str, Optional[Set[Hashable]]]] = []
            for attribute, value in staged:
                if value != value:
                    # NaN lies in every interval for Interval.contains,
                    # but a descent drops it into one gap: every entry
                    # of the tree is a candidate (read from the catalog,
                    # since not every backend iterates its idents)
                    hits.append(
                        (
                            attribute,
                            {
                                ident
                                for ident, under in state.indexed_under.items()
                                if attribute in under
                            },
                        )
                    )
                    continue
                descents += 1
                try:
                    hits.append((attribute, trees[attribute].stab(value)))
                except TypeError:
                    hits.append((attribute, None))  # incomparable value
            unbatchable[position] = hits
        cache_size = self.store.stab_cache_size
        cache: Any = state.stab_cache
        lru = self.store.cache_lru
        for attribute in attributes:
            values = by_attribute[attribute]
            if not values:
                stab_tables[attribute] = {}
                continue
            try:
                ordered: List[Any] = sorted(values)
            except TypeError:
                ordered = list(values)  # mixed domains: order is just locality
            tree = trees[attribute]
            epoch = getattr(tree, "epoch", None) if cache_size else None
            if epoch is None:
                # one grouped descent per tree per call
                descents += 1
                stab_tables[attribute] = tree.stab_many(ordered)
                continue
            # answer cached values without touching the tree; stab the
            # misses in one grouped descent and remember them
            table: Dict[Any, Optional[Set[Hashable]]] = {}
            misses: List[Any] = []
            for value in ordered:
                key = (attribute, epoch, value)
                cached = cache.get(key)
                if cached is None:
                    misses.append(value)
                else:
                    if lru:
                        cache.move_to_end(key)
                    cache_hits += 1
                    table[value] = cached
            if misses:
                descents += 1
                for value, stabbed in tree.stab_many(misses).items():
                    table[value] = stabbed
                    if stabbed is not None:
                        if lru:
                            cache[(attribute, epoch, value)] = frozenset(stabbed)
                            if len(cache) > cache_size:
                                cache.popitem(last=False)
                        elif len(cache) < cache_size:
                            # frozen: append-only, never evict
                            cache[(attribute, epoch, value)] = frozenset(stabbed)
            stab_tables[attribute] = table
        self.observer.on_stab(relation, probes, descents, cache_hits)
        if attr_counts:
            self.observer.on_attribute_stabs(relation, attr_counts)
        return stab_tables, unbatchable


def _hit_in_every_tree(
    indexed_under: Mapping[Hashable, Tuple[str, ...]],
    hits: List[Tuple[str, Optional[Set[Hashable]]]],
) -> Set[Hashable]:
    """Multi-clause candidates: idents hit in *every* tree they are in.

    *hits* pairs each probed attribute with its stabbed idents, or with
    ``None`` when the value was incomparable — that attribute counts as
    not probed, so no predicate indexed under it can be a candidate
    (that clause cannot match).
    """
    counts: Dict[Hashable, int] = {}
    probed: Set[str] = set()
    for attribute, stabbed in hits:
        if stabbed is None:
            continue
        probed.add(attribute)
        for ident in stabbed:
            counts[ident] = counts.get(ident, 0) + 1
    candidates: Set[Hashable] = set()
    for ident, count in counts.items():
        attributes = indexed_under[ident]
        if count == len(attributes) and all(a in probed for a in attributes):
            candidates.add(ident)
    return candidates


# ----------------------------------------------------------------------
# epoch-snapshot merge (the concurrency read path)
# ----------------------------------------------------------------------
#
# A published EpochSnapshot is (base, overlay, removed, overlay_preds):
# a big frozen index, a small frozen index over the writes since the
# last compaction, the tombstoned idents, and the overlay's predicates
# in insertion order.  Matching against a snapshot is base results
# filtered through the tombstones, then overlay results appended in
# insertion order — a fixed order per snapshot, so concurrent and
# repeated calls agree exactly.  These functions are the single
# implementation of that merge; ``EpochSnapshot`` delegates to them, so
# the snapshot read path runs the same pipeline code as everything else
# (each frozen index's own match methods route through its
# MatchPipeline).


def snapshot_match(snapshot: Any, tup: Mapping[str, Any]) -> List[Predicate]:
    """All live predicates matching *tup*: the :func:`snapshot_match_batch`
    merge on one tuple, with the indexes' per-tuple ``match`` (per-tuple
    route accounting, no columnar plane)."""
    return _snapshot_rows(snapshot, [tup], 8, False)[0]


def snapshot_match_idents(snapshot: Any, tup: Mapping[str, Any]) -> Set[Hashable]:
    """Identifiers of all live predicates matching *tup*."""
    return {pred.ident for pred in snapshot_match(snapshot, tup)}


def snapshot_match_batch(
    snapshot: Any,
    tuples: Iterable[Mapping[str, Any]],
    overlay_scan_limit: int = 8,
) -> List[List[Predicate]]:
    """Match several tuples against one epoch.

    Base matches come first (in the base index's order), overlay
    matches after (in insertion order).  An overlay of at most
    *overlay_scan_limit* predicates is evaluated by a direct per-tuple
    scan — running the full pipeline (stab tables plus per-tuple
    assembly) over a second index costs more than testing a handful of
    predicates outright.
    """
    return _snapshot_rows(snapshot, list(tuples), overlay_scan_limit, True)


def _snapshot_rows(
    snapshot: Any,
    tuple_list: List[Mapping[str, Any]],
    overlay_scan_limit: int,
    batched: bool,
) -> List[List[Predicate]]:
    """The snapshot merge; *batched* picks each index's ``match_batch``
    over its per-tuple ``match``."""
    relation = snapshot.relation

    def rows_of(index: Any) -> List[List[Predicate]]:
        if batched:
            batch_rows: List[List[Predicate]] = index.match_batch(
                relation, tuple_list
            )
            return batch_rows
        return [index.match(relation, tup) for tup in tuple_list]

    removed = snapshot.removed
    base_rows = rows_of(snapshot.base)
    if removed:
        rows: List[List[Predicate]] = [
            [pred for pred in row if pred.ident not in removed]
            for row in base_rows
        ]
    else:
        rows = [list(row) for row in base_rows]
    if snapshot.overlay is not None and snapshot.overlay_preds:
        if len(snapshot.overlay_preds) <= overlay_scan_limit:
            overlay_preds = snapshot.overlay_preds
            for tup, row in zip(tuple_list, rows):
                for pred in overlay_preds:
                    if pred.matches(tup):
                        row.append(pred)
        else:
            overlay_rows = rows_of(snapshot.overlay)
            for row, overlay_row in zip(rows, overlay_rows):
                if not overlay_row:
                    continue
                hits = {pred.ident for pred in overlay_row}
                row.extend(
                    pred
                    for pred in snapshot.overlay_preds
                    if pred.ident in hits
                )
    return rows
