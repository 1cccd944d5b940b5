"""Outside-in span tracing of one live ``Database`` + ``RuleEngine``.

The tracer never edits the program.  It replaces public callables on
the live objects with wrappers that open and close a span, and puts the
originals back on :meth:`Tracer.uninstall`:

========  ==========================================================
layer     wrapped callables (span names)
========  ==========================================================
``db``    ``db.insert``, ``db.bulk_insert``
``rules`` ``engine.create_rule``, ``engine.drop_rule``,
          ``engine.agenda.post``, ``engine.agenda.drain`` and
          ``db.transaction`` opened while the agenda drains
          (``rules.savepoint``: one per firing)
``match`` ``engine.matcher.match``, ``match_batch``, ``add``, ``remove``
``core``  ``stab``, ``stab_into``, ``stab_many`` of every tree
          ``matcher.tree_for(...)`` returns, re-wrapped after each rule
          write because a write can replace a tree
``bench`` the benchmark's own rule actions
========  ==========================================================

Spans live in memory as ``[name, start, end, parent]`` records.  A
span's *self time* is its duration minus the durations of its direct
children; with one thread and strictly nested spans the children are
disjoint and inside the parent, so that is the part of the interval the
children cover.  :func:`fold` sums count, total and self time per span
name; the run folds its span list after each traced phase so memory
stays bounded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

__all__ = ["SpanStats", "Tracer", "fold", "layer_of", "merge"]

#: attributes of the trees wrapped as ``core`` spans
TREE_CALLS = ("stab", "stab_into", "stab_many")
MATCHER_CALLS = ("match", "match_batch", "add", "remove")
_CLASS = object()


@dataclass
class SpanStats:
    """Aggregate of every span of one name."""

    count: int = 0
    total: float = 0.0
    self_time: float = 0.0


def layer_of(name: str) -> str:
    """The layer a span name belongs to (its prefix before the dot)."""
    return name.split(".", 1)[0]


def fold(spans: Sequence[Sequence[Any]]) -> Dict[str, SpanStats]:
    """Count, total time and self time per span name.

    *spans* holds ``(name, start, end, parent)`` records, where *parent*
    is the index of the enclosing span in the same sequence or ``-1``,
    and every parent comes before its children.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[str, SpanStats] = {}
    for (name, start, end, _), covered in zip(spans, child_time):
        stats = out.get(name)
        if stats is None:
            stats = out[name] = SpanStats()
        stats.count += 1
        stats.total += end - start
        stats.self_time += end - start - covered
    return out


def merge(into: Dict[str, SpanStats], more: Dict[str, SpanStats]) -> None:
    """Add the aggregates of *more* to *into*."""
    for name, stats in more.items():
        target = into.setdefault(name, SpanStats())
        target.count += stats.count
        target.total += stats.total
        target.self_time += stats.self_time


class Tracer:
    """Record spans around the public calls of one engine and database."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self._draining = 0
        self._patched: List[tuple] = []
        self._trees: Dict[int, Any] = {}
        #: seconds spent installed, the wall time the spans should cover
        self.wall = 0.0
        self._installed_at = 0.0

    # -- spans ----------------------------------------------------------

    def open(self, name: str) -> int:
        stack = self._stack
        index = len(self.spans)
        self.spans.append([name, self.clock(), 0.0, stack[-1] if stack else -1])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        stack = self._stack
        # an exception can skip inner closes: unwind to this span
        while stack and stack.pop() != index:
            pass

    def wrap(self, func: Callable[..., Any], name: str) -> Callable[..., Any]:
        """*func* with a span named *name* around every call."""
        open_, close = self.open, self.close

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = open_(name)
            try:
                return func(*args, **kwargs)
            finally:
                close(index)

        return traced

    def take(self) -> Dict[str, SpanStats]:
        """Fold and forget the spans recorded so far."""
        folded = fold(self.spans)
        self.spans = []
        self._stack.clear()
        return folded

    # -- installing on live objects ----------------------------------------

    def _patch(self, obj: Any, attribute: str, replacement: Any) -> None:
        # remember an instance attribute to restore; a class attribute
        # reappears when the wrapper is deleted
        self._patched.append((obj, attribute, vars(obj).get(attribute, _CLASS)))
        setattr(obj, attribute, replacement)

    def install(
        self,
        db: Any,
        engine: Any,
        actions: Any,
        relation: str,
        attributes: Iterable[str],
    ) -> None:
        """Wrap the callables of *db*, *engine* and *actions* (see module doc).

        ``actions.fire`` is the benchmark's own action callable.
        """
        self._relation = relation
        self._attributes = tuple(attributes)
        self._patch(db, "insert", self.wrap(db.insert, "db.insert"))
        self._patch(db, "bulk_insert", self.wrap(db.bulk_insert, "db.bulk_insert"))
        self._patch(db, "transaction", self._savepoints(db.transaction))
        matcher, agenda = engine.matcher, engine.agenda
        for call in MATCHER_CALLS:
            self._patch(matcher, call, self.wrap(getattr(matcher, call), f"match.{call}"))
        self._patch(agenda, "post", self.wrap(agenda.post, "rules.post"))
        self._patch(agenda, "drain", self._drain(agenda.drain))
        for call in ("create_rule", "drop_rule"):
            write = self._rule_write(getattr(engine, call), f"rules.{call}", matcher)
            self._patch(engine, call, write)
        self._patch(actions, "fire", self.wrap(actions.fire, "bench.action"))
        self.wrap_trees(matcher)
        self._installed_at = self.clock()

    def uninstall(self) -> None:
        """Put every original callable back."""
        self.wall += self.clock() - self._installed_at
        for obj, attribute, original in reversed(self._patched):
            if original is _CLASS:
                delattr(obj, attribute)
            else:
                setattr(obj, attribute, original)
        self._patched.clear()
        self._trees.clear()

    def wrap_trees(self, matcher: Any) -> None:
        """Wrap each current attribute tree not wrapped yet."""
        for attribute in self._attributes:
            tree = matcher.tree_for(self._relation, attribute)
            if tree is None or self._trees.get(id(tree)) is tree:
                continue
            self._trees[id(tree)] = tree
            for call in TREE_CALLS:
                self._patch(tree, call, self.wrap(getattr(tree, call), f"core.{call}"))

    def _rule_write(self, func: Callable[..., Any], name: str, matcher: Any) -> Callable[..., Any]:
        """A traced rule write that wraps any tree the write created."""
        traced = self.wrap(func, name)

        def write(*args: Any, **kwargs: Any) -> Any:
            try:
                return traced(*args, **kwargs)
            finally:
                self.wrap_trees(matcher)

        return write

    def _drain(self, func: Callable[[], Any]) -> Callable[[], Any]:
        tracer = self

        def drain() -> Any:
            index = tracer.open("rules.drain")
            tracer._draining += 1
            try:
                yield from func()
            finally:
                tracer._draining -= 1
                tracer.close(index)

        return drain

    def _savepoints(self, func: Callable[[], Any]) -> Callable[[], Any]:
        tracer = self

        class Savepoint:
            """``db.transaction()``; a ``rules.savepoint`` span while draining."""

            __slots__ = ("manager", "index")

            def __enter__(self) -> Any:
                self.index: Optional[int] = (
                    tracer.open("rules.savepoint") if tracer._draining else None
                )
                self.manager = func()
                return self.manager.__enter__()

            def __exit__(self, *exc: Any) -> Any:
                try:
                    return self.manager.__exit__(*exc)
                finally:
                    if self.index is not None:
                        tracer.close(self.index)

        return Savepoint
