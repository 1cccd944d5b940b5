"""Drive one workload through the public ``Database`` + ``RuleEngine`` API.

The system under test is the default configuration: ``Database()`` and
``RuleEngine(db)`` — the ``ibs`` matcher, no maintenance policy — driven
by one closed-loop caller in one thread.  A run is:

1. **Set-up**, repeated (``setup_s`` is the median): build the
   database, register every rule with ``create_rule`` and do one
   warm-up operation, so that lazy builds are paid here.
2. **The timed loop** for the given number of seconds.  One step is one
   ``Database.insert`` (``insert-fire``), one ``bulk_insert`` batch
   (``bulk-skewed``) or five ``drop_rule`` + five ``create_rule`` calls
   and then one batch (``rule-churn``).  Workloads without churn also
   probe rule writes in each step: a rule is dropped and at once
   created again, so the rule set the tuples see never changes.  Every
   call is timed on its own.
3. **The oracle** (:mod:`rulebench.oracle`), outside all timing.

With tracing on, the loop alternates untraced and traced blocks; the
untraced blocks give the throughput that ``trace.overhead_frac`` is
measured against, and the tail latencies.
"""

from __future__ import annotations

import gc
import math
import resource
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import Database, RuleEngine

from .host import SpeedProbe
from .oracle import check
from .trace import SpanStats, Tracer, merge
from .workloads import (
    ATTRIBUTES,
    AUDIT_RELATION,
    FUNCTIONS,
    PREDICATE_ATTRIBUTES,
    RELATION,
    Inputs,
    RuleSpec,
)

__all__ = [
    "Actions",
    "Normalized",
    "Run",
    "System",
    "Timings",
    "build",
    "normalize",
    "percentile",
    "run",
]

clock = time.perf_counter

#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = 3
#: length of one traced or untraced block of a traced run, in seconds
TRACE_BLOCK_S = 1.0
#: wall seconds per window of host-speed scaling and of ``tuples_per_s``,
#: which is the median window's tuples per busy second
RATE_WINDOW_S = 1.0
#: consecutive single inserts that make one ``batch`` on ``insert-fire``
INSERT_GROUP = 10


class Actions:
    """The benchmark's own rule actions.

    Each action records the rule's name when the oracle watches the
    triggering tuple, and audit rules also insert one row into a
    relation no rule is defined on.  :attr:`fire` is looked up on each
    call so that a traced run can wrap it.
    """

    def __init__(self, db: Database) -> None:
        self.db = db
        #: tid -> names of the rules fired for it, for watched tids only
        self.watch: Dict[int, List[str]] = {}
        self.fire = self.record

    def make(self, spec: RuleSpec) -> Callable[[Any], None]:
        name, audit = spec.name, spec.audit

        def action(context: Any) -> None:
            self.fire(context, name, audit)

        return action

    def record(self, context: Any, name: str, audit: bool) -> None:
        tid = context.tid
        fired = self.watch.get(tid)
        if fired is not None:
            fired.append(name)
        if audit:
            self.db.insert(AUDIT_RELATION, {"tid": tid, "rule": name})


@dataclass
class System:
    db: Database
    engine: RuleEngine
    actions: Actions


def build(inputs: Inputs, speed: SpeedProbe) -> Tuple[System, float]:
    """Set up once; returns the system and the normalised set-up seconds."""
    start = clock()
    probing = 0.0
    db = Database()
    db.create_relation(RELATION, ATTRIBUTES)
    db.create_relation(AUDIT_RELATION, ("tid", "rule"))
    engine = RuleEngine(db, functions=FUNCTIONS)
    actions = Actions(db)
    for spec in inputs.rules:
        probing += speed.tick()
        engine.create_rule(spec.name, RELATION, spec.condition, actions.make(spec))
    if inputs.shape.batch_size:
        db.bulk_insert(RELATION, inputs.warmup)
    else:
        db.insert(RELATION, inputs.warmup[0])
    end = clock()
    return System(db, engine, actions), (end - start - probing) * speed.factor(start, end)


@dataclass
class Timings:
    """Raw log of the calls of the untraced or the traced blocks."""

    #: (start, kind, seconds) of every timed call; kind is one of
    #: ``insert``, ``batch``, ``create``, ``drop``
    calls: List[Tuple[float, str, float]] = field(default_factory=list)
    #: (start, tuples, seconds of the workload's calls) of every step;
    #: rule write probes are not the workload's calls
    steps: List[Tuple[float, int, float]] = field(default_factory=list)

    @property
    def tuples(self) -> int:
        return sum(tuples for _, tuples, _ in self.steps)


@dataclass
class Normalized:
    """A :class:`Timings` log scaled to reference host speed (seconds)."""

    inserts: List[float]
    batches: List[float]
    creates: List[float]
    drops: List[float]
    tuples: int
    busy: float
    #: tuples per busy second of each :data:`RATE_WINDOW_S` window
    rates: List[float]


def normalize(timings: Timings, speed: SpeedProbe) -> Normalized:
    """Scale each call by the host speed of the window it started in."""
    factors: Dict[int, float] = {}

    def scale(start: float) -> Tuple[int, float]:
        window = int(start // RATE_WINDOW_S)
        if window not in factors:
            factors[window] = speed.factor(
                window * RATE_WINDOW_S, (window + 1) * RATE_WINDOW_S
            )
        return window, factors[window]

    kinds: Dict[str, List[float]] = {"insert": [], "batch": [], "create": [], "drop": []}
    for start, kind, took in timings.calls:
        kinds[kind].append(took * scale(start)[1])
    windows: Dict[int, List[float]] = {}
    for start, tuples, took in timings.steps:
        window, factor = scale(start)
        totals = windows.setdefault(window, [0, 0.0])
        totals[0] += tuples
        totals[1] += took * factor
    busy = sum(took for _, took in windows.values())
    # a window holding less than half the usual busy time is the run's
    # ragged end, not a sample
    full = [n / took for n, took in windows.values() if took >= RATE_WINDOW_S / 2]
    return Normalized(
        inserts=kinds["insert"],
        batches=kinds["batch"],
        creates=kinds["create"],
        drops=kinds["drop"],
        tuples=timings.tuples,
        busy=busy,
        rates=full,
    )


@dataclass
class Run:
    """Everything one run measured."""

    inputs: Inputs
    setup_s: List[float]
    rss_mb: float
    plain: Normalized
    traced: Normalized
    #: host speed factor over the whole run; scales the span times
    speed_factor: float
    #: span aggregates of the traced blocks, by span name
    spans: Dict[str, SpanStats]
    #: ``MatchStatistics`` deltas over the traced blocks
    match_stats: Dict[str, int]
    gc_pauses: List[float]
    attempted: int
    errors: List[str]
    quarantined: int
    oracle_checked: int
    oracle_mismatches: List[str]
    exhausted: bool
    traced_wall: float


class _Loop:
    """The closed-loop caller: one step at a time, every call timed."""

    def __init__(self, system: System, inputs: Inputs, speed: SpeedProbe):
        self.system = system
        self.inputs = inputs
        self.speed = speed
        self.position = 0
        self.step = 0
        self.probe = 0
        self.tid_base = system.db.relation(RELATION).next_tid
        #: (stream position, churn step) of every tuple the oracle checks
        self.checked: List[Tuple[int, int]] = []
        self.attempted = 0
        self.errors: List[str] = []
        self.exhausted = False

    def _call(
        self, timings: Timings, kind: str, func: Callable[..., Any], *args: Any
    ) -> Optional[float]:
        """Call and log ``func(*args)``; its seconds, or None if it raised."""
        self.attempted += 1
        began = clock()
        try:
            func(*args)
        except Exception:  # a failed call is recorded, then the run stops
            self.errors.append(traceback.format_exc())
            return None
        took = clock() - began
        timings.calls.append((began, kind, took))
        return took

    def _rule_writes(
        self, drops: Sequence[str], creates: Sequence[RuleSpec], timings: Timings
    ) -> Optional[float]:
        """Drop, then create rules, timing each call; None on a failure."""
        engine, actions = self.system.engine, self.system.actions
        spent = 0.0
        for name in drops:
            took = self._call(timings, "drop", engine.drop_rule, name)
            if took is None:
                return None
            spent += took
        for spec in creates:
            action = actions.make(spec)
            took = self._call(
                timings, "create", engine.create_rule, spec.name, RELATION, spec.condition, action
            )
            if took is None:
                return None
            spent += took
        return spent

    def _watch(self, count: int) -> None:
        inputs = self.inputs
        for position in range(self.position, self.position + count):
            if inputs.oracle_checks(position) and len(self.checked) < inputs.shape.oracle_max:
                self.checked.append((position, self.step))
                self.system.actions.watch[self.tid_base + position] = []

    def run_step(self, timings: Timings) -> bool:
        """One workload step; False when the run must stop."""
        inputs, db = self.inputs, self.system.db
        self.speed.tick()
        began = clock()
        busy = 0.0
        if inputs.churn:
            if self.step >= len(inputs.churn):
                self.exhausted = True
                return False
            ops = inputs.churn[self.step]
            spent = self._rule_writes(ops.drops, ops.creates, timings)
            if spent is None:
                return False
            busy += spent
        else:
            for _ in range(inputs.shape.probes_per_step):
                spec = inputs.probes[self.probe % len(inputs.probes)]
                self.probe += 1
                if self._rule_writes((spec.name,), (spec,), timings) is None:
                    return False
        size = max(1, inputs.shape.batch_size)
        self._watch(size)
        if inputs.shape.batch_size:
            batch = inputs.batch_at(self.position, size)
            took = self._call(timings, "batch", db.bulk_insert, RELATION, batch)
        else:
            tup = inputs.tuple_at(self.position)
            took = self._call(timings, "insert", db.insert, RELATION, tup)
        if took is None:
            return False
        timings.steps.append((began, size, busy + took))
        self.position += size
        self.step += 1
        return True

    def run_block(self, timings: Timings, until: float) -> bool:
        going = True
        while going and clock() < until:
            going = self.run_step(timings)
        return going


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(inputs: Inputs, seconds: float, trace: bool = False) -> Run:
    """Set up, run the loop for *seconds*, then check the oracle."""
    speed = SpeedProbe()
    setup_s: List[float] = []
    system: Optional[System] = None
    for _ in range(1 if trace else SETUPS):
        system = None
        gc.collect()
        system, took = build(inputs, speed)
        setup_s.append(took)
    assert system is not None
    rss_mb = _peak_rss_mb()

    loop = _Loop(system, inputs, speed)
    plain, traced = Timings(), Timings()
    tracer = Tracer()
    spans: Dict[str, SpanStats] = {}
    match_stats: Dict[str, int] = {}
    gc_pauses: List[float] = []
    gc_started = [0.0]

    def on_gc(phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            gc_started[0] = clock()
        else:
            gc_pauses.append(clock() - gc_started[0])

    end = clock() + seconds
    if not trace:
        loop.run_block(plain, end)
    else:
        gc.callbacks.append(on_gc)
        try:
            tracing = False
            while clock() < end:
                until = min(end, clock() + TRACE_BLOCK_S)
                if not tracing:
                    going = loop.run_block(plain, until)
                else:
                    before = system.engine.matcher.stats.as_dict()
                    tracer.install(
                        system.db, system.engine, system.actions, RELATION, PREDICATE_ATTRIBUTES
                    )
                    try:
                        going = loop.run_block(traced, until)
                    finally:
                        tracer.uninstall()
                    after = system.engine.matcher.stats.as_dict()
                    for key, value in after.items():
                        match_stats[key] = match_stats.get(key, 0) + value - before[key]
                    merge(spans, tracer.take())
                if not going:
                    break
                tracing = not tracing
        finally:
            gc.callbacks.remove(on_gc)

    mismatches = check(inputs, loop.checked, system.actions.watch, loop.tid_base)
    next_tid = system.db.relation(RELATION).next_tid
    if not loop.errors and next_tid != loop.tid_base + loop.position:
        mismatches.append(f"r0 next tid {next_tid}, expected {loop.tid_base + loop.position}")
    return Run(
        inputs=inputs,
        setup_s=setup_s,
        rss_mb=rss_mb,
        plain=normalize(plain, speed),
        traced=normalize(traced, speed),
        speed_factor=speed.factor(),
        spans=spans,
        match_stats=match_stats,
        gc_pauses=gc_pauses,
        attempted=loop.attempted,
        errors=loop.errors,
        quarantined=system.engine.dead_letters.total_quarantined,
        oracle_checked=len(loop.checked),
        oracle_mismatches=mismatches,
        exhausted=loop.exhausted,
        traced_wall=tracer.wall,
    )


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank *q*-quantile (``0 < q < 1``) of *values*."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]

