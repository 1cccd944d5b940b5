"""Supervision tests for the multiprocess matching tier.

The tier's one promise: whatever the workers do — crash mid-batch,
hang past the deadline, return torn frames, lose their shared-memory
segment, exhaust their restart budget — ``match_batch`` answers with
exactly the rows the in-process path produces, and no process or
shared-memory segment outlives ``close()``.

Every differential here compares against the snapshot's canonical row
order (:meth:`EpochSnapshot.canonical_rank`): per-row *content* is the
semantic contract, and canonical order is the process tier's documented
ordering, identical in remote, retried, and degraded modes alike.

The seed sweep defaults to 0..1; CI widens it via the
``PARALLEL_SEEDS`` environment variable (comma-separated integers).
"""

import os
import random
import subprocess
import sys
import textwrap

import pytest

from repro.concurrency import ConcurrentPredicateIndex, RelationShard
from repro.core.flat_ibs_tree import FlatIBSTree
from repro.core.ibs_tree import IBSTree
from repro.core.intervals import Interval
from repro.core.predicate_index import PredicateIndex
from repro.errors import FrameError
from repro.parallel import (
    MAGIC,
    ProcessMatchPool,
    decode_frame,
    encode_frame,
    shared_memory_available,
)
from repro.parallel.shm import SegmentRegistry, attach_bytes, create_segment
from repro.predicates.clauses import FunctionClause, IntervalClause
from repro.predicates.predicate import Predicate
from repro.testing.faults import FaultInjector, injected

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="multiprocessing.shared_memory unavailable"
)

SEEDS = [int(s) for s in os.environ.get("PARALLEL_SEEDS", "0,1").split(",")]

BACKENDS = [IBSTree, FlatIBSTree]
BACKEND_IDS = ["ibs", "flat"]

FAULT_SITES = [
    "worker.kill_before_reply",
    "worker.hang",
    "ipc.corrupt_frame",
    "shm.unlink_early",
]


def interval_pred(ident, low, high, attribute="x", relation="r"):
    return Predicate(
        relation,
        [IntervalClause(attribute, Interval.closed(low, high))],
        ident=ident,
    )


def is_even(value):
    # module level, so predicates using it pickle into the workers
    return value % 2 == 0


def build_shard(seed, backend=IBSTree, predicates=150, relation="r"):
    rng = random.Random(seed)
    shard = RelationShard(
        relation, lambda: PredicateIndex(tree_factory=backend, adaptive=False)
    )
    preds = []
    for i in range(predicates):
        low = rng.randint(0, 400)
        preds.append(interval_pred(f"p{i}", low, low + rng.randint(5, 60)))
    # residuals compiled to closures (two clauses, a function clause)
    # must survive the trip to the workers
    for i in range(10):
        low = rng.randint(0, 400)
        preds.append(
            Predicate(
                relation,
                [
                    IntervalClause("x", Interval.closed(low, low + 80)),
                    IntervalClause("y", Interval.closed(0, rng.randint(10, 40))),
                ],
                ident=f"xy{i}",
            )
        )
    preds.append(
        Predicate(
            relation,
            [
                IntervalClause("x", Interval.closed(100, 300)),
                FunctionClause("x", is_even),
            ],
            ident="even",
        )
    )
    shard.add_many(preds)
    # a handful of overlay entries so the inline-overlay path is live
    for i in range(5):
        shard.add(interval_pred(f"o{i}", i * 17, i * 17 + 120))
    return shard


def workload(seed, size=240):
    rng = random.Random(seed * 7919 + 13)
    return [
        {"x": rng.randint(-20, 470), "y": rng.randint(0, 50)} for _ in range(size)
    ]


def canonical(snapshot, tuples):
    return snapshot.canonical_rows(snapshot.match_batch(tuples))


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------


class TestFraming:
    def test_roundtrip(self):
        payload = {"op": "match", "tuples": [{"x": 1}], "nested": [1, "two", None]}
        assert decode_frame(encode_frame(payload)) == payload

    def test_bad_magic_rejected(self):
        data = bytearray(encode_frame({"op": "ping"}))
        data[0] ^= 0xFF
        with pytest.raises(FrameError, match="magic"):
            decode_frame(bytes(data))

    def test_corrupt_payload_rejected(self):
        data = bytearray(encode_frame({"op": "ping", "seq": 7}))
        data[len(data) // 2] ^= 0xFF
        with pytest.raises(FrameError):
            decode_frame(bytes(data))

    def test_truncated_frame_rejected(self):
        data = encode_frame({"op": "ping"})
        with pytest.raises(FrameError):
            decode_frame(data[: len(MAGIC) + 2])
        with pytest.raises(FrameError, match="length mismatch"):
            decode_frame(data[:-3])

    def test_absurd_length_rejected(self):
        import struct

        header = struct.pack("<4sII", MAGIC, 1 << 30, 0)
        with pytest.raises(FrameError, match="absurd"):
            decode_frame(header + b"x" * 16)


# ----------------------------------------------------------------------
# shared-memory registry
# ----------------------------------------------------------------------


class TestSegmentRegistry:
    def test_publish_attach_roundtrip(self):
        registry = SegmentRegistry()
        payload = os.urandom(4096)
        name, length = registry.publish("r", 1, payload)
        assert attach_bytes(name, length) == payload
        registry.close()
        with pytest.raises(FileNotFoundError):
            attach_bytes(name, length)

    def test_republish_returns_existing(self):
        registry = SegmentRegistry()
        name1, _ = registry.publish("r", 1, b"abc")
        name2, _ = registry.publish("r", 1, b"abc")
        assert name1 == name2
        assert len(registry) == 1
        registry.close()

    def test_generation_reclamation(self):
        registry = SegmentRegistry(keep_generations=2)
        names = [registry.publish("r", token, b"x" * 64)[0] for token in range(4)]
        assert len(registry) == 2
        live = registry.live_segments()
        assert names[3] in live and names[2] in live
        with pytest.raises(FileNotFoundError):
            attach_bytes(names[0], 64)
        registry.close()
        assert registry.live_segments() == []

    def test_close_idempotent(self):
        registry = SegmentRegistry()
        registry.publish("r", 1, b"abc")
        registry.close()
        registry.close()
        assert len(registry) == 0

    def test_create_segment_owned_by_caller(self):
        shm = create_segment(b"hello")
        try:
            assert bytes(shm.buf[:5]) == b"hello"
        finally:
            shm.close()
            shm.unlink()


# ----------------------------------------------------------------------
# differential: pool vs serial, across backends and seeds
# ----------------------------------------------------------------------


class TestDifferential:
    @pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_pool_matches_serial(self, backend, seed):
        shard = build_shard(seed, backend)
        snap = shard.snapshot
        tuples = workload(seed)
        expected = canonical(snap, tuples)
        with ProcessMatchPool(workers=2, min_chunk=16, deadline=15.0) as pool:
            rows = pool.match_batch(snap, tuples)
            assert rows is not None
            assert rows == expected
            for got_row, want_row in zip(rows, expected):
                for got, want in zip(got_row, want_row):
                    assert got is want  # parent's own Predicate objects

    @pytest.mark.parametrize("seed", SEEDS)
    def test_pool_tracks_epoch_changes(self, seed):
        shard = build_shard(seed)
        tuples = workload(seed, size=120)
        with ProcessMatchPool(workers=1, min_chunk=16, deadline=15.0) as pool:
            for round_no in range(3):
                snap = shard.snapshot
                assert pool.match_batch(snap, tuples) == canonical(snap, tuples)
                shard.add(interval_pred(f"x{seed}-{round_no}", 40, 300))
                shard.remove(f"p{round_no}")

    def test_small_batches_decline(self):
        shard = build_shard(0)
        with ProcessMatchPool(workers=1, min_chunk=64) as pool:
            assert pool.match_batch(shard.snapshot, workload(0, size=10)) is None
            assert pool.match_batch(shard.snapshot, []) == []


# ----------------------------------------------------------------------
# fault drills: every site, identical results
# ----------------------------------------------------------------------


class TestFaultDrills:
    @pytest.mark.parametrize("site", FAULT_SITES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_drill_results_identical(self, site, seed):
        shard = build_shard(seed)
        snap = shard.snapshot
        tuples = workload(seed)
        with ProcessMatchPool(workers=2, min_chunk=16, deadline=2.0) as pool:
            expected = canonical(snap, tuples)
            with injected(FaultInjector().arm(site)) as injector:
                rows = pool.match_batch(snap, tuples)
            assert injector.fault_count == 1, "drill did not fire"
            assert rows is not None
            assert rows == expected

    def test_kill_mid_batch_restarts_worker(self):
        shard = build_shard(1)
        snap = shard.snapshot
        tuples = workload(1)
        with ProcessMatchPool(workers=2, min_chunk=16, deadline=10.0) as pool:
            expected = canonical(snap, tuples)
            with injected(FaultInjector().arm("worker.kill_before_reply")):
                assert pool.match_batch(snap, tuples) == expected
            stats = pool.stats()
            assert stats["kills"] == 1
            assert stats["restarts"] == 1
            assert not stats["degraded"]
            # the replacement worker serves the next batch
            assert pool.match_batch(snap, tuples) == expected

    def test_corrupt_frame_recovers_without_kill(self):
        shard = build_shard(2)
        snap = shard.snapshot
        tuples = workload(2)
        with ProcessMatchPool(workers=1, min_chunk=16, deadline=10.0) as pool:
            expected = canonical(snap, tuples)
            with injected(FaultInjector().arm("ipc.corrupt_frame")):
                assert pool.match_batch(snap, tuples) == expected
            stats = pool.stats()
            assert stats["kills"] == 0, "bad-frame reject must not cost a worker"

    def test_unlink_early_republishes(self):
        shard = build_shard(3)
        snap = shard.snapshot
        tuples = workload(3)
        with ProcessMatchPool(workers=1, min_chunk=16, deadline=10.0) as pool:
            expected = canonical(snap, tuples)
            with injected(FaultInjector().arm("shm.unlink_early")):
                assert pool.match_batch(snap, tuples) == expected
            # the republished segment is attachable again
            assert pool.match_batch(snap, tuples) == expected
            assert len(pool.registry.live_segments()) == 1


# ----------------------------------------------------------------------
# degradation: budget exhaustion, quarantine, facade fallback
# ----------------------------------------------------------------------


class TestDegradation:
    def test_budget_exhaustion_degrades_without_dropping(self):
        shard = build_shard(4)
        snap = shard.snapshot
        tuples = workload(4)
        pool = ProcessMatchPool(
            workers=1, min_chunk=16, deadline=2.0, max_restarts=1, backoff=0.01
        )
        try:
            expected = canonical(snap, tuples)
            injector = FaultInjector(
                rate=1.0, sites=["worker.kill_before_reply"], max_faults=None
            )
            with injected(injector):
                rows = pool.match_batch(snap, tuples)
            # every dispatch was killed, yet the batch was answered
            assert rows == expected
            stats = pool.stats()
            assert stats["degraded"]
            assert "restart budget" in stats["degraded_reason"]
            assert stats["quarantined"] >= 1
            failure = pool.supervisor.failures[0]
            assert failure.relation == "r"
            assert failure.kills >= 2
            assert "batch" in failure.describe()
            # degraded pool declines; nothing hangs, nothing raises
            assert pool.match_batch(snap, tuples) is None
        finally:
            pool.close()

    def test_forced_degrade_is_terminal(self):
        shard = build_shard(5)
        with ProcessMatchPool(workers=1, min_chunk=16) as pool:
            pool.degrade("bench: measuring degraded mode")
            assert pool.degraded
            assert pool.match_batch(shard.snapshot, workload(5)) is None
            assert pool.stats()["live"] == 0

    def test_facade_degraded_results_identical(self):
        preds = [interval_pred(f"p{i}", i * 3, i * 3 + 25) for i in range(120)]
        tuples = [{"x": v % 380} for v in range(0, 720, 2)]
        with ConcurrentPredicateIndex(
            workers=2, pool="process", min_chunk=16
        ) as idx:
            idx.add_many(preds)
            healthy = idx.match_batch("r", tuples)
            idx.degrade_process_tier("test: simulate budget exhaustion")
            degraded = idx.match_batch("r", tuples)
            assert degraded == healthy
        post_close = idx.match_batch("r", tuples)
        assert post_close == healthy


# ----------------------------------------------------------------------
# facade integration
# ----------------------------------------------------------------------


class TestFacade:
    def test_process_pool_results_match_thread_pool(self):
        preds = [interval_pred(f"p{i}", i * 2, i * 2 + 30) for i in range(150)]
        tuples = [{"x": v % 320} for v in range(0, 600, 2)]
        with ConcurrentPredicateIndex(workers=2, min_chunk=16) as threaded:
            threaded.add_many(preds)
            thread_rows = threaded.match_batch("r", tuples)
            reference = threaded.snapshot("r").canonical_rows(thread_rows)
        with ConcurrentPredicateIndex(
            workers=2, pool="process", min_chunk=16
        ) as process:
            process.add_many(preds)
            assert process.match_batch("r", tuples) == reference

    def test_workers_process_shorthand(self):
        idx = ConcurrentPredicateIndex(workers="process", min_chunk=16)
        try:
            assert idx._pool_kind == "process"
            assert idx._workers >= 1
        finally:
            idx.close()

    def test_unknown_pool_kind_rejected(self):
        from repro.errors import ConcurrencyError

        with pytest.raises(ConcurrencyError, match="unknown pool kind"):
            ConcurrentPredicateIndex(pool="fibers")

    def test_close_idempotent_and_stats(self):
        idx = ConcurrentPredicateIndex(workers=1, pool="process", min_chunk=16)
        assert idx.process_stats() is None  # lazy: no pool before first use
        idx.add(interval_pred("a", 0, 100))
        idx.match_batch("r", [{"x": 5}] * 40)
        stats = idx.process_stats()
        assert stats is not None and stats["workers"] == 1
        idx.close()
        idx.close()
        assert idx.process_stats()["closed"]

    def test_registry_capability_and_option(self):
        from repro.match.registry import DEFAULT_REGISTRY

        caps = DEFAULT_REGISTRY.describe_matcher("ibs-concurrent")["capabilities"]
        assert caps.get("process_parallel") is True
        matcher = DEFAULT_REGISTRY.create_matcher(
            "ibs-concurrent", workers=1, pool="process", min_chunk=16
        )
        try:
            assert matcher._pool_kind == "process"
        finally:
            matcher.close()


# ----------------------------------------------------------------------
# resource reclamation
# ----------------------------------------------------------------------


class TestReclamation:
    def test_segments_and_workers_reclaimed_after_close(self):
        shard = build_shard(6)
        pool = ProcessMatchPool(workers=2, min_chunk=16)
        pool.match_batch(shard.snapshot, workload(6))
        procs = [
            h.process for h in pool.supervisor._slots if h is not None
        ]
        assert pool.registry.live_segments()
        pool.close()
        assert pool.registry.live_segments() == []
        for proc in procs:
            assert not proc.is_alive()

    def test_segments_reclaimed_after_sigkill(self):
        shard = build_shard(7)
        snap = shard.snapshot
        pool = ProcessMatchPool(workers=1, min_chunk=16, deadline=5.0)
        try:
            with injected(FaultInjector().arm("worker.kill_before_reply")):
                pool.match_batch(snap, workload(7))
            assert pool.stats()["kills"] == 1
            segments = list(pool.registry.live_segments())
            assert len(segments) == 1  # SIGKILLed attacher leaked nothing
        finally:
            pool.close()
        assert pool.registry.live_segments() == []

    def test_no_resource_tracker_warnings(self):
        """End-to-end in a clean interpreter: crash workers, close, exit.

        Any resource_tracker complaint ("leaked shared_memory objects",
        KeyError on unregister, ...) lands on stderr after interpreter
        exit — assert the whole run is silent under ``-W error``.
        """
        script = textwrap.dedent(
            """
            import random
            from repro.concurrency import RelationShard
            from repro.core.predicate_index import PredicateIndex
            from repro.core.intervals import Interval
            from repro.parallel import ProcessMatchPool
            from repro.predicates.clauses import FunctionClause, IntervalClause
            from repro.predicates.predicate import Predicate
            from repro.testing.faults import FaultInjector, injected

            shard = RelationShard("r", PredicateIndex)
            rng = random.Random(3)
            shard.add_many([
                Predicate(
                    "r",
                    [IntervalClause("x", Interval.closed(low, low + 30))],
                    ident=f"p{i}",
                )
                for i, low in ((i, rng.randint(0, 300)) for i in range(80))
            ])
            tuples = [{"x": rng.randint(0, 350)} for _ in range(120)]
            snap = shard.snapshot
            pool = ProcessMatchPool(workers=2, min_chunk=16, deadline=5.0)
            expected = snap.canonical_rows(snap.match_batch(tuples))
            assert pool.match_batch(snap, tuples) == expected
            with injected(FaultInjector().arm("worker.kill_before_reply")):
                assert pool.match_batch(snap, tuples) == expected
            pool.close()
            # a second pool abandoned WITHOUT close(): the finalizer
            # must reclaim its segments at interpreter exit
            leaky = ProcessMatchPool(workers=1, min_chunk=16, deadline=5.0)
            assert leaky.match_batch(snap, tuples) == expected
            print("OK")
            """
        )
        env = dict(os.environ, PYTHONPATH="src")
        result = subprocess.run(
            [sys.executable, "-W", "error", "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "OK" in result.stdout
        assert result.stderr.strip() == "", result.stderr
