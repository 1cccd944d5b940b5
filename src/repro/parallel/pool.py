"""Process-pool matching: publish once, fan out, merge deterministically.

:class:`ProcessMatchPool` is the parent-side orchestrator of the
process tier.  One ``match_batch`` call:

1. **publishes** the snapshot's frozen base into shared memory — once
   per base *generation* (keyed by object identity under a held strong
   reference), not per epoch, because only compaction changes the base;
   the small overlay rides inline in each request frame;
2. **splits** the tuple batch into per-worker chunks, dispatches each
   over a CRC-framed pipe, and waits on the pipe *and* the worker's
   exit sentinel under a per-chunk deadline;
3. **recovers** from anything a worker can do wrong — crash before
   replying, hang past the deadline, return a torn frame, miss a
   reclaimed segment — by killing/retrying once on a fresh worker and
   then answering the chunk in-process, so a caller-visible result is
   *always* produced and always equals the serial answer;
4. **merges** chunk results in batch order.  Workers return predicate
   identifiers; the parent maps them back onto its own
   :class:`~repro.predicates.predicate.Predicate` objects via a
   per-epoch map, so result object identity matches the in-process
   path exactly.

``match_batch`` returns ``None`` (rather than raising) whenever the
tier cannot help — pool closed or degraded, shared memory unavailable,
batch too small, a base that cannot be pickled (say a ``FunctionClause``
over a closure), no worker obtainable — and the facade falls back to
its inline path.  A chunk whose overlay or tuples cannot be pickled is
answered in-process.  Degradation is a result-preserving latency
change, never a behaviour change.
"""

from __future__ import annotations

import pickle
import threading
import time
import weakref
from collections import OrderedDict
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..errors import FrameError, InjectedFault
from ..predicates.predicate import Predicate
from ..testing.faults import fault_point
from .framing import decode_frame, encode_frame
from .shm import SegmentRegistry, shared_memory_available
from .supervisor import QuarantinedBatch, WorkerHandle, WorkerSupervisor

__all__ = ["ProcessMatchPool"]

#: Per-epoch ident->Predicate maps kept alive (LRU).
_IDENT_MAP_CACHE = 8

#: Published base generations (and their pickled segments) kept per
#: relation; matches SegmentRegistry's default so a reader mid-batch on
#: the previous generation still resolves.
_KEEP_GENERATIONS = 2

#: Soft (non-fatal) retries per chunk — reject replies such as
#: ``shm-missing`` / ``bad-frame`` where the worker is healthy.
_SOFT_RETRY_LIMIT = 2

#: What ``pickle.dumps`` raises for an object that cannot cross a
#: process boundary: a local function or lambda is an ``AttributeError``
#: on some Python versions, a ``PicklingError`` on others, and a lock or
#: socket a ``TypeError``.  Every one makes the tier decline, never fail.
_UNPICKLABLE = (pickle.PicklingError, AttributeError, TypeError)


class _Chunk:
    """Dispatch state for one contiguous slice of the batch."""

    __slots__ = ("index", "tuples", "seq", "kills", "soft", "deadline", "drill")

    def __init__(self, index: int, tuples: Sequence[Mapping[str, Any]]):
        self.index = index
        self.tuples = tuples
        self.seq = -1
        self.kills = 0
        self.soft = 0
        self.deadline = 0.0
        #: whether the corrupt-frame drill may still fire for this
        #: chunk (disabled on the clean resend so drills terminate)
        self.drill = True


class ProcessMatchPool:
    """Supervised multiprocess matching over shared-memory bases."""

    def __init__(
        self,
        workers: int,
        min_chunk: int = 64,
        deadline: float = 30.0,
        mp_context: Any = None,
        heartbeat_interval: float = 5.0,
        max_restarts: int = 3,
        backoff: float = 0.05,
        keep_generations: int = _KEEP_GENERATIONS,
    ):
        self.min_chunk = max(1, int(min_chunk))
        self.supervisor = WorkerSupervisor(
            workers,
            mp_context=mp_context,
            deadline=deadline,
            heartbeat_interval=heartbeat_interval,
            max_restarts=max_restarts,
            backoff=backoff,
        )
        self.registry = SegmentRegistry(keep_generations=keep_generations)
        self._lock = threading.Lock()
        self._seq = 0
        #: relation -> OrderedDict[token -> (name, length, base strong ref)];
        #: the strong ref pins the base object so its id() cannot be
        #: reused while the publication is live
        self._published: Dict[str, "OrderedDict[int, Tuple[str, int, Any]]"] = {}
        self._keep = max(1, int(keep_generations))
        #: (relation, epoch) -> {ident: Predicate}
        self._ident_maps: "OrderedDict[Tuple[str, int], Dict[Hashable, Predicate]]" = (
            OrderedDict()
        )
        self._closed = False
        # last line of defence for abandoned pools: unlink segments and
        # reap workers at garbage collection / interpreter exit
        self._finalizer = weakref.finalize(
            self, ProcessMatchPool._release, self.supervisor, self.registry
        )

    # -- availability / lifecycle --------------------------------------

    @staticmethod
    def available() -> bool:
        """Whether this platform can run the process tier at all."""
        return shared_memory_available()

    @property
    def degraded(self) -> bool:
        return self.supervisor.degraded

    @property
    def closed(self) -> bool:
        return self._closed

    def degrade(self, reason: str) -> None:
        """Force degraded mode (bench/test hook)."""
        self.supervisor.force_degrade(reason)

    def stats(self) -> Dict[str, Any]:
        stats = self.supervisor.stats()
        stats["segments"] = len(self.registry)
        stats["closed"] = self._closed
        return stats

    def close(self) -> None:
        """Stop workers and unlink every published segment.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._published.clear()
            self._ident_maps.clear()
        self.supervisor.close()
        self.registry.close()
        self._finalizer.detach()

    @staticmethod
    def _release(supervisor: WorkerSupervisor, registry: SegmentRegistry) -> None:
        try:
            supervisor.close()
        except Exception:  # pragma: no cover - interpreter teardown
            pass
        registry.close()

    def __enter__(self) -> "ProcessMatchPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- publication ----------------------------------------------------

    def _publish_base(self, snapshot: Any) -> Tuple[str, int, int]:
        """Ensure the snapshot's base is in shared memory.

        Returns ``(segment name, payload length, generation token)``.
        """
        base = snapshot.base
        token = id(base)
        relation = snapshot.relation
        with self._lock:
            if self._closed:
                raise RuntimeError("ProcessMatchPool is closed")
            generations = self._published.setdefault(relation, OrderedDict())
            entry = generations.get(token)
            if entry is not None:
                generations.move_to_end(token)
                return entry[0], entry[1], token
            try:
                data = pickle.dumps(base, protocol=pickle.HIGHEST_PROTOCOL)
            except _UNPICKLABLE as exc:
                raise pickle.PicklingError(f"snapshot base: {exc}") from exc
            name, length = self.registry.publish(relation, token, data)
            generations[token] = (name, length, base)
            while len(generations) > self._keep:
                generations.popitem(last=False)
            return name, length, token

    def _republish(self, snapshot: Any, token: int) -> Tuple[str, int, int]:
        """Drop a stale publication (attach missed) and publish afresh."""
        relation = snapshot.relation
        with self._lock:
            self.registry.forget(relation, token)
            generations = self._published.get(relation)
            if generations is not None:
                generations.pop(token, None)
        return self._publish_base(snapshot)

    def _ident_map(self, snapshot: Any) -> Dict[Hashable, Predicate]:
        """``ident -> Predicate`` over *snapshot*'s live set, cached.

        Workers return identifiers; this map turns them back into the
        parent's own Predicate objects, so result object identity is
        indistinguishable from the in-process path.
        """
        key = (snapshot.relation, snapshot.epoch)
        with self._lock:
            cached = self._ident_maps.get(key)
            if cached is not None:
                self._ident_maps.move_to_end(key)
                return cached
        built = {pred.ident: pred for pred in snapshot.predicates()}
        with self._lock:
            self._ident_maps[key] = built
            while len(self._ident_maps) > _IDENT_MAP_CACHE:
                self._ident_maps.popitem(last=False)
        return built

    def canonical_rows(
        self, snapshot: Any, rows: List[List[Predicate]]
    ) -> List[List[Predicate]]:
        """Sort each row into the snapshot's canonical predicate order."""
        return snapshot.canonical_rows(rows)

    def _inline(
        self, snapshot: Any, tuples: Sequence[Mapping[str, Any]]
    ) -> List[List[Predicate]]:
        """The in-process answer for a chunk, in canonical order."""
        return snapshot.canonical_rows(snapshot.match_batch(tuples))

    # -- dispatch -------------------------------------------------------

    def _next_seq(self) -> int:
        with self._lock:
            self._seq += 1
            return self._seq

    def _dispatch(
        self,
        handle: WorkerHandle,
        chunk: _Chunk,
        snapshot: Any,
        publication: Dict[str, Any],
    ) -> bool:
        """Send *chunk* to *handle*; True if the request left the parent."""
        chunk.seq = self._next_seq()
        chunk.deadline = time.monotonic() + self.supervisor.deadline
        msg: Dict[str, Any] = {
            "op": "match",
            "seq": chunk.seq,
            "relation": snapshot.relation,
            "epoch": snapshot.epoch,
            "shm": publication["name"],
            "shm_len": publication["length"],
            "overlay": snapshot.overlay,
            "removed": snapshot.removed,
            "overlay_preds": snapshot.overlay_preds,
            "tuples": list(chunk.tuples),
        }
        # drill: a worker that accepts the batch and then blocks past
        # the deadline — realised as a real oversized sleep worker-side
        try:
            fault_point("worker.hang")
        except InjectedFault:
            msg["hang"] = self.supervisor.deadline * 2 + 0.25
        try:
            data = encode_frame(msg)
        except _UNPICKLABLE as exc:
            raise pickle.PicklingError(f"match request: {exc}") from exc
        try:
            if chunk.drill:
                # drill: a byte torn in transit — flip one for real so
                # the worker's CRC check (and our resend path) runs
                try:
                    fault_point("ipc.corrupt_frame")
                except InjectedFault:
                    torn = bytearray(data)
                    torn[len(torn) // 2] ^= 0xFF
                    data = bytes(torn)
            handle.conn.send_bytes(data)
            handle.dispatches += 1
        except (OSError, ValueError, BrokenPipeError):
            return False
        # drill: a worker that dies after taking the batch — a real
        # SIGKILL, so crash detection and the retry path run for real
        try:
            fault_point("worker.kill_before_reply")
        except InjectedFault:
            handle.process.kill()
        return True

    # -- the tier entry point ------------------------------------------

    def match_batch(
        self, snapshot: Any, tuples: Sequence[Mapping[str, Any]]
    ) -> Optional[List[List[Predicate]]]:
        """Match *tuples* against *snapshot* across the worker pool.

        Returns the per-tuple predicate rows — identical, object for
        object, to ``snapshot.match_batch(tuples)`` — or ``None`` when
        the process tier declines (closed, degraded, unavailable, batch
        too small, base not picklable, or no worker could be checked
        out).  It never raises
        for worker misbehaviour and never drops a chunk: any chunk the
        pool cannot get answered remotely is answered in-process.
        """
        batch = list(tuples)
        if not batch:
            return []
        if self._closed or self.degraded or not shared_memory_available():
            return None
        if len(batch) < self.min_chunk:
            return None
        try:
            name, length, token = self._publish_base(snapshot)
        except (RuntimeError, OSError, pickle.PicklingError):
            return None
        want = min(self.supervisor.workers, max(1, len(batch) // self.min_chunk))
        handles = self.supervisor.acquire(want)
        if not handles:
            return None
        publication = {"name": name, "length": length, "token": token}
        chunks = self._split(batch, len(handles))
        results: List[Optional[List[List[Predicate]]]] = [None] * len(chunks)
        inflight: Dict[int, Tuple[WorkerHandle, _Chunk]] = {}
        try:
            for handle, chunk in zip(handles, chunks):
                self._launch(handle, chunk, snapshot, publication, inflight, results)
            self._collect(snapshot, publication, inflight, results)
        finally:
            # inflight must be empty here on every path; this is the
            # belt-and-braces for an unexpected exception mid-collect
            for handle, chunk in list(inflight.values()):
                self.supervisor.kill(handle, "dispatch loop aborted")
                if results[chunk.index] is None:
                    results[chunk.index] = self._inline(snapshot, chunk.tuples)
        merged: List[List[Predicate]] = []
        for rows in results:
            assert rows is not None
            merged.extend(rows)
        return merged

    @staticmethod
    def _split(
        batch: Sequence[Mapping[str, Any]], pieces: int
    ) -> List[_Chunk]:
        size, extra = divmod(len(batch), pieces)
        chunks: List[_Chunk] = []
        start = 0
        for index in range(pieces):
            stop = start + size + (1 if index < extra else 0)
            if stop > start:
                chunks.append(_Chunk(len(chunks), batch[start:stop]))
            start = stop
        return chunks

    # -- the recovery state machine ------------------------------------

    def _launch(
        self,
        handle: WorkerHandle,
        chunk: _Chunk,
        snapshot: Any,
        publication: Dict[str, Any],
        inflight: Dict[int, Tuple[WorkerHandle, _Chunk]],
        results: List[Optional[List[List[Predicate]]]],
    ) -> None:
        """Dispatch *chunk* on *handle*, falling to the failure path."""
        try:
            sent = self._dispatch(handle, chunk, snapshot, publication)
        except pickle.PicklingError:
            # the overlay or the tuples cannot leave this process (say a
            # FunctionClause over a closure): not the worker's fault
            self.supervisor.release(handle)
            results[chunk.index] = self._inline(snapshot, chunk.tuples)
            return
        if sent:
            inflight[chunk.index] = (handle, chunk)
        else:
            self._hard_fail(
                handle, chunk, "request pipe broken",
                snapshot, publication, inflight, results,
            )

    def _hard_fail(
        self,
        handle: WorkerHandle,
        chunk: _Chunk,
        reason: str,
        snapshot: Any,
        publication: Dict[str, Any],
        inflight: Dict[int, Tuple[WorkerHandle, _Chunk]],
        results: List[Optional[List[List[Predicate]]]],
    ) -> None:
        """The worker is untrustworthy: kill it, retry once, then eat it."""
        inflight.pop(chunk.index, None)
        self.supervisor.kill(handle, reason)
        chunk.kills += 1
        if chunk.kills >= 2:
            # the batch itself is the common factor: dead-letter it and
            # answer in-process — recorded, retried never, dropped never
            self.supervisor.quarantine(
                QuarantinedBatch(
                    seq=chunk.seq,
                    relation=snapshot.relation,
                    size=len(chunk.tuples),
                    reason=reason,
                    kills=chunk.kills,
                    tuples=chunk.tuples,
                )
            )
            results[chunk.index] = self._inline(snapshot, chunk.tuples)
            return
        replacement = self.supervisor.acquire(1, timeout=1.0)
        if not replacement:
            # no fresh worker (budget exhausted / degraded): in-process
            results[chunk.index] = self._inline(snapshot, chunk.tuples)
            return
        self._launch(replacement[0], chunk, snapshot, publication, inflight, results)

    def _soft_fail(
        self,
        handle: WorkerHandle,
        chunk: _Chunk,
        snapshot: Any,
        publication: Dict[str, Any],
        inflight: Dict[int, Tuple[WorkerHandle, _Chunk]],
        results: List[Optional[List[List[Predicate]]]],
        republish: bool,
    ) -> None:
        """The worker is healthy but the request needs another go."""
        inflight.pop(chunk.index, None)
        chunk.soft += 1
        chunk.drill = False  # resend clean: drills must terminate
        if chunk.soft > _SOFT_RETRY_LIMIT:
            self.supervisor.release(handle)
            results[chunk.index] = self._inline(snapshot, chunk.tuples)
            return
        if republish:
            try:
                name, length, token = self._republish(
                    snapshot, publication["token"]
                )
                publication.update(name=name, length=length, token=token)
            except (RuntimeError, OSError, pickle.PicklingError):
                self.supervisor.release(handle)
                results[chunk.index] = self._inline(snapshot, chunk.tuples)
                return
        self._launch(handle, chunk, snapshot, publication, inflight, results)

    def _collect(
        self,
        snapshot: Any,
        publication: Dict[str, Any],
        inflight: Dict[int, Tuple[WorkerHandle, _Chunk]],
        results: List[Optional[List[List[Predicate]]]],
    ) -> None:
        ident_map = self._ident_map(snapshot)
        rank = snapshot.canonical_rank()
        while inflight:
            now = time.monotonic()
            waitables: List[Any] = []
            owner: Dict[Any, Tuple[WorkerHandle, _Chunk]] = {}
            soonest = None
            for handle, chunk in inflight.values():
                waitables.append(handle.conn)
                owner[handle.conn] = (handle, chunk)
                try:
                    sentinel = handle.process.sentinel
                except ValueError:  # pragma: no cover - already closed
                    sentinel = None
                if sentinel is not None:
                    waitables.append(sentinel)
                    owner[sentinel] = (handle, chunk)
                if soonest is None or chunk.deadline < soonest:
                    soonest = chunk.deadline
            timeout = max(0.0, min((soonest or now) - now, 0.5))
            try:
                ready = _conn_wait(waitables, timeout)
            except OSError:  # pragma: no cover - fd torn down under us
                ready = []
            ready_set = set(ready)
            seen: set = set()
            for obj in ready:
                handle, chunk = owner[obj]
                if id(handle) in seen or chunk.index not in inflight:
                    continue
                seen.add(id(handle))
                if handle.conn in ready_set:
                    self._consume_reply(
                        handle, chunk, snapshot, publication,
                        inflight, results, ident_map, rank,
                    )
                else:
                    # only the exit sentinel fired: the worker died
                    # without answering
                    self._hard_fail(
                        handle, chunk, "worker crashed before replying",
                        snapshot, publication, inflight, results,
                    )
            now = time.monotonic()
            for handle, chunk in list(inflight.values()):
                if now > chunk.deadline:
                    self._hard_fail(
                        handle, chunk,
                        f"deadline of {self.supervisor.deadline:.1f}s exceeded",
                        snapshot, publication, inflight, results,
                    )

    def _consume_reply(
        self,
        handle: WorkerHandle,
        chunk: _Chunk,
        snapshot: Any,
        publication: Dict[str, Any],
        inflight: Dict[int, Tuple[WorkerHandle, _Chunk]],
        results: List[Optional[List[List[Predicate]]]],
        ident_map: Dict[Hashable, Predicate],
        rank: Dict[Hashable, int],
    ) -> None:
        try:
            reply = decode_frame(handle.conn.recv_bytes())
        except (EOFError, OSError):
            self._hard_fail(
                handle, chunk, "worker pipe closed mid-reply",
                snapshot, publication, inflight, results,
            )
            return
        except FrameError as exc:
            # a reply that fails CRC means the worker (or its pipe) is
            # lying; do not trust anything further from it
            self._hard_fail(
                handle, chunk, f"torn reply frame: {exc}",
                snapshot, publication, inflight, results,
            )
            return
        op = reply.get("op") if isinstance(reply, dict) else None
        seq = reply.get("seq") if isinstance(reply, dict) else None
        # a bad-frame reject carries no seq (the worker could not read
        # the request); each worker has at most one request inflight, so
        # a seq-less reply is unambiguously for this chunk
        if op in ("rows", "reject", "error") and seq is not None and seq != chunk.seq:
            return  # stale answer to an abandoned request; keep waiting
        if op == "rows":
            try:
                resolved = [
                    [ident_map[ident] for ident in sorted(row, key=rank.__getitem__)]
                    for row in reply["rows"]
                ]
            except (KeyError, TypeError):
                self._hard_fail(
                    handle, chunk, "worker returned unknown predicate idents",
                    snapshot, publication, inflight, results,
                )
                return
            if len(resolved) != len(chunk.tuples):
                self._hard_fail(
                    handle, chunk, "worker returned wrong row count",
                    snapshot, publication, inflight, results,
                )
                return
            inflight.pop(chunk.index, None)
            results[chunk.index] = resolved
            handle.last_seen = time.monotonic()
            self.supervisor.release(handle)
            return
        if op == "reject":
            reason = reply.get("reason")
            if reason == "shm-missing":
                self._soft_fail(
                    handle, chunk, snapshot, publication,
                    inflight, results, republish=True,
                )
                return
            if reason == "bad-frame":
                self._soft_fail(
                    handle, chunk, snapshot, publication,
                    inflight, results, republish=False,
                )
                return
            # bad-op or anything newer than this parent: answer inline
            inflight.pop(chunk.index, None)
            self.supervisor.release(handle)
            results[chunk.index] = self._inline(snapshot, chunk.tuples)
            return
        if op == "error":
            # the worker raised but kept serving; the failure may be
            # deterministic, so do not burn a worker on a retry —
            # answer in-process and move on
            inflight.pop(chunk.index, None)
            self.supervisor.release(handle)
            results[chunk.index] = self._inline(snapshot, chunk.tuples)
            return
        # pong or unknown chatter: ignore, keep waiting
        return
