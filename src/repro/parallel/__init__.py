"""Supervised multiprocess matching tier.

The concurrency facade (:mod:`repro.concurrency`) matches inline on
the calling thread; this package crosses the process boundary.
Frozen shard bases are published once per generation into shared
memory (:mod:`.shm`), per-core workers (:mod:`.worker`) attach them
read-only and answer CRC-framed match requests (:mod:`.framing`), and
a supervisor (:mod:`.supervisor`) holds the whole thing to the rule
engine's failure discipline — heartbeats, deadlines, bounded restarts,
quarantine, graceful degradation.  :class:`~repro.parallel.pool.ProcessMatchPool`
ties it together behind a single ``match_batch`` that either answers
identically to the serial path or declines with ``None``.
"""

from .framing import MAGIC, MAX_FRAME_PAYLOAD, decode_frame, encode_frame
from .pool import ProcessMatchPool
from .shm import SegmentRegistry, shared_memory_available
from .supervisor import QuarantinedBatch, WorkerHandle, WorkerSupervisor
from .worker import worker_main

__all__ = [
    "MAGIC",
    "MAX_FRAME_PAYLOAD",
    "decode_frame",
    "encode_frame",
    "ProcessMatchPool",
    "SegmentRegistry",
    "shared_memory_available",
    "QuarantinedBatch",
    "WorkerHandle",
    "WorkerSupervisor",
    "worker_main",
]
