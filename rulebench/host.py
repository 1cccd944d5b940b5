"""Host fingerprint and host-speed normalisation.

Absolute timings do not travel between hosts, and on a shared host they
do not even repeat: on the 2-CPU host this benchmark was built on, a
fixed pure-Python loop runs up to 2x slower for seconds at a time while
neighbours are busy, and raw 20-second benchmark runs spread by 15-50%.
Two things follow.

* Every result carries :func:`fingerprint`: CPU count, platform, Python
  and NumPy versions, and the score of a fixed calibration probe.
* Every timing is normalised to a reference speed.  A :class:`SpeedProbe`
  runs a short fixed piece of work every :data:`SpeedProbe.INTERVAL_S`
  seconds, between the benchmark's calls, and a duration measured in
  some second is scaled by
  ``REFERENCE_S / median(probe durations in that second)``.  The probe
  slows down with the host, so the scaled value stays put while the raw
  one moves; on a host in its usual state the factor is close to 1.
  Half the probe is interpreter arithmetic, which slows when a
  neighbour shares the core; the other half is lookups spread over a
  10 MB dict, which slows when a neighbour fills the caches.
"""

from __future__ import annotations

import os
import platform
import random
import statistics
import time
from typing import Any, Dict, List, Tuple

__all__ = ["SpeedProbe", "calibration_ms", "fingerprint"]

clock = time.perf_counter


def _probe(iterations: int) -> int:
    """Fixed interpreter work: dict, integer and loop operations."""
    table: Dict[int, int] = {}
    total = 0
    for i in range(iterations):
        key = i & 255
        table[key] = table.get(key, 0) + i
        total += (i * 7) % 13
    return total


def calibration_ms() -> float:
    """Best-of-5 milliseconds of a 200,000-iteration probe."""
    best = float("inf")
    for _ in range(5):
        began = clock()
        _probe(200_000)
        best = min(best, clock() - began)
    return best * 1e3


def fingerprint() -> Dict[str, Any]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "calibration_ms": round(calibration_ms(), 3),
    }


class SpeedProbe:
    """Samples host speed while a run goes on; see the module docstring."""

    #: seconds between probes
    INTERVAL_S = 0.05
    #: arithmetic iterations and dict lookups per probe: together about
    #: 0.33 ms on a 2.0 GHz Xeon with CPython 3.11 in its usual state
    ITERATIONS = 1_000
    LOOKUPS = 1_500
    TABLE_SIZE = 100_000
    #: the probe duration that counts as reference speed (factor 1)
    REFERENCE_S = 320e-6
    #: probes a window needs before its own median is trusted
    MIN_SAMPLES = 5

    def __init__(self) -> None:
        #: (start, seconds) of every probe so far
        self.samples: List[Tuple[float, float]] = []
        self._due = 0.0
        self._keys = list(range(1_000, 1_000 + self.TABLE_SIZE))
        random.Random(0).shuffle(self._keys)
        self._table = {key: key ^ 0x5555 for key in self._keys}
        self._offset = 0

    def _lookups(self) -> int:
        """Dict lookups in shuffled key order, each probe further on."""
        start = self._offset
        self._offset = (start + self.LOOKUPS) % (self.TABLE_SIZE - self.LOOKUPS)
        table = self._table
        return sum(table[key] for key in self._keys[start : start + self.LOOKUPS])

    def tick(self) -> float:
        """Probe if one is due; returns the seconds the probe took."""
        now = clock()
        if now < self._due:
            return 0.0
        _probe(self.ITERATIONS)
        self._lookups()
        took = clock() - now
        self.samples.append((now, took))
        self._due = now + took + self.INTERVAL_S
        return took

    def factor(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Scale for durations measured in ``[start, end)``.

        Falls back to every sample when the interval holds too few.
        """
        inside = [took for at, took in self.samples if start <= at < end]
        if len(inside) < self.MIN_SAMPLES:
            inside = [took for _, took in self.samples]
        if not inside:
            return 1.0
        return self.REFERENCE_S / statistics.median(inside)
