"""Host-speed reference: fixed pure-Python work timed beside every job.

The host shares its cores with other tenants, and its speed drifts by
tens of percent over minutes.  No run short enough to repeat many times
averages that away.  So before each job the benchmark times
:meth:`HostReference.work`, which shares no code with the program: no change
to the program can move it.  It has two halves, because the drift comes
in two kinds, which slow the simulator in different proportions:

* compute: a heap of timed entries, dictionary traffic, method calls on
  small objects and string formatting, as in the kernel's hot loop;
* memory: touch a pool of small objects larger than the CPU caches in
  a fixed random order, through a list and a dictionary, as the
  simulator's per-line state is touched.

A job's calibrated time is its measured time multiplied by
``REFERENCE_S / r``, where ``r`` is the median reference time of the
jobs around it (:func:`calibration_factors`).  This is the time the job
would have taken at the host speed ``REFERENCE_S`` was measured at.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time
from typing import Sequence

#: The host speed calibrated times are expressed at: a reference time
#: near the fast phase of the host the benchmark was tuned on (a 2-core
#: Intel Xeon at 2.1 GHz with CPython 3.11.7 measured 0.010-0.018 s).
REFERENCE_S = 0.0120

#: Calibration window: each job uses the median of the reference times
#: of the jobs up to this many positions before and after it.
WINDOW = 3

_COMPUTE_ROUNDS = 250
_POOL = 100_000
_TOUCHES = 10_000


class _Line:
    __slots__ = ("addr", "state", "hits")

    def __init__(self, addr: int):
        self.addr = addr
        self.state = 0
        self.hits = 0

    def touch(self, write: bool) -> int:
        self.hits += 1
        if write:
            self.state = 2
        elif self.state == 0:
            self.state = 1
        return self.state


def _compute() -> int:
    lines: dict[int, _Line] = {}
    queue: list[tuple[int, int, int]] = []
    seq = 0
    total = 0
    for r in range(_COMPUTE_ROUNDS):
        for i in range(16):
            seq += 1
            heapq.heappush(queue, (r + (i * 7) % 13, seq, i))
        while queue and queue[0][0] <= r:
            when, _seq, cpu = heapq.heappop(queue)
            addr = (cpu * 31 + when) & 255
            line = lines.get(addr)
            if line is None:
                line = lines[addr] = _Line(addr)
            total += line.touch((when + cpu) & 1 == 0)
            total += len(f"cpu{cpu}-step")
    return total


class HostReference:
    """The reference work and its working set (about 10 MiB, built once
    and kept, so it counts in ``peak_rss_mb`` as a constant)."""

    def __init__(self) -> None:
        self._lines = [_Line(i) for i in range(_POOL)]
        self._table = {i * 7919: self._lines[i] for i in range(0, _POOL, 2)}
        self._order = random.Random(20020).choices(range(_POOL), k=_TOUCHES)

    def _memory(self) -> int:
        lines, table = self._lines, self._table
        total = 0
        for i in self._order:
            total += lines[i].touch(i & 1 == 0)
            other = table.get((i & ~1) * 7919)
            if other is not None:
                total += other.hits
        return total

    def work(self) -> int:
        """A fixed amount of interpreter work; returns a checksum."""
        return _compute() + self._memory()

    def seconds(self) -> float:
        """Host seconds of one :meth:`work`."""
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start


def calibration_factors(references: Sequence[float]) -> list[float]:
    """Per-job factors ``REFERENCE_S / r``, with ``r`` the median of the
    reference times in a window of ``WINDOW`` jobs on either side."""
    factors = []
    n = len(references)
    for i in range(n):
        window = references[max(0, i - WINDOW):min(n, i + WINDOW + 1)]
        factors.append(REFERENCE_S / statistics.median(window))
    return factors
