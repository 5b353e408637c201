"""Committed-transaction footprint recording.

The serializability oracle needs, for every *committed* lock-free
transaction, the values it read (and where they came from), the write
set it published, and its commit instant -- plus the chronological log
of every non-transactional architectural write, so the whole run can be
replayed against a sequential reference.

:class:`FootprintRecorder` collects all of that **non-invasively**: it
is an :class:`~repro.obs.fanout.Observer` on three of the machine's
``obs`` emit points -- a transactional architectural read, a commit
before the write buffer drains, and a plain
:class:`~repro.coherence.memory.ValueStore` write (committed write sets
land through ``ValueStore.publish``, which emits nothing).  An
unobserved run pays one attribute test per point, and an observed run
is bit-identical to a bare one (the hooks only read).

Epoch tagging gives failure atomicity for free: read observations carry
the processor's squash epoch, and a commit keeps only observations from
the committing attempt -- reads made by restarted attempts are dropped,
exactly as the hardware discards them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.coherence.messages import Timestamp
from repro.cpu.isa import line_of
from repro.obs.fanout import Observer, attach_observer

if TYPE_CHECKING:  # pragma: no cover
    from repro.coherence.memory import ValueStore
    from repro.cpu.processor import Processor
    from repro.harness.machine import Machine


@dataclass
class ReadObservation:
    """One transactional read that hit architectural memory.

    ``writer`` / ``line_writer`` are the ids of the committed
    transactions whose write this observation read at word / cache-line
    granularity (None = the initial value or a non-transactional
    write).  ``era`` counts the non-transactional writes the line had
    seen by read time: plain writes (e.g. a lock-fallback critical
    section) reset provenance to None, so the era is what keeps two
    None-provenance reads on opposite sides of a plain write from
    looking like reads of the same version.  Reads satisfied by the
    processor's own write buffer are *not* recorded --
    read-your-own-writes is trivially consistent.
    """

    addr: int
    value: int
    line: int
    writer: Optional[int]
    line_writer: Optional[int]
    epoch: int
    time: int
    era: int = 0


@dataclass
class CommittedTxn:
    """One committed lock-free critical-section execution."""

    txn_id: int                     # dense commit-order index
    cpu: int
    ts: Optional[Timestamp]         # TLR timestamp (None under plain SLE)
    commit_time: int
    reads: list[ReadObservation]
    writes: dict[int, int]          # committed write set (addr -> value)
    #: written line -> plain-write era the line was in at commit time
    #: (see :class:`ReadObservation.era`).
    line_eras: dict = field(default_factory=dict)

    @property
    def read_lines(self) -> set[int]:
        return {obs.line for obs in self.reads}

    @property
    def written_lines(self) -> set[int]:
        return {line_of(addr) for addr in self.writes}


# Log entry tags: ("w", time, addr, value) for a plain architectural
# write, ("c", txn_id) for an atomic transaction commit.
PLAIN_WRITE = "w"
COMMIT = "c"


class FootprintRecorder(Observer):
    """Records commit-ordered transaction footprints from one machine."""

    def __init__(self):
        self.committed: list[CommittedTxn] = []
        self.log: list[tuple] = []
        self.plain_writes = 0
        self._machine: Optional["Machine"] = None
        # Per-cpu read observations of the *current* speculative attempt.
        self._pending: dict[int, list[ReadObservation]] = {}
        # addr / line -> txn id of the last committed transactional
        # writer, or None after a non-transactional write.
        self._last_writer: dict[int, Optional[int]] = {}
        self._last_line_writer: dict[int, Optional[int]] = {}
        # line -> number of plain writes seen (the line's current era).
        self._line_era: dict[int, int] = {}

    def attach(self, machine: "Machine") -> "FootprintRecorder":
        """Observe ``machine``.  Call before ``run_workload``."""
        self._machine = machine
        attach_observer(machine, self)
        return self

    def on_txn_read(self, processor: "Processor", addr: int,
                    value: int) -> None:
        pending = self._pending.setdefault(processor.cpu_id, [])
        if pending and pending[-1].epoch != processor.epoch:
            # A restart squashed the previous attempt's reads.
            pending.clear()
        line = line_of(addr)
        pending.append(ReadObservation(
            addr=addr, value=value, line=line,
            writer=self._last_writer.get(addr),
            line_writer=self._last_line_writer.get(line),
            epoch=processor.epoch, time=processor.sim.now,
            era=self._line_era.get(line, 0)))

    def on_txn_commit(self, processor: "Processor") -> None:
        # The write buffer has not drained yet: it is the write set.
        writes = processor.write_buffer.snapshot()
        epoch = processor.epoch
        reads = [obs for obs in self._pending.pop(processor.cpu_id, [])
                 if obs.epoch == epoch]
        txn = CommittedTxn(txn_id=len(self.committed), cpu=processor.cpu_id,
                           ts=processor.controller.current_ts,
                           commit_time=processor.sim.now,
                           reads=reads, writes=writes,
                           line_eras={
                               line_of(addr): self._line_era.get(
                                   line_of(addr), 0)
                               for addr in writes})
        self.committed.append(txn)
        self.log.append((COMMIT, txn.txn_id))
        for addr in writes:
            self._last_writer[addr] = txn.txn_id
            self._last_line_writer[line_of(addr)] = txn.txn_id

    def on_plain_write(self, store: "ValueStore", addr: int,
                       value: int) -> None:
        self.plain_writes += 1
        self.log.append((PLAIN_WRITE, self._machine.sim.now, addr, value))
        line = line_of(addr)
        self._last_writer[addr] = None
        self._last_line_writer[line] = None
        self._line_era[line] = self._line_era.get(line, 0) + 1
