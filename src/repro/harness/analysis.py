"""Post-run analysis utilities.

Answers the questions a performance engineer asks after a run:

* *why* did transactions restart (:func:`restart_reasons`);
* *where* are the conflicts -- which cache lines attract deferrals,
  losses and probes (:func:`line_conflict_profile`, built on the
  :class:`~repro.sim.trace.Tracer`);
* *how big* are the transactions this workload produces
  (:class:`CommitLog` and its footprint histogram) -- the number to
  compare against :func:`repro.tlr.guarantee.guaranteed_footprint`.

All of it is observation-only: attach before the run, read after.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.cpu.isa import line_of
from repro.obs.fanout import Observer, attach_observer
from repro.sim.stats import SimStats
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.machine import Machine


def restart_reasons(stats: SimStats) -> Counter:
    """Aggregate restart-reason histogram across processors."""
    total: Counter = Counter()
    for cpu in stats.cpus:
        total.update(cpu.restart_reasons)
    return total


def line_conflict_profile(tracer: Tracer,
                          top: Optional[int] = None) -> list[tuple[int, Counter]]:
    """Per-line conflict activity, hottest first.

    Returns ``[(line, Counter({'defer': n, 'loss': m, ...})), ...]``
    for the lines that saw any deferral, loss, probe or NACK traffic.
    """
    per_line: dict[int, Counter] = {}
    for event in tracer.filter(kinds=["defer", "loss", "probe", "nack",
                                      "service"]):
        if event.line is None:
            continue
        per_line.setdefault(event.line, Counter())[event.kind] += 1
    ranked = sorted(per_line.items(),
                    key=lambda item: -sum(item[1].values()))
    return ranked[:top] if top is not None else ranked


@dataclass
class CommitLog(Observer):
    """Captures every transaction commit (time, cpu, write set)."""

    entries: list[tuple[int, int, dict[int, int]]] = field(
        default_factory=list)

    @classmethod
    def attach(cls, machine: "Machine") -> "CommitLog":
        log = cls()
        attach_observer(machine, log)
        return log

    def on_txn_commit(self, processor) -> None:
        self.entries.append((processor.sim.now, processor.cpu_id,
                             processor.write_buffer.snapshot()))

    def footprint_histogram(self) -> Counter:
        """Distribution of committed write-set sizes in unique lines."""
        histogram: Counter = Counter()
        for _, _, wb in self.entries:
            histogram[len({line_of(addr) for addr in wb})] += 1
        return histogram

    def per_cpu_commits(self) -> Counter:
        counts: Counter = Counter()
        for _, cpu, _ in self.entries:
            counts[cpu] += 1
        return counts

    def max_written_lines(self) -> int:
        histogram = self.footprint_histogram()
        return max(histogram) if histogram else 0


def summarize(machine: "Machine", tracer: Optional[Tracer] = None,
              commit_log: Optional[CommitLog] = None) -> str:
    """A one-screen post-mortem of a run."""
    stats = machine.stats
    lines = [f"cycles: {stats.total_cycles}",
             f"bus transactions: {stats.bus_transactions}",
             f"restarts: {stats.restarts} "
             f"{dict(restart_reasons(stats))}",
             f"elisions committed: {stats.elisions_committed}",
             f"deferred: {stats.total('requests_deferred')}  "
             f"markers: {stats.total('markers_sent')}  "
             f"probes: {stats.total('probes_sent')}"]
    if commit_log is not None:
        lines.append(
            f"commit footprints (lines -> count): "
            f"{dict(sorted(commit_log.footprint_histogram().items()))}")
    if tracer is not None:
        hottest = line_conflict_profile(tracer, top=3)
        rendered = ", ".join(f"{line:#x}:{sum(c.values())}"
                             for line, c in hottest)
        lines.append(f"hottest conflict lines: {rendered or 'none'}")
    return "\n".join(lines)
