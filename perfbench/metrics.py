"""Metric definitions and the arithmetic that produces them."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

from perfbench.tracing import LAYERS

#: End-to-end metrics: name -> unit.  Measured with tracing off.
#: ``fail_frac`` is printed in the report but travels in the result line
#: as ``attempted``/``failed``: it is 0 on a correct program.
END_TO_END = {
    "cs_per_s": "CS/s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "sim_cycles_per_cs": "cycles",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Event kinds reported as ``sim.ev.<kind>_per_cs``; any other kind is
#: summed into ``sim.ev.other_per_cs``.
EVENT_KINDS = ("probe", "probe-wd", "marker", "svc", "svc-deferred", "data",
               "bus-grant", "bus-order", "dir-arrive", "dir-order",
               "mem-supply", "nack", "nack-retry", "wake", "rabort", "cpu",
               "verify-watchdog")

#: Per-layer metrics: name -> unit.  Measured in the traced pass.
PER_LAYER = {
    "sim.events_per_cs": "events/CS",
    "sim.ns_per_event": "ns",
    **{f"sim.ev.{kind}_per_cs": "events/CS" for kind in EVENT_KINDS},
    "sim.ev.other_per_cs": "events/CS",
    **{f"{layer}.self_frac": "ratio" for layer in LAYERS},
    "coherence.controller.calls_per_cs": "calls/CS",
    "coherence.l1_hit_ratio": "ratio",
    "coherence.misses_per_cs": "misses/CS",
    "coherence.bus.txns_per_cs": "txns/CS",
    "coherence.bus.busy_frac": "ratio",
    "coherence.datanet.msgs_per_cs": "msgs/CS",
    "coherence.memory.reads_per_cs": "reads/CS",
    "cpu.lock_stall_cycles_per_cs": "cycles/CS",
    "cpu.nonlock_stall_cycles_per_cs": "cycles/CS",
    "cpu.spin_cycles_per_cs": "cycles/CS",
    "sle.commit_ratio": "ratio",
    "sle.restarts_per_cs": "restarts/CS",
    "sle.fallbacks_per_cs": "fallbacks/CS",
    "tlr.deferred_per_cs": "reqs/CS",
    "tlr.probes_sent_per_cs": "probes/CS",
    "tlr.markers_per_cs": "markers/CS",
    "tlr.probe_repeat_frac": "ratio",
    "policies.nacks_per_cs": "nacks/CS",
    "verify.oracle_s_per_job": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}

def tail_percentile(values: Sequence[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples beyond it,
    and its value (nearest-rank).  Raises ValueError for ten samples or
    fewer, where no percentile qualifies."""
    n = len(values)
    if n <= 10:
        raise ValueError(f"{n} samples: no percentile has ten beyond it")
    ordered = sorted(values)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    raise AssertionError("unreachable: p1 qualifies for n > 10")


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def fail_frac(results) -> float:
    """Failed jobs over attempted jobs."""
    return ratio(sum(1 for r in results if not r.ok), len(results))


def end_to_end(jobs, factors: Sequence[float], setup_samples: Sequence[float],
               peak_rss_mb: float, deterministic) -> dict:
    """End-to-end metric values from the timed jobs.

    ``jobs`` are every timed job and ``factors`` their host-speed
    calibration factors (all 1.0 for raw host seconds); ``deterministic``
    are the first MIN_JOBS jobs, over which the simulated quantity is
    taken so that it depends only on the seed.
    """
    seconds = [job.seconds * f for job, f in zip(jobs, factors, strict=True)]
    _pct, tail = tail_percentile(seconds)
    return {
        "cs_per_s": ratio(sum(job.cs for job in jobs), sum(seconds)),
        "job_s.p50": statistics.median(seconds),
        "job_s.tail": tail,
        "sim_cycles_per_cs": ratio(sum(job.cycles for job in deterministic),
                                   sum(job.cs for job in deterministic)),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(stats_totals: dict, cs: int, jobs: int, tracer,
              untraced_s: float, traced_s: float, untraced_events: int
              ) -> dict:
    """Per-layer metric values from the traced pass.

    ``stats_totals`` sums each traced job's SimStats counters;
    ``untraced_s``/``traced_s`` are the calibrated host seconds of the
    same jobs run untraced and traced.
    """
    traced_ns = tracer.traced_ns
    kinds = tracer.event_kinds
    events = sum(kinds.values())
    out = {
        "sim.events_per_cs": ratio(events, cs),
        "sim.ns_per_event": ratio(untraced_s * 1e9, untraced_events),
    }
    for kind in EVENT_KINDS:
        out[f"sim.ev.{kind}_per_cs"] = ratio(kinds.get(kind, 0), cs)
    out["sim.ev.other_per_cs"] = ratio(
        sum(n for k, n in kinds.items() if k not in EVENT_KINDS), cs)
    for layer in LAYERS:
        out[f"{layer}.self_frac"] = ratio(tracer.self_ns.get(layer, 0),
                                          traced_ns)
    s = stats_totals
    out.update({
        "coherence.controller.calls_per_cs": ratio(
            tracer.calls.get("coherence.controller", 0), cs),
        "coherence.l1_hit_ratio": ratio(s["l1_hits"],
                                        s["l1_hits"] + s["l1_misses"]),
        "coherence.misses_per_cs": ratio(s["l1_misses"], cs),
        "coherence.bus.txns_per_cs": ratio(s["bus_transactions"], cs),
        "coherence.bus.busy_frac": ratio(s["bus_busy_cycles"],
                                         s["total_cycles"]),
        "coherence.datanet.msgs_per_cs": ratio(s["data_messages"], cs),
        "coherence.memory.reads_per_cs": ratio(s["memory_reads"], cs),
        "cpu.lock_stall_cycles_per_cs": ratio(s["lock_stall_cycles"], cs),
        "cpu.nonlock_stall_cycles_per_cs": ratio(s["nonlock_stall_cycles"],
                                                 cs),
        "cpu.spin_cycles_per_cs": ratio(s["spin_cycles"], cs),
        "sle.commit_ratio": ratio(s["elisions_committed"],
                                  s["elisions_started"]),
        "sle.restarts_per_cs": ratio(s["restarts"], cs),
        "sle.fallbacks_per_cs": ratio(s["lock_fallbacks"], cs),
        "tlr.deferred_per_cs": ratio(s["requests_deferred"], cs),
        "tlr.probes_sent_per_cs": ratio(s["probes_sent"], cs),
        "tlr.markers_per_cs": ratio(s["markers_sent"], cs),
        "tlr.probe_repeat_frac": ratio(tracer.probe_repeats,
                                       tracer.probe_deliveries),
        "policies.nacks_per_cs": ratio(s["nacks_sent"], cs),
        "verify.oracle_s_per_job": ratio(tracer.oracle_ns / 1e9, jobs),
        "trace.overhead_frac": 1.0 - ratio(untraced_s, traced_s),
        "trace.unattributed_frac": ratio(tracer.self_ns.get("job", 0),
                                         traced_ns),
    })
    return out


#: SimStats counters summed over traced jobs (per-CPU ones over CPUs).
STAT_FIELDS = ("l1_hits", "l1_misses", "lock_stall_cycles",
               "nonlock_stall_cycles", "spin_cycles", "elisions_started",
               "elisions_committed", "restarts", "lock_fallbacks",
               "requests_deferred", "probes_sent", "markers_sent",
               "nacks_sent")
MACHINE_FIELDS = ("bus_transactions", "bus_busy_cycles", "data_messages",
                  "memory_reads", "total_cycles")


def add_stats(totals: dict, stats) -> None:
    """Add one job's SimStats into ``totals``."""
    for name in STAT_FIELDS:
        totals[name] = totals.get(name, 0) + stats.total(name)
    for name in MACHINE_FIELDS:
        totals[name] = totals.get(name, 0) + getattr(stats, name)
