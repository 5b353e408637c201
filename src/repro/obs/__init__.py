"""Observability: metrics, span tracing support, and trend tooling.

The paper's evaluation is an exercise in *explaining* performance --
stall attribution, restart counts, deferral behaviour -- so the
reproduction carries a first-class observability layer:

* :mod:`repro.obs.fanout` -- the machine's one observation interface:
  controllers, processors, the value store and the scheduler emit to
  an ``obs`` slot at fixed points (``None`` in normal runs, one
  attribute test per point); :class:`~repro.obs.fanout.Observer` names
  the points and :class:`~repro.obs.fanout.Fanout` shares the slot
  among several consumers.
* :mod:`repro.obs.metrics` -- a dependency-free metrics registry
  (counters, gauges, fixed-bucket histograms) plus
  :class:`~repro.obs.collect.MachineMetrics`, the one telemetry
  observer every run entry point attaches; its ``finalize()`` payload
  carries the contention profile under ``"profile"``.
* span events live in :mod:`repro.sim.trace` (the :class:`Tracer`
  pairs txn-begin/commit, defer/service and request/data into duration
  spans for Perfetto).
* :mod:`repro.obs.profile` -- the causal profiling layer: per-lock
  contention profiles (commit rates, abort causes, cycles lost,
  deferral waits) and the who-aborts-whom conflict matrix, folded live
  by ``MachineMetrics``; :mod:`repro.obs.causal` rebuilds the identical
  profile post-hoc from a v3 record log (kept out of this namespace to
  avoid an eager ``repro.record`` import).
* :mod:`repro.harness.trend` diffs ``BENCH_*.json`` artifacts across
  commits (the ``repro trend`` command).
"""

from repro.obs.fanout import Fanout, Observer, attach_observer
from repro.obs.metrics import (DEPTH_BUCKETS, LATENCY_BUCKETS, RETRY_BUCKETS,
                               Histogram, MetricsRegistry,
                               openmetrics_from_dict, summarize_metrics)
from repro.obs.collect import MachineMetrics
from repro.obs.profile import (ABORT_CAUSES, ProfileBuilder, TxnTapFolder,
                               cause_of, critical_path, describe_chain,
                               matrix_canonical_json, render_folded,
                               render_markdown)

__all__ = [
    "ABORT_CAUSES", "DEPTH_BUCKETS", "LATENCY_BUCKETS", "RETRY_BUCKETS",
    "Fanout", "Histogram", "MetricsRegistry",
    "MachineMetrics", "Observer", "ProfileBuilder", "TxnTapFolder",
    "attach_observer", "cause_of", "critical_path", "describe_chain",
    "matrix_canonical_json", "openmetrics_from_dict", "render_folded",
    "render_markdown", "summarize_metrics",
]
