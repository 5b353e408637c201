"""Traced pass: per-layer host self time and event-kind counts.

Everything here lives outside ``src/``: the program is observed from
the benchmark's own files.  Two class-level hooks are installed for the
duration of a traced pass and removed afterwards:

* ``Machine.run_workload`` -- the public entry points build their own
  machine, so this is the one place where the built machine (with every
  observer already attached) can be reached.  The hook installs
  instance-level span wrappers on that machine's components, then runs
  the original method.
* ``SerializabilityOracle.check`` -- the oracle object is created and
  discarded inside ``verify_run``.

A span wrapper appends ``(code, t)`` on entry and ``(EXIT, t)`` on exit
to one flat integer log; spans ``(name, start, end, parent)`` are rebuilt
from the log after each job.  A span's self time is its duration minus
the durations of its direct children.  The job itself is the root span
(``job``): its self time is host time outside the simulation loop and
outside every layer span, reported as ``trace.unattributed_frac``.  The
kernel loop is the ``sim`` span: everything inside it that no layer span
covers is the kernel's own time.

A wrapped function is charged to the layer of the module that defines
it (:data:`MODULE_LAYERS`).  Shims installed by ``repro.sim.taps`` are
charged to the layer of the method they wrap, because the tap consumers
themselves are wrapped separately and charged to ``obs``.

Event kinds are counted through ``Simulator.on_dispatch``, which sees
each fired event's label without switching call sites to verbose
labels.  The kind is the label's first word, with ``cpuN-*`` collapsed
to ``cpu``.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager
from types import SimpleNamespace
from typing import Callable, Iterator, Optional

#: Log code for a span exit; span entries log the layer's code (>= 0).
EXIT = -1

#: Module prefix -> layer name, longest prefix first.
MODULE_LAYERS: tuple[tuple[str, str], ...] = (
    ("repro.coherence.controller", "coherence.controller"),
    ("repro.coherence.cache", "coherence.controller"),
    ("repro.coherence.mshr", "coherence.controller"),
    ("repro.coherence.directory_net", "coherence.directory_net"),
    ("repro.coherence.bus", "coherence.bus"),
    ("repro.coherence.datanet", "coherence.datanet"),
    ("repro.coherence.memory", "coherence.memory"),
    ("repro.sim.kernel", "sim"),
    ("repro.sim.taps", "obs"),
    ("repro.cpu", "cpu"),
    ("repro.sle", "sle"),
    ("repro.tlr", "tlr"),
    ("repro.policies", "policies"),
    ("repro.runtime", "runtime"),
    ("repro.sync", "runtime"),
    ("repro.workloads", "runtime"),
    ("repro.obs", "obs"),
    ("repro.verify", "verify"),
)

#: Every layer a traced job reports a self time for, in report order.
#: ``job`` is the root span (unattributed time).
LAYERS = ("sim", "coherence.controller", "coherence.bus",
          "coherence.directory_net", "coherence.datanet", "coherence.memory",
          "cpu", "sle", "tlr", "policies", "runtime", "obs", "verify")
ROOT = "job"

#: Entry points wrapped on each machine component: the methods other
#: layers call, plus the private methods a component schedules as
#: kernel events (found by logging the callables passed to
#: ``Simulator.schedule`` on every workload).
CONTROLLER_ENTRY = (
    "access", "try_hit", "mark_accessed", "has_writable", "watch",
    "set_link", "link_valid", "enter_speculation", "commit_speculation",
    "abort_speculation", "would_nack", "request_ordered", "handle_forward",
    "handle_invalidation", "handle_data", "handle_marker", "handle_probe",
    "handle_nack", "remote_abort", "upgrade_granted", "writeback_ordered",
    "_probe_watchdog", "_service_obligation", "_reissue_after_nack")
PROCESSOR_ENTRY = (
    "_advance", "_epoch_advance", "_compute_resume", "_on_misspeculation",
    "commit_transaction", "resource_fallback", "enter_cs", "exit_cs")
SLE_ENTRY = ("try_elide", "absorbs_release", "on_commit",
             "on_misspeculation", "observe_conflict_ts")
TIMESTAMP_ENTRY = ("begin", "observe_conflict", "commit", "abandon")
DEFERRAL_ENTRY = ("push", "drain", "has_line", "only_line", "earliest_ts")
POLICY_ENTRY = ("resolve", "probe_beats", "must_release_before_miss",
                "on_restart", "on_commit", "on_nacked", "backoff_for",
                "nack_delay", "request_priority", "should_fallback")
INTERCONNECT_ENTRY = ("issue", "cancel", "complete", "_grant", "_order",
                      "_deliver", "_arrive_at_home")
DATANET_ENTRY = ("send", "send_control")
MEMORY_ENTRY = ("supply", "writeback")
#: Observer objects: every ``on_*`` hook plus these named callbacks.
OBSERVER_EXTRA = ("finalize", "_watchdog_tick", "_global_progress_tick")


def layer_of(fn: Callable) -> str:
    """The layer charged for time spent in ``fn``."""
    func = getattr(fn, "__func__", fn)
    module = getattr(func, "__module__", "") or ""
    if module in ("repro.sim.taps", __name__) and hasattr(func, "__wrapped__"):
        return layer_of(func.__wrapped__)
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    raise KeyError(f"no layer for {module}.{getattr(func, '__qualname__', func)}")


def event_kind(label: str) -> str:
    """An event label's kind: first word, ``cpuN-*`` collapsed to ``cpu``."""
    head = label.split(" ", 1)[0]
    if head.startswith("cpu") and "-" in head and head[3:head.index("-")].isdigit():
        return "cpu"
    return head or "unlabelled"


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def spans_from_log(log) -> list[tuple[int, int, int, int]]:
    """Rebuild ``(code, start, end, parent_index)`` spans from a flat
    ``code, t, code, t, ...`` log.  Raises ValueError on an unbalanced
    log."""
    spans: list[list[int]] = []
    stack: list[int] = []
    for i in range(0, len(log), 2):
        code, t = log[i], log[i + 1]
        if code == EXIT:
            if not stack:
                raise ValueError("span exit without entry")
            spans[stack.pop()][2] = t
        else:
            spans.append([code, t, -1, stack[-1] if stack else -1])
            stack.append(len(spans) - 1)
    if stack:
        raise ValueError(f"{len(stack)} span(s) never closed")
    return [tuple(s) for s in spans]


def self_times(spans) -> tuple[Counter, Counter]:
    """Per-code self time (span minus its direct children) and span
    counts for ``(code, start, end, parent)`` spans."""
    child_time = [0] * len(spans)
    for code, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    for i, (code, start, end, _parent) in enumerate(spans):
        self_ns[code] += end - start - child_time[i]
        calls[code] += 1
    return self_ns, calls


# ----------------------------------------------------------------------
# The tracer
# ----------------------------------------------------------------------
class LayerTracer:
    """Collects spans, event kinds and probe deliveries over traced jobs.

    Use :meth:`hooks` around the traced pass, and :meth:`job` around
    each job; after the pass, :attr:`self_ns`, :attr:`calls` and
    :attr:`event_kinds` hold the totals over every traced job.
    """

    def __init__(self) -> None:
        self.clock = time.perf_counter_ns
        self.names: list[str] = [ROOT, *LAYERS]
        self._codes = {name: i for i, name in enumerate(self.names)}
        self.log = array("q")
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.event_kinds: Counter = Counter()
        self.probe_deliveries = 0
        self.probe_repeats = 0
        self._probe_keys: set = set()
        #: Host time inside ``SerializabilityOracle.check``.
        self.oracle_ns = 0
        #: Spans ``(name, start, end, parent)`` of the first traced job,
        #: for writing out.
        self.first_spans: list[tuple[str, int, int, int]] = []
        #: The machine the current job built (set by the run hook).
        self.machine = None

    # -- wrapping --------------------------------------------------------
    def span(self, fn: Callable, layer: Optional[str] = None) -> Callable:
        """``fn`` wrapped in a span charged to ``layer`` (default: the
        layer of the module defining ``fn``)."""
        code = self._codes[layer or layer_of(fn)]
        log = self.log
        clock = self.clock

        def wrapper(*args, **kwargs):
            log.append(code)
            log.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                log.append(EXIT)
                log.append(clock())

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, obj, names) -> None:
        """Replace each named method of ``obj`` (where present) with a
        span wrapper, on the instance only."""
        for name in names:
            fn = getattr(obj, name, None)
            if callable(fn):
                setattr(obj, name, self.span(fn))

    def wrap_observer(self, obj) -> None:
        """Wrap every ``on_*`` hook of an observer object."""
        names = [n for n in dir(type(obj))
                 if n.startswith("on_") or n in OBSERVER_EXTRA]
        self.wrap(obj, names)

    def instrument(self, machine) -> None:
        """Install span wrappers and counters on a freshly built machine
        whose observers are attached but which has not run yet."""
        self.machine = machine
        seen_observers: set[int] = set()

        def observer(obj) -> None:
            if obj is not None and id(obj) not in seen_observers:
                seen_observers.add(id(obj))
                self.wrap_observer(obj)

        sim = machine.sim
        sim.run = self.span(sim.run, "sim")
        previous = sim.on_dispatch
        kinds = self.event_kinds

        def on_dispatch(now: int, label: str) -> None:
            kinds[event_kind(label)] += 1
            if previous is not None:
                previous(now, label)

        sim.on_dispatch = on_dispatch
        self.wrap(machine.bus, INTERCONNECT_ENTRY)
        self.wrap(machine.datanet, DATANET_ENTRY)
        self.wrap(machine.memory, MEMORY_ENTRY)
        store = machine.store
        if "write" in vars(store):      # an observer's recording shim
            store.write = self.span(store.write)
        for controller, processor in zip(machine.controllers,
                                         machine.processors):
            self._watch_probes(controller)
            self.wrap(controller, CONTROLLER_ENTRY)
            self.wrap(controller.deferred, DEFERRAL_ENTRY)
            self.wrap(controller.policy, POLICY_ENTRY)
            observer(controller.obs)
            observer(controller.monitor)
            if "_arch_read" in vars(processor):   # recording shim
                processor._arch_read = self.span(processor._arch_read)
            misspec = processor._on_misspeculation
            conflict_ts = processor.spec.observe_conflict_ts
            self.wrap(processor, PROCESSOR_ENTRY)
            self.wrap(processor.spec, SLE_ENTRY)
            self.wrap(processor.spec.authority, TIMESTAMP_ENTRY)
            # The processor handed these bound methods to the controller
            # at construction; re-point them at the wrappers.
            if controller.on_misspeculation == misspec:
                controller.on_misspeculation = processor._on_misspeculation
            if controller.on_conflict_ts == conflict_ts:
                controller.on_conflict_ts = processor.spec.observe_conflict_ts
            observer(processor.obs)
            run_program = processor.run_program

            def timed_run_program(gen, start_delay=0, _run=run_program):
                # The processor only calls send/throw/close on a thread's
                # generator; each resumption is runtime (workload) time.
                _run(SimpleNamespace(send=self.span(gen.send, "runtime"),
                                     throw=self.span(gen.throw, "runtime"),
                                     close=gen.close), start_delay)

            processor.run_program = timed_run_program
        taps = getattr(machine, "taps", None)
        if taps is not None:
            for consumer in taps._consumers:
                observer(consumer)

    def _watch_probes(self, controller) -> None:
        """Count probe deliveries whose (receiver, line, ts, origin) was
        already delivered in this job."""
        handle_probe = controller.handle_probe
        receiver = controller.cpu_id
        keys = self._probe_keys

        def observed(probe):
            key = (receiver, probe.line, probe.ts, probe.origin)
            self.probe_deliveries += 1
            if key in keys:
                self.probe_repeats += 1
            else:
                keys.add(key)
            return handle_probe(probe)

        observed.__wrapped__ = handle_probe
        controller.handle_probe = observed

    @contextmanager
    def hooks(self) -> Iterator["LayerTracer"]:
        """Install the two class-level hooks for the traced pass."""
        from repro.harness.machine import Machine
        from repro.verify.oracle import SerializabilityOracle

        original_run = Machine.run_workload
        original_check = SerializabilityOracle.check
        tracer = self

        def run_workload(machine, workload, validate=True):
            tracer.instrument(machine)
            return original_run(machine, workload, validate=validate)

        traced_check = self.span(original_check, "verify")
        clock = self.clock

        def check(oracle, *args, **kwargs):
            start = clock()
            try:
                return traced_check(oracle, *args, **kwargs)
            finally:
                tracer.oracle_ns += clock() - start

        Machine.run_workload = run_workload
        SerializabilityOracle.check = check
        try:
            yield self
        finally:
            Machine.run_workload = original_run
            SerializabilityOracle.check = original_check

    # -- per job ---------------------------------------------------------
    @contextmanager
    def job(self) -> Iterator["LayerTracer"]:
        """Trace one job as a root span; fold its spans into the totals
        when it ends."""
        del self.log[:]
        self._probe_keys.clear()
        self.machine = None
        root = self._codes[ROOT]
        self.log.append(root)
        self.log.append(self.clock())
        try:
            yield self
        finally:
            self.log.append(EXIT)
            self.log.append(self.clock())
            spans = spans_from_log(self.log)
            del self.log[:]
            self_ns, calls = self_times(spans)
            for code, ns in self_ns.items():
                self.self_ns[self.names[code]] += ns
            for code, count in calls.items():
                self.calls[self.names[code]] += count
            if not self.first_spans:
                self.first_spans = [(self.names[c], s, e, p)
                                    for c, s, e, p in spans]

    @property
    def traced_ns(self) -> int:
        """Total host time of the traced jobs (sum of root spans)."""
        return sum(self.self_ns.values())


@contextmanager
def count_events() -> Iterator[Counter]:
    """Count event kinds of every machine run inside the block (no
    spans): used for the scaling table."""
    from repro.harness.machine import Machine

    kinds: Counter = Counter()
    original_run = Machine.run_workload

    def run_workload(machine, workload, validate=True):
        machine.sim.on_dispatch = lambda now, label: kinds.update(
            (event_kind(label),))
        return original_run(machine, workload, validate=validate)

    Machine.run_workload = run_workload
    try:
        yield kinds
    finally:
        Machine.run_workload = original_run
