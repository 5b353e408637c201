"""The machine's one observation interface: ``obs`` emit points.

Cache controllers, processors, the value store and the scheduler engine
each carry an ``obs`` slot, ``None`` in normal runs, and call it at the
points in :data:`HOOKS`, each guarded by one ``if self.obs is not None``
test.  Entry points fire before any early return of their handler; the
two ``settled`` points fire on every return path.  A consumer subclasses
:class:`Observer` (every hook a no-op), overrides the hooks it needs and
attaches with :func:`attach_observer`.  Several consumers share the
slots through a :class:`Fanout`, which resolves each hook at attach time
to the consumers that define it, in attach order.

Consumers only read the machine (``cache.peek``, never ``lookup``): they
schedule nothing, draw no random numbers and mutate nothing, so observed
runs stay bit-identical to bare ones.  The ``monitor`` slot stays apart:
the invariant monitors schedule watchdog events and raise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.machine import Machine

#: Every emit point: hook -> its arguments and when it fires.
HOOKS = {
    # The cache controller (passed first as ``controller``).
    "on_request_issued": "(controller, request) a demand miss left",
    "on_request_reissued": "(controller, request) a NACKed request "
                           "re-arbitrates",
    "on_writeback_issued": "(controller, request) a dirty victim's "
                           "writeback left",
    "on_forward": "(controller, request) a request for a line we own "
                  "was forwarded to us",
    "on_invalidation": "(controller, request) a request invalidates our "
                       "copy or in-flight fill",
    "on_data": "(controller, request) our outstanding fill arrived",
    "on_stale_data": "(controller, request) a fill arrived for a request "
                     "no longer outstanding",
    "on_nack": "(controller, request) our outstanding request was refused",
    "on_stale_nack": "(controller, request) a refusal arrived for a "
                     "request no longer outstanding",
    "on_defer": "(controller, request) a conflicting request entered the "
                "deferred queue (section 3.1.1)",
    "on_obligation_serviced": "(controller, request) data is being "
                              "supplied for request",
    "on_marker_sent": "(controller, marker) a marker left",
    "on_marker": "(controller, marker) a marker arrived",
    "on_probe_sent": "(controller, probe) a probe left upstream",
    "on_probe": "(controller, probe) a probe arrived",
    "on_loss": "(controller, reason, line_addr, ts, aborter) a conflict "
               "on line_addr was lost to cpu aborter (-1: unattributed); "
               "fires even when no longer speculating",
    "on_txn_begin": "(controller, ts) the processor entered a lock-free "
                    "transaction",
    "on_commit": "(controller) the controller's speculation committed",
    "on_abort": "(controller) the processor abandoned speculation; fires "
                "even when not speculating",
    "on_line_settled": "(controller, line_addr) a handler that may have "
                       "moved line_addr's coherence state returned",
    "on_queue_settled": "(controller) a handler that may have moved the "
                        "deferred queue returned",
    # The processor.
    "on_txn_read": "(processor, addr, value) a transactional read took "
                   "value from memory, not from the write buffer",
    "on_txn_commit": "(processor) the transaction commits; its write "
                     "buffer has not drained yet",
    "on_misspeculation": "(processor, reason, line_addr) the speculation "
                         "died; fires even when none is active",
    "on_restart": "(processor, reason, backoff, streak) a restart was "
                  "paced backoff cycles out after streak losses",
    # The value store.
    "on_plain_write": "(store, addr, value) a non-transactional write "
                      "(commits land through ValueStore.publish)",
    # The scheduler engine (repro.sched).
    "on_sched_switch": "(kind, slot, thread) a switch-in, switch-out or "
                       "migration (repro.sched.engine SCHED_* kinds)",
    "on_sched_preempt": "(slot, thread, ran, aborted) a timer interrupt "
                        "preempted thread after ran cycles",
    "on_sched_migrate": "(thread, from_slot, to_slot) a thread resumes "
                        "on another slot",
}


def _noop(self, a=None, b=None, c=None, d=None, e=None) -> None:
    """An emit point this consumer does not observe (fixed arity: a
    call binds no ``*args`` tuple)."""


Observer = type("Observer", (), {
    "__doc__": "The consumer base: every emit point in HOOKS, as a no-op.",
    **dict.fromkeys(HOOKS, _noop)})


class EventObserver(Observer):
    """An observer that sees every entry point as one event, named by
    its record-log kind (``request``, ``forward``, ``data``, ``loss``,
    ``txn-begin``, ...).  ``message`` is the request or marker the event
    carries; ``reason``, ``ts`` and ``aborter`` ride on losses,
    misspeculations and transaction begins."""

    def on_event(self, component, cpu: int, kind: str,
                 line: Optional[int], message=None,
                 reason: Optional[str] = None, ts=None,
                 aborter: int = -1) -> None:
        """One event of ``kind`` on ``cpu``, touching ``line``."""

    def on_request_issued(self, controller, request) -> None:
        self.on_event(controller, request.requester, "request",
                      request.line, request)

    on_request_reissued = on_writeback_issued = on_request_issued

    def _message(self, controller, message, kind: str) -> None:
        self.on_event(controller, controller.cpu_id, kind, message.line,
                      message)

    def on_forward(self, controller, request) -> None:
        self._message(controller, request, "forward")

    def on_invalidation(self, controller, request) -> None:
        self._message(controller, request, "invalidation")

    def on_data(self, controller, request) -> None:
        self._message(controller, request, "data")

    def on_nack(self, controller, request) -> None:
        self._message(controller, request, "nack")

    on_stale_data, on_stale_nack = on_data, on_nack

    def on_defer(self, controller, request) -> None:
        self._message(controller, request, "defer")

    def on_obligation_serviced(self, controller, request) -> None:
        self._message(controller, request, "service")

    def on_marker(self, controller, marker) -> None:
        self._message(controller, marker, "marker")

    def on_probe(self, controller, probe) -> None:
        self.on_event(controller, controller.cpu_id, "probe", probe.line)

    def on_loss(self, controller, reason, line_addr, ts, aborter) -> None:
        self.on_event(controller, controller.cpu_id, "loss", line_addr,
                      reason=reason, ts=ts, aborter=aborter)

    def on_txn_begin(self, controller, ts) -> None:
        self.on_event(controller, controller.cpu_id, "txn-begin", None,
                      ts=ts)

    def on_commit(self, controller) -> None:
        self.on_event(controller, controller.cpu_id, "commit", None)

    def on_abort(self, controller) -> None:
        self.on_event(controller, controller.cpu_id, "abort", None)

    def on_txn_commit(self, processor) -> None:
        self.on_event(processor, processor.cpu_id, "txn-commit", None)

    def on_misspeculation(self, processor, reason, line_addr) -> None:
        self.on_event(processor, processor.cpu_id, "misspec", line_addr,
                      reason=reason)


def _hook(consumer, name: str) -> Optional[Callable]:
    """``consumer``'s bound hook ``name``, or None for the no-op."""
    hook = getattr(consumer, name)
    return None if getattr(hook, "__func__", None) is _noop else hook


def _fan(hooks: list[Callable]) -> Callable:
    def fan(*args) -> None:
        for hook in hooks:
            hook(*args)
    return fan


class Fanout(Observer):
    """The ``obs`` slot when several consumers share a machine."""

    def __init__(self, consumers: list) -> None:
        self._consumers = consumers
        for name in HOOKS:
            hooks = [hook for hook in (_hook(c, name) for c in consumers)
                     if hook is not None]
            if hooks:
                self.__dict__[name] = hooks[0] if len(hooks) == 1 \
                    else _fan(hooks)


def attach_observer(machine: "Machine", consumer: Observer) -> None:
    """Point every ``obs`` slot of ``machine`` at ``consumer``, beside
    any consumer already attached (attaching one twice is a no-op).
    Call before ``run_workload``."""
    current = machine.store.obs
    consumers = getattr(current, "_consumers",
                        [] if current is None else [current])
    if any(c is consumer for c in consumers):
        return
    consumers = [*consumers, consumer]
    slot = consumer if len(consumers) == 1 else Fanout(consumers)
    for component in (*machine.controllers, *machine.processors,
                      machine.store):
        component.obs = slot
