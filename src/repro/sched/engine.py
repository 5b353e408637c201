"""The preemption engine: timer interrupts over the simulated machine.

:class:`SchedEngine` multiplexes the workload's N threads over
``M = num_cpus // threads_per_cpu`` CPU *slots*.  Each workload thread
keeps its hardware context (cache, write buffer, speculation state) --
like an SMT context -- but at most M contexts are *running* at any
instant; the rest sit descheduled via the processor's existing
:meth:`~repro.cpu.processor.Processor.deschedule` contract.  That
contract is precisely the paper's context-switch stress: descheduling
a speculating processor aborts its in-flight elision (counted in
``restart_reasons["deschedule"]``), and TLR's lock-free claim is that
the *other* threads keep committing while the victim is off-CPU.

Mechanism notes (the invariants tests rely on):

* **Timer ticks.**  One self-rescheduling kernel event per slot, period
  = quantum, first firing staggered by the slot index so slots do not
  all switch on the same cycle.  A tick handle follows the kernel's
  recycled-``Event`` contract: the firing callback nulls the holder
  field before doing anything else.  Ticks stop rescheduling once every
  thread finished, so the kernel queue drains and end-of-run deadlock
  detection keeps working.
* **Inertness.**  A core may only request preemption when an eligible
  waiter exists (see ``SchedulerCore.should_preempt``), so with
  ``threads == cpus`` the engine never preempts, never migrates, draws
  no RNG and writes nothing into ``stats.extra`` -- result fingerprints
  match scheduler-off bit-for-bit.
* **Migration.**  Home slot = ``thread % slots``; with ``migrate=True``
  slots steal any ready thread.  A migration is charged when a thread
  resumes on a different slot than it last ran on.  Both context
  switches and migrations are modelled as pure *time* penalties before
  the resume -- the victim's cache contents are left alone, because
  flushing owned (M/O) lines would require write-backs that perturb
  coherence far beyond what a scheduler should do; DESIGN §8 records
  the trade-off.
* **Accounting.**  Preemption/migration/context-switch-abort totals go
  to ``stats.extra`` (only ever written when an event actually
  happens) and to the obs registry via the attached
  ``MachineMetrics``; per-thread on-CPU cycles accumulate in
  :attr:`oncpu` for per-thread latency attribution at finalize.
* **Record.**  Every switch-in/out/migration is emitted to the
  machine's ``obs`` slot as ``on_sched_switch(kind, slot, thread)``;
  the flight recorder turns them into ``OP_SCHED`` records so replay
  can answer "who was on CPU at cycle T".
"""

from __future__ import annotations

from typing import Optional

from repro.sched.core import make_scheduler

#: ``kind`` values shared with the record log's ``OP_SCHED`` payload.
SCHED_IN = 0        # thread switched onto a slot
SCHED_OUT = 1       # thread switched off a slot (preempt or finish)
SCHED_MIGRATE = 2   # thread is resuming on a different slot


class SchedEngine:
    """Preemptive multiplexer for one :class:`~repro...Machine` run."""

    def __init__(self, machine, num_threads: int):
        cfg = machine.config.sched
        self.machine = machine
        self.sim = machine.sim
        self.cfg = cfg
        self.num_threads = num_threads
        self.threads_per_cpu = cfg.threads_per_cpu
        self.slots = max(1, machine.config.num_cpus // cfg.threads_per_cpu)
        self.quantum = cfg.quantum
        self.core = make_scheduler(cfg.scheduler, num_threads, self.slots,
                                   cfg.quantum)
        self.migrate = cfg.migrate
        self.stats = machine.stats
        self.obs = None                     # the machine's observer

        self.running: list[Optional[int]] = [None] * self.slots
        self.ran_since: list[int] = [0] * self.slots
        self.thread_slot: dict[int, int] = {}
        self.last_slot: dict[int, int] = {}
        self.oncpu: dict[int, int] = {t: 0 for t in range(num_threads)}
        self.preemptions = 0
        self.migrations = 0
        self.context_switch_aborts = 0
        self._finished = 0
        self._ticks: list[Optional[object]] = [None] * self.slots
        self._tick_labels = [f"sched-tick{s}" for s in range(self.slots)]
        # Slot affinity in one place: home-pinned unless migration is on.
        if self.migrate:
            self._eligible = [(lambda t: True)] * self.slots
        else:
            self._eligible = [
                (lambda t, _s=s: t % self.slots == _s)
                for s in range(self.slots)]

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> None:
        """Park every thread, fill the slots, arm the timers.  Called
        by ``Machine.run_workload`` after programs are attached and
        before the simulation runs."""
        self.obs = getattr(self.machine.processors[0], "obs", None)
        for thread in range(self.num_threads):
            proc = self.machine.processors[thread]
            proc.on_finish = self._on_thread_finish
            proc.deschedule()
            self.core.admit(thread)
        for slot in range(self.slots):
            self._dispatch(slot, initial=True)
        for slot in range(self.slots):
            # Stagger first firings by the slot index so slot switches
            # never all land on one cycle.
            self._ticks[slot] = self.sim.schedule(
                self.quantum + slot, self._tick, slot,
                label=self._tick_labels[slot])

    def thread_on_slot(self, slot: int) -> Optional[int]:
        return self.running[slot]

    def thread_on_context(self, cpu_id: int) -> int:
        """The workload thread bound to hardware context ``cpu_id``.
        In the slot-overlay model contexts are per-thread, so this is
        the identity map -- the seam exists so span keys survive any
        future shared-context design."""
        return cpu_id

    # ------------------------------------------------------------------
    # timer interrupt

    def _tick(self, slot: int) -> None:
        self._ticks[slot] = None    # handle is recycled after firing
        if self._finished >= self.num_threads:
            return                  # let the kernel queue drain
        self.core.on_tick(self.sim.now)
        current = self.running[slot]
        if current is not None:
            ran = self.sim.now - self.ran_since[slot]
            if self.core.should_preempt(slot, current, ran,
                                        self._eligible[slot]):
                self._preempt(slot)
        if self.running[slot] is None:
            self._dispatch(slot)
        self._ticks[slot] = self.sim.schedule(
            self.quantum, self._tick, slot, label=self._tick_labels[slot])

    # ------------------------------------------------------------------
    # switching

    def _preempt(self, slot: int) -> None:
        thread = self.running[slot]
        proc = self.machine.processors[thread]
        was_speculating = proc.spec.active
        proc.deschedule()           # aborts in-flight elision if active
        ran = max(0, self.sim.now - self.ran_since[slot])
        self.oncpu[thread] += ran
        self.running[slot] = None
        self.thread_slot.pop(thread, None)
        self.core.requeue(thread, ran)
        self.preemptions += 1
        self.stats.extra["sched.preemptions"] += 1
        if was_speculating:
            self.context_switch_aborts += 1
            self.stats.extra["sched.context_switch_aborts"] += 1
        if self.obs is not None:
            self.obs.on_sched_switch(SCHED_OUT, slot, thread)
            self.obs.on_sched_preempt(slot, thread, ran, was_speculating)

    def _dispatch(self, slot: int, initial: bool = False) -> None:
        thread = self.core.pick(slot, self._eligible[slot])
        if thread is None:
            return
        delay = 0 if initial else self.cfg.context_switch_penalty
        prev = self.last_slot.get(thread)
        if prev is not None and prev != slot:
            delay += self.cfg.migration_penalty
            self.migrations += 1
            self.stats.extra["sched.migrations"] += 1
            if self.obs is not None:
                self.obs.on_sched_switch(SCHED_MIGRATE, slot, thread)
                self.obs.on_sched_migrate(thread, prev, slot)
        self.last_slot[thread] = slot
        self.running[slot] = thread
        self.thread_slot[thread] = slot
        self.ran_since[slot] = self.sim.now + delay
        if self.obs is not None:
            self.obs.on_sched_switch(SCHED_IN, slot, thread)
        if delay:
            self.sim.schedule(delay, self._resume, thread,
                              label=f"sched-switch{slot}")
        else:
            self.machine.processors[thread].reschedule()

    def _resume(self, thread: int) -> None:
        # The thread may have been preempted again (or finished its
        # whole program is impossible -- it never ran) before the
        # switch penalty elapsed; only resume if it still owns a slot.
        if self.thread_slot.get(thread) is None:
            return
        self.machine.processors[thread].reschedule()

    def _on_thread_finish(self, proc) -> None:
        thread = proc.cpu_id
        self._finished += 1
        self.core.on_done(thread)
        slot = self.thread_slot.pop(thread, None)
        if slot is None:
            return
        self.oncpu[thread] += max(0, self.sim.now - self.ran_since[slot])
        self.running[slot] = None
        if self.obs is not None:
            self.obs.on_sched_switch(SCHED_OUT, slot, thread)
        # Fast refill: do not leave the slot idle until the next tick.
        if self._finished < self.num_threads:
            self._dispatch(slot)

    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Accounting summary for obs finalize and tests."""
        return {
            "slots": self.slots,
            "preemptions": self.preemptions,
            "migrations": self.migrations,
            "context_switch_aborts": self.context_switch_aborts,
            "oncpu": dict(self.oncpu),
        }
