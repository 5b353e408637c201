"""Observer output pins and the no-method-replacement contract.

Every digest below was captured on the tree that still observed the
machine through method shims (``MachineTaps`` and the footprint
recorder's per-instance wrappers).  The explicit ``obs`` emit points
that replaced them must reproduce each observer's output exactly: the
flight recorder's log bytes (plain, verify-harness and scheduler-on
runs), the live contention profile, the tracer's instant and span
streams, and the committed-transaction footprints.

The record-log digests of the linked-list protocol × policy matrix live
beside the other matrix tests in ``test_record_replay.py``.
"""

import hashlib
import json
import re
from dataclasses import replace

from repro.harness.config import SchedConfig, SyncScheme, SystemConfig
from repro.harness.machine import Machine
from repro.harness.runner import execute_workload
from repro.harness.spec import RunSpec
from repro.obs import MachineMetrics
from repro.obs.profile import LockProfiler
from repro.record import FlightRecorder, load_log, record_run
from repro.sim.trace import Tracer
from repro.verify.explorer import verify_run
from repro.verify.monitors import MonitorSuite
from repro.verify.recorder import FootprintRecorder

VERIFY_LOG = "31c5eeed3319154ab77a04e3584707e8ac2d65f146244f62a9414f541279337f"
SCHED_LOG = "4217a0252dd0e01b79a5d4ce3d7e4775003d882dac258a1a94ea67bb0a1f2060"
PROFILE = "1f29b33f2168dd6b679e1a3bf44a188505b93e6a864c1c04a495ef943cb9431d"
TRACER = "72764f9384acfe5b3e8e6039de2749db6b3e9f9427203be8fde445946fe7ba16"
FOOTPRINT = "1b8391865dae5b8be0e1a818c82cc1a835c33d30ad7282524a3444924d649a6f"


def _spec(policy="timestamp", protocol="snoop", seed=0, cpus=4, ops=48,
          sched=None):
    config = SystemConfig(num_cpus=cpus, scheme=SyncScheme.TLR, seed=seed,
                          protocol=protocol).with_policy(policy)
    if sched is not None:
        config = replace(config, sched=sched)
    return RunSpec(workload="linked-list", config=config,
                   workload_args={"total_ops": ops})


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


_REQ_ID = re.compile(r"(#|req_id=)(\d+)")


def _dense_req_ids(texts):
    """Rewrite request ids in ``texts`` to first-seen order: the raw ids
    come from a process-global counter, so they depend on what ran
    earlier in the same interpreter."""
    dense: dict[str, str] = {}

    def sub(match):
        key = dense.setdefault(match.group(2), str(len(dense) + 1))
        return match.group(1) + key

    return [_REQ_ID.sub(sub, text) for text in texts]


def test_verify_harness_log_bytes():
    result, _ = verify_run(_spec(), record=True)
    assert result.ok
    assert _sha(result.log_bytes) == VERIFY_LOG


def test_scheduler_on_log_bytes():
    spec = _spec(sched=SchedConfig(scheduler="rr", quantum=300,
                                   threads_per_cpu=2))
    recorded = record_run(spec)
    assert recorded.error is None
    assert any(r.op == "sched" for r in load_log(recorded.log).records)
    assert _sha(recorded.log) == SCHED_LOG


def test_live_profile_canonical_json():
    spec = _spec(seed=1, cpus=8, ops=96)
    result = execute_workload(spec.build_workload(), spec.config)
    assert _sha(_canonical(result.metrics["profile"])) == PROFILE


def test_tracer_events_and_spans():
    spec = _spec("nack", "directory", seed=1, cpus=8, ops=96)
    machine = Machine(spec.config)
    tracer = Tracer().attach(machine)
    machine.run_workload(spec.build_workload())
    details = _dense_req_ids([e.detail for e in tracer.events])
    events = [[e.time, e.cpu, e.kind, e.line, detail]
              for e, detail in zip(tracer.events, details)]
    spans = [[s.begin, s.end, s.cpu, s.kind, s.line, s.detail]
             for s in tracer.spans]
    assert _sha(_canonical([events, spans])) == TRACER


def test_footprint_committed_and_log():
    spec = _spec(seed=1, cpus=8, ops=96)
    machine = Machine(spec.config)
    footprints = FootprintRecorder().attach(machine)
    machine.run_workload(spec.build_workload())
    committed = [
        [txn.txn_id, txn.cpu, list(txn.ts) if txn.ts else None,
         txn.commit_time,
         [[o.addr, o.value, o.line, o.writer, o.line_writer, o.epoch,
           o.time, o.era] for o in txn.reads],
         sorted(txn.writes.items()), sorted(txn.line_eras.items())]
        for txn in footprints.committed]
    log = [list(entry) for entry in footprints.log]
    assert _sha(_canonical([committed, log])) == FOOTPRINT


def test_no_observer_replaces_a_component_method():
    """Observers attach through data slots only: attaching every one of
    them adds or re-points no callable on any component instance."""
    spec = _spec(seed=2)
    machine = Machine(spec.config)
    components = [*machine.controllers, *machine.processors, machine.bus,
                  machine.store]

    def callables(obj):
        return {name: value for name, value in vars(obj).items()
                if callable(value)}

    before = [callables(obj) for obj in components]
    workload = spec.build_workload()
    MachineMetrics().attach(machine)
    LockProfiler().attach(machine)
    Tracer().attach(machine)
    FlightRecorder(spec, locks=sorted(workload.lock_addrs)).attach(machine)
    FootprintRecorder().attach(machine)
    MonitorSuite(machine).attach()
    after = [callables(obj) for obj in components]
    for obj, was, now in zip(components, before, after):
        changed = sorted(name for name in now
                         if name not in was or now[name] is not was[name])
        assert not changed, f"{obj!r}: observers replaced {changed}"
    machine.run_workload(workload)
