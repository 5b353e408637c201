"""Observer output pins and the no-method-replacement contract.

Every digest below was captured on the tree that still observed the
machine through method shims (``MachineTaps`` and the footprint
recorder's per-instance wrappers).  The explicit ``obs`` emit points
that replaced them must reproduce each observer's output exactly: the
flight recorder's log bytes (plain, verify-harness and scheduler-on
runs), the live contention profile, the tracer's instant and span
streams, and the committed-transaction footprints.  They were
re-captured at FINGERPRINT_VERSION 10, when probes stopped being re-sent
on a timer: the simulations themselves changed, not the observers.

The record-log digests of the linked-list protocol × policy matrix live
beside the other matrix tests in ``test_record_replay.py``.

The schedule-chaos pins (``CHAOS_VERDICTS``, ``CHAOS_LOG``) hold the
verify harness under a seeded same-cycle priority: the verdict of every
protocol × policy cell and the record-log bytes of one chaos run.  They
were captured while the chaos hook still drew through ``randint`` and
every call site still built descriptive labels under it; the cheaper
draw and the label gate must reproduce them exactly.
"""

import hashlib
import json
import re
from dataclasses import replace

import pytest

from repro.harness.config import SchedConfig, SyncScheme, SystemConfig
from repro.harness.machine import Machine
from repro.harness.runner import execute_workload
from repro.harness.spec import RunSpec
from repro.obs import MachineMetrics
from repro.obs.profile import LockProfiler
from repro.policies import POLICY_NAMES
from repro.record import FlightRecorder, load_log, record_run
from repro.sim.trace import Tracer
from repro.verify.explorer import verify_run
from repro.verify.monitors import MonitorSuite
from repro.verify.recorder import FootprintRecorder

VERIFY_LOG = "0daba48893937fedc841cd2c4bbec225264b7870de9a60bf4a1a99e7f76b1db6"
SCHED_LOG = "9ca4ffd955fd35457a50f599e7b14027c0a2a541c03116d608c705437a226e63"
PROFILE = "b9823f20177342ce3917948c6f261b5d9dbe8f7a0de1613fd20272c254c6663d"
TRACER = "57eb782abf3416ad0fac7f62d2a53d6da5c7e76484eae39dd0915e9dd8b79f8c"
FOOTPRINT = "330fe5fd577c171b0b90ac9c6b07d7e0c2261b0fc5f70e37e5c6a7fad4cc18f3"
CHAOS_LOG = "4548b5203ac885abf36aeca3d8eccfeb9f3501586ced275b51dafc841d315961"
#: sha256 of ``verdict.to_dict()`` without ``elapsed``: linked-list,
#: 8 CPUs, 96 ops, seed 3, ``schedule_chaos=4``.
CHAOS_VERDICTS = {
    ("snoop", "timestamp"):
        "acb7ab09fd4a0bf9cd6592f055faa06a97972ff6630d5cc87601871dff300464",
    ("snoop", "nack"):
        "bbb7a246315284a76e5e592a48a9fc545431a43547f0730cfa038e0c1c8774be",
    ("snoop", "requester-wins"):
        "d66cead2b9c432a22e9040b009a337307961ee440ad9e5cb55546a60d9463886",
    ("snoop", "backoff"):
        "af189e830dcb128d08c6b35d2756578ec512583870c5eb727bba86bbcee22088",
    ("directory", "timestamp"):
        "a5435a6c5417d413aa2893c743374b7fdfa1609fbfdb515839f9593562536e1f",
    ("directory", "nack"):
        "802c542962da6553fd9ee1d1200a671e3f3e582b88b0a22d6fb8b5f717690730",
    ("directory", "requester-wins"):
        "0fd063bafdfa493e9f0251c584686c48a8c1611b6672e29ec5c8d9a7f4573472",
    ("directory", "backoff"):
        "6dc7e546a2fc26bec292ad1f4f483ac40510916e89cee5b4a237e445387041b0",
}


def _spec(policy="timestamp", protocol="snoop", seed=0, cpus=4, ops=48,
          sched=None, chaos=0):
    config = SystemConfig(num_cpus=cpus, scheme=SyncScheme.TLR, seed=seed,
                          protocol=protocol).with_policy(policy)
    if sched is not None:
        config = replace(config, sched=sched)
    if chaos:
        config = replace(config, schedule_chaos=chaos)
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


@pytest.mark.parametrize("protocol,policy", [
    (protocol, policy) for protocol in ("snoop", "directory")
    for policy in POLICY_NAMES])
def test_chaos_verdict_digests(protocol, policy):
    verdict, _ = verify_run(_spec(policy, protocol, seed=3, cpus=8, ops=96,
                                  chaos=4))
    assert verdict.ok, verdict.error or verdict.violations
    payload = verdict.to_dict()
    payload.pop("elapsed")
    assert _sha(_canonical(payload)) == CHAOS_VERDICTS[protocol, policy]


def test_chaos_verify_log_bytes():
    result, _ = verify_run(_spec(seed=1, cpus=8, chaos=4), record=True)
    assert result.ok
    assert _sha(result.log_bytes) == CHAOS_LOG


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
