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

The telemetry pins (``METRICS``, ``CHAOS_OUTCOMES``) were captured
while a second observer still built the contention profile beside the
flat registry and copied its totals in: the run payload minus the
``policy.*`` gauges, and each chaos verdict minus its telemetry.  The
one collector that folds both must reproduce them exactly.  With it,
verdicts carry the same payload as every run (profile included) and
the ``policy.*`` gauges became machine totals, so ``CHAOS_VERDICTS`` was
re-captured; the record-log pins were re-captured at
FINGERPRINT_VERSION 11, whose header field is the only change to the
logs (their decoded records are unchanged).
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
from repro.policies import POLICY_NAMES
from repro.record import FlightRecorder, load_log, record_run
from repro.sim.trace import Tracer
from repro.verify.explorer import verify_run
from repro.verify.monitors import MonitorSuite
from repro.verify.recorder import FootprintRecorder

VERIFY_LOG = "705fffb93b19183c69261c36c3ba1672143f8cad3aaa400bf24cc95a46e90086"
SCHED_LOG = "bde7cc28357a648076121d0d2aebf9605c951eff1529c32980e7822c4d0b20db"
PROFILE = "b9823f20177342ce3917948c6f261b5d9dbe8f7a0de1613fd20272c254c6663d"
TRACER = "57eb782abf3416ad0fac7f62d2a53d6da5c7e76484eae39dd0915e9dd8b79f8c"
FOOTPRINT = "330fe5fd577c171b0b90ac9c6b07d7e0c2261b0fc5f70e37e5c6a7fad4cc18f3"
CHAOS_LOG = "e17d505f22f672ccf626b7c55d3bfe43a87c924fe06a343618f0de4f193d6210"
#: sha256 of ``verdict.to_dict()`` without ``elapsed``: linked-list,
#: 8 CPUs, 96 ops, seed 3, ``schedule_chaos=4``.
CHAOS_VERDICTS = {
    ("snoop", "timestamp"):
        "61378213495e90bce68e121b6447ad00465dc9910ec1e0f7b6be4bfd571ee8b4",
    ("snoop", "nack"):
        "bbc5b8a2a90935843041d4d40e0664e62a95a389579183fb9b359fa980716805",
    ("snoop", "requester-wins"):
        "5f986e3c5524594799bc5d95e1b8ac039a4f6e6b8d9270b4e1f17e800107619b",
    ("snoop", "backoff"):
        "2e9ed5284f91f8dce62dc41f7ac45301a2f723222abba505d1a94663ce96854d",
    ("directory", "timestamp"):
        "3cd2cdd348c9d4e92d6ce5e00842b2f524c3f502bc58b4edea4fbfaa255118ab",
    ("directory", "nack"):
        "907a07f2fcd11b2113e29f1527cc59d588a2debb7f25f79a2d682e59cb1904cb",
    ("directory", "requester-wins"):
        "ea64394d169321a2d478949ba7ac99208e75350feb9a787655386429fc10c474",
    ("directory", "backoff"):
        "0d2e6b6fa995f4f7c291c221b8a381ade0d22c512f9b4b59de1d4bac97e3ff88",
}

#: sha256 of ``execute_workload(...).metrics`` without the ``policy.*``
#: gauges: linked-list, 8 CPUs, 96 ops, seed 1 (``rr``: two threads per
#: slot, 300-cycle quantum).
METRICS = {
    "snoop":
        "03172f52a961d6ecb48148cbf95a66bd946ceef6ea9a5e5403c7c9e4855b9460",
    "directory":
        "ad10bd012423990ec2a25633be219a432b4d39c91d26dc10d75921f5e5ff30ea",
    "rr":
        "dc93663dc02e95458952fc3b4f151717422c80754cb4b50f6cc0ce5c076cd78a",
}
#: sha256 of ``verdict.to_dict()`` without ``elapsed`` and ``metrics``,
#: for the ``CHAOS_VERDICTS`` cells.
CHAOS_OUTCOMES = {
    ("snoop", "timestamp"):
        "ce3161097cf1738d7ce8841f748741b460b800f29b21f5891e70052388316532",
    ("snoop", "nack"):
        "86e76891e05820053e7abc34042076b5763dfe2fb18ceae83e9d0870e2b448fa",
    ("snoop", "requester-wins"):
        "939d66107320013c989f24e2e08e909142805526b8def309e4e2253c8c876d9e",
    ("snoop", "backoff"):
        "2ad2a49334a07f4fd6ac51c83785095ca2f651d954b1ab82506a5f52b3d27290",
    ("directory", "timestamp"):
        "fcd9bb4ad71c86bef68764bc17661647bb4f9fe54100803675ed89f708ba0b92",
    ("directory", "nack"):
        "8b9077ba8fa70729c059eedf8c5b0ebf297ce8d7447a488c7e1a8f28ab06c8b7",
    ("directory", "requester-wins"):
        "db4cbf3f9bd264b2e50299ca875ce6d5276f2fcfbb1f0a8942c6519fbc9bfeee",
    ("directory", "backoff"):
        "91e9801d985d85117696abe515afe51bc144df79c2111e4238ec4dc0ddb92fd5",
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


@pytest.mark.parametrize("protocol,policy", list(CHAOS_OUTCOMES))
def test_chaos_verdict_outcomes(protocol, policy):
    verdict, _ = verify_run(_spec(policy, protocol, seed=3, cpus=8, ops=96,
                                  chaos=4))
    payload = verdict.to_dict()
    payload.pop("elapsed")
    payload.pop("metrics")
    assert _sha(_canonical(payload)) == CHAOS_OUTCOMES[protocol, policy]


@pytest.mark.parametrize("case", list(METRICS))
def test_run_metrics_digest(case):
    sched = (SchedConfig(scheduler="rr", quantum=300, threads_per_cpu=2)
             if case == "rr" else None)
    spec = _spec(protocol="directory" if case == "directory" else "snoop",
                 seed=1, cpus=8, ops=96, sched=sched)
    metrics = execute_workload(spec.build_workload(), spec.config).metrics
    metrics["gauges"] = {name: gauge
                         for name, gauge in metrics["gauges"].items()
                         if not name.startswith("policy.")}
    assert _sha(_canonical(metrics)) == METRICS[case]


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
