"""Liveness of priority propagation (paper Section 3.1.1, Section 3.2).

Markers teach each waiter its upstream neighbour; probes carry the
earliest waiting timestamp upstream once per chain edge.  A probe that
lands on a node in its restart window is applied when that node's fill
arrives (``ChainState.best``), a holder keeping a relaxation-deferred
earlier request concedes as soon as one of its own misses is blocked,
and a new timestamp is championed up every outstanding miss that did
not carry it.  Nothing re-sends a probe on a timer.

* **Regression seeds.**  Each run below deadlocked or starved when the
  periodic re-probe was removed without these rules: a mid-chain node
  dropped a probe while restarting, re-entered speculation with the
  same timestamp and deferred the waiter in front of the older
  transaction.  The NACK-policy seed starves when a blocked holder
  concedes only on markers (NACK policies block through refusals).
* **Scaling.**  Probes cross each chain edge once, so events per
  critical section stay close to flat as the machine grows.
"""

from dataclasses import replace

import pytest

from repro.harness.config import SystemConfig
from repro.harness.runner import execute_workload
from repro.harness.spec import RunSpec
from repro.verify import verify_run


def _list_spec(num_cpus, total_ops, seed, protocol="snoop", policy=None,
               chaos=0):
    config = SystemConfig(num_cpus=num_cpus, protocol=protocol, seed=seed)
    if chaos:
        config = replace(config, schedule_chaos=chaos)
    if policy is not None:
        config = config.with_policy(policy)
    return RunSpec(workload="linked-list", config=config,
                   workload_args={"total_ops": total_ops})


def _completed_cs(stats):
    return stats.total("critical_sections") - stats.restarts


@pytest.mark.parametrize("num_cpus,total_ops,protocol,seed", [
    (16, 128, "snoop", 189876792),
    (16, 128, "snoop", 2038616306),
    (32, 64, "directory", 320958553),
])
def test_execute_regression_seed_completes(num_cpus, total_ops, protocol,
                                           seed):
    spec = _list_spec(num_cpus, total_ops, seed, protocol)
    result = execute_workload(spec.build_workload(), spec.config)
    assert _completed_cs(result.stats) > 0


@pytest.mark.parametrize("num_cpus,total_ops,seed,policy,chaos", [
    (8, 96, 1154199046, "timestamp", 4),
    (16, 128, 2038616306, "nack", 0),
    (16, 128, 2038616306, "nack", 4),
])
def test_verify_regression_seed_is_clean(num_cpus, total_ops, seed, policy,
                                         chaos):
    verdict, _ = verify_run(_list_spec(num_cpus, total_ops, seed,
                                       policy=policy, chaos=chaos))
    assert verdict.ok, verdict.error or verdict.violations


@pytest.mark.parametrize("protocol", ["snoop", "directory"])
def test_events_per_cs_flat_in_cpu_count(protocol):
    per_cs = {}
    for num_cpus in (8, 64):
        spec = _list_spec(num_cpus, 4 * num_cpus, seed=0, protocol=protocol)
        result = execute_workload(spec.build_workload(), spec.config)
        events = result.metrics["counters"]["sim.kernel.events"]
        per_cs[num_cpus] = events / _completed_cs(result.stats)
    assert per_cs[64] <= 2.5 * per_cs[8], per_cs
