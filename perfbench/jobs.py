"""Benchmark workloads and the job runner.

A job is one :class:`repro.harness.spec.RunSpec`, executed through a
public entry point with the default :class:`SystemConfig` apart from
the fields named here: ``execute_workload`` (observers on, as users run
it, result cache bypassed) or, for ``verify-fan8``, ``verify_run``.
Every job builds a fresh machine, so the modelled caches start cold and
statistics count from cycle 0.

Job seeds come from the benchmark's ``--seed``: job ``i`` of seed ``s``
is the same simulation on every host, so the deterministic outputs of
the first :data:`MIN_JOBS` jobs (cycles, events, fingerprints) depend
only on the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, replace
from typing import Optional

#: Jobs every run completes, however fast the host: the deterministic
#: metrics are taken over exactly these, and ``job_s.tail`` needs more
#: than ten samples.
MIN_JOBS = 20

#: Schedule-chaos amplitude of verify-fan8 jobs.
VERIFY_CHAOS = 4


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a family of RunSpecs differing in seed."""

    name: str
    workload: str
    num_cpus: int
    protocol: str
    size: int
    verify: bool = False

    def spec(self, seed: int, index: int):
        """The RunSpec of job ``index`` under benchmark seed ``seed``."""
        from repro.harness.config import SystemConfig
        from repro.harness.spec import SIZE_PARAM, RunSpec
        from repro.policies import POLICY_NAMES

        config = SystemConfig(num_cpus=self.num_cpus, protocol=self.protocol,
                              seed=job_seed(seed, index))
        if self.verify:
            # Job i takes the i-th contention policy, round robin.
            config = replace(config, schedule_chaos=VERIFY_CHAOS)
            config = config.with_policy(
                POLICY_NAMES[index % len(POLICY_NAMES)])
        return RunSpec(workload=self.workload, config=config,
                       workload_args={SIZE_PARAM[self.workload]: self.size})


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    # The paper's Figure 10 machine: dynamic conflicts on one lock.
    Workload("list16", "linked-list", 16, "snoop", 128),
    # Figure 8: no data conflicts; the control for coherence/TLR work.
    Workload("counters16", "multiple-counter", 16, "snoop", 4096),
    # The only workload through the directory interconnect.
    Workload("list32-dir", "linked-list", 32, "directory", 64),
    # The verify fan: recorder, monitors and oracle on every job.
    Workload("verify-fan8", "linked-list", 8, "snoop", 96, verify=True),
)}


def job_seed(seed: int, index: int) -> int:
    """Simulation seed of job ``index`` (index -1 is the warm-up)."""
    return random.Random(f"{seed}/{index}").getrandbits(31)


@dataclass
class JobResult:
    """What one job produced.  ``error`` is None for a passing job."""

    index: int
    seconds: float
    error: Optional[str] = None
    fingerprint: str = ""
    cycles: int = 0
    events: int = 0
    cs: int = 0
    policy: str = ""
    #: Host seconds of the reference work run just before the job.
    reference: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_dict(self) -> dict:
        return {"index": self.index, "seconds": self.seconds,
                "error": self.error, "fingerprint": self.fingerprint,
                "cycles": self.cycles, "events": self.events, "cs": self.cs,
                "policy": self.policy, "reference": self.reference}


def completed_cs(critical_sections: int, restarts: int) -> int:
    """Critical sections completed: entries minus restarted attempts."""
    return critical_sections - restarts


def verdict_fingerprint(verdict) -> str:
    """Digest of a verify verdict's outcome (everything but host time)."""
    payload = verdict.to_dict()
    payload.pop("elapsed", None)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run_job(workload: Workload, spec, index: int) -> JobResult:
    """Run one job through the public entry point and check its output.

    The timed region is the entry-point call; building the workload
    (for ``execute_workload``) happens before it.  A job fails on a
    ``ValidationError``, a ``SimulationError`` (deadlock or exhausted
    cycle budget) or, for verify jobs, a verdict that is not ok.
    """
    from repro.harness.runner import execute_workload, result_fingerprint
    from repro.runtime.program import ValidationError
    from repro.sim.kernel import SimulationError
    from repro.verify.explorer import VerifyOptions, verify_run

    policy = spec.config.spec.contention_policy
    if workload.verify:
        options = VerifyOptions()
        start = time.perf_counter()
        verdict, _ = verify_run(spec, options)
        seconds = time.perf_counter() - start
        summary = verdict.summary
        return JobResult(
            index=index, seconds=seconds,
            error=None if verdict.ok else (verdict.error or "; ".join(
                verdict.violations[:3]) or "verdict not ok"),
            fingerprint=verdict_fingerprint(verdict), cycles=verdict.cycles,
            events=(verdict.metrics or {}).get("counters", {}).get(
                "sim.kernel.events", 0),
            cs=completed_cs(summary.get("critical_sections", 0),
                            summary.get("restarts", 0)),
            policy=policy)
    program = spec.build_workload()
    start = time.perf_counter()
    try:
        result = execute_workload(program, spec.config, validate=True)
    except (ValidationError, SimulationError) as exc:
        return JobResult(index=index, seconds=time.perf_counter() - start,
                         error=f"{type(exc).__name__}: {exc}", policy=policy)
    seconds = time.perf_counter() - start
    stats = result.stats
    return JobResult(
        index=index, seconds=seconds,
        fingerprint=result_fingerprint(result), cycles=stats.total_cycles,
        events=(result.metrics or {}).get("counters", {}).get(
            "sim.kernel.events", 0),
        cs=completed_cs(stats.total("critical_sections"), stats.restarts),
        policy=policy)
