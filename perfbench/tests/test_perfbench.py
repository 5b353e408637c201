"""Tests of the benchmark's own code.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import io
import json
import math
import re
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from perfbench import run  # noqa: E402
from perfbench.calibrate import (REFERENCE_S, HostReference,  # noqa: E402
                                 calibration_factors)
from perfbench.jobs import (MIN_JOBS, WORKLOADS, Workload,  # noqa: E402
                            job_seed, run_job)
from perfbench.metrics import (END_TO_END, PER_LAYER,  # noqa: E402
                               fail_frac, tail_percentile)
from perfbench.tracing import (EXIT, LayerTracer, event_kind,  # noqa: E402
                               self_times, spans_from_log)

#: The benchmark contract's rules for metric names and units.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TINY_LIST = Workload("tiny-list", "linked-list", 4, "snoop", 16)
TINY_VERIFY = Workload("tiny-verify", "linked-list", 4, "snoop", 16,
                       verify=True)


# ----------------------------------------------------------------------
# Metric names and units
# ----------------------------------------------------------------------
def test_metric_names_and_units_are_well_formed():
    names = [*END_TO_END, *PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit in [*END_TO_END.items(), *PER_LAYER.items()]:
        assert NAME_RE.match(name), name
        assert UNIT_RE.match(unit), (name, unit)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("table", [END_TO_END, PER_LAYER])
def test_every_metric_is_printed_with_its_unit(table):
    out = io.StringIO()
    with redirect_stdout(out):
        run._print_metrics("title", {name: 1.5 for name in table}, table)
    lines = out.getvalue().splitlines()[1:]
    assert len(lines) == len(table)
    for line, (name, unit) in zip(lines, table.items()):
        assert line.split() == [name, "1.5", unit]


# ----------------------------------------------------------------------
# job_s.tail
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n, pct", [(11, 9), (20, 50), (40, 75), (100, 90),
                                    (200, 95), (1000, 99), (5000, 99)])
def test_tail_percentile_known_counts(n, pct):
    values = [float(v) for v in range(n, 0, -1)]
    got_pct, value = tail_percentile(values)
    assert got_pct == pct
    assert sum(1 for v in values if v > value) >= 10


@pytest.mark.parametrize("n", range(11, 400))
def test_tail_percentile_is_the_highest_with_ten_beyond(n):
    values = [float(v) for v in range(n)]
    pct, value = tail_percentile(values)
    assert sum(1 for v in values if v > value) >= 10
    if pct < 99:
        # The next percentile up would leave fewer than ten beyond it.
        assert n - math.ceil((pct + 1) * n / 100) < 10


@pytest.mark.parametrize("n", [0, 1, 10])
def test_tail_percentile_refuses_small_counts(n):
    with pytest.raises(ValueError):
        tail_percentile([1.0] * n)


# ----------------------------------------------------------------------
# Host-speed calibration
# ----------------------------------------------------------------------
def test_calibration_uses_the_windowed_median_reference():
    refs = [0.02, 0.02, 0.2, 0.02, 0.02, 0.04, 0.04, 0.04, 0.04]
    factors = calibration_factors(refs)
    assert len(factors) == len(refs)
    # A single slow reference does not move its neighbours' factors.
    assert factors[:4] == [REFERENCE_S / 0.02] * 4
    assert factors[-2:] == [REFERENCE_S / 0.04] * 2


def test_reference_work_is_fixed():
    reference = HostReference()
    assert reference.work() == HostReference().work()
    assert reference.seconds() > 0


# ----------------------------------------------------------------------
# Failures
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", [TINY_LIST, TINY_VERIFY])
def test_fail_frac_counts_a_job_failed_by_a_tiny_cycle_budget(workload):
    good = run_job(workload, workload.spec(1, 0), 0)
    spec = workload.spec(1, 1)
    bad = run_job(workload, replace(spec, config=replace(spec.config,
                                                         max_cycles=100)), 1)
    assert good.ok and good.cs > 0 and good.fingerprint
    assert not bad.ok and "budget" in bad.error
    assert fail_frac([good, bad]) == 0.5
    assert fail_frac([good]) == 0.0


def test_job_seeds_depend_only_on_seed_and_index():
    assert job_seed(3, 5) == job_seed(3, 5)
    assert len({job_seed(s, i) for s in range(5) for i in range(-1, 30)}) \
        == 5 * 31


def test_verify_fan_rotates_through_the_four_policies():
    fan = WORKLOADS["verify-fan8"]
    policies = [fan.spec(0, i).config.spec.contention_policy
                for i in range(8)]
    assert policies == ["timestamp", "nack", "requester-wins", "backoff"] * 2
    assert all(fan.spec(0, i).config.schedule_chaos > 0 for i in range(4))


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def _log(*entries):
    flat = []
    for code, t in entries:
        flat += [code, t]
    return flat


def test_self_time_of_nested_spans():
    # root [0,100) > A [10,70) > B [20,50);  root > C [80,90)
    root, a, b, c = 0, 1, 2, 3
    spans = spans_from_log(_log((root, 0), (a, 10), (b, 20), (EXIT, 50),
                                (EXIT, 70), (c, 80), (EXIT, 90),
                                (EXIT, 100)))
    assert spans == [(root, 0, 100, -1), (a, 10, 70, 0), (b, 20, 50, 1),
                     (c, 80, 90, 0)]
    self_ns, calls = self_times(spans)
    assert self_ns == {root: 30, a: 30, b: 30, c: 10}
    assert sum(self_ns.values()) == 100
    assert calls == {root: 1, a: 1, b: 1, c: 1}


def test_self_time_sums_spans_of_one_layer_nested_in_itself():
    # A [0,10) > A [2,5) > B [3,4): A's self time is 10 - 1.
    spans = spans_from_log(_log((1, 0), (1, 2), (2, 3), (EXIT, 4),
                                (EXIT, 5), (EXIT, 10)))
    self_ns, calls = self_times(spans)
    assert self_ns == {1: 9, 2: 1}
    assert calls == {1: 2, 2: 1}


@pytest.mark.parametrize("log", [_log((1, 0)), _log((EXIT, 1)),
                                 _log((1, 0), (EXIT, 1), (EXIT, 2))])
def test_unbalanced_span_logs_are_refused(log):
    with pytest.raises(ValueError):
        spans_from_log(log)


@pytest.mark.parametrize("label, kind", [
    ("cpu12-compute", "cpu"), ("cpu0-resume-restart", "cpu"),
    ("probe-wd 0x40", "probe-wd"), ("probe-wd", "probe-wd"),
    ("data <GETX 0x40 cpu3>", "data"), ("svc-deferred", "svc-deferred"),
    ("cpus-x", "cpus-x"), ("", "unlabelled")])
def test_event_kind(label, kind):
    assert event_kind(label) == kind


# ----------------------------------------------------------------------
# The traced pass
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", [TINY_LIST, TINY_VERIFY])
def test_traced_job_is_inert_and_fully_attributed(workload):
    spec = workload.spec(7, 0)
    plain = run_job(workload, spec, 0)
    tracer = LayerTracer()
    with tracer.hooks():
        with tracer.job():
            traced = run_job(workload, spec, 0)
    assert plain.ok and traced.ok
    assert traced.fingerprint == plain.fingerprint
    assert sum(tracer.event_kinds.values()) == plain.events
    for layer in ("sim", "coherence.controller", "coherence.bus", "cpu",
                  "sle", "tlr", "policies", "runtime", "obs"):
        assert tracer.self_ns[layer] > 0, layer
    assert all(ns >= 0 for ns in tracer.self_ns.values())
    assert (tracer.oracle_ns > 0) == workload.verify
    assert (tracer.self_ns["verify"] > 0) == workload.verify
    assert tracer.first_spans[0][0] == "job"


def test_hooks_are_removed_after_the_traced_pass():
    from repro.harness.machine import Machine
    from repro.verify.oracle import SerializabilityOracle

    before = (Machine.run_workload, SerializabilityOracle.check)
    with LayerTracer().hooks():
        assert Machine.run_workload is not before[0]
    assert (Machine.run_workload, SerializabilityOracle.check) == before


# ----------------------------------------------------------------------
# The command
# ----------------------------------------------------------------------
def test_command_prints_every_end_to_end_metric(tmp_path):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "counters16",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == MIN_JOBS + 1
    assert set(result["metrics"]) == set(END_TO_END)
    for name, unit in END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines[:-1]), name
    assert any(line.split()[:1] == ["fail_frac"] for line in lines)


def test_command_refuses_a_checkout_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "list16",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
