"""The repository benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload list16 --seed 1 --seconds 20 --trace 0

Load model: closed loop, one job at a time from this single-threaded
process.  After one untimed warm-up job, jobs run back to back until
``--seconds`` of job time have passed and at least ``MIN_JOBS`` jobs
have completed.  ``setup_s`` is the median of several fresh-interpreter
set-ups (import ``repro`` and build the first ``MIN_JOBS`` workloads).
Host times are calibrated against a fixed reference workload timed
before every job (see ``calibrate.py``).

With ``--trace 1`` the same untraced measurement runs first, then a
traced pass over the first ``MIN_JOBS`` jobs gives the per-layer
metrics, and a scaling table is printed.  Per-layer numbers are refused
unless every traced job's fingerprint equals its untraced twin.

The last line of standard output is the JSON result; every job's
record is also written to ``perfbench/out/``.  The exit code is 0 only
when every job passed its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 7
#: Wall-clock limit of one set-up sample.
SETUP_TIMEOUT_S = 60

#: The scaling table: linked-list at these CPU counts on both protocols,
#: with this many operations per CPU.
SCALING_CPUS = (8, 16, 32, 64)
SCALING_OPS_PER_CPU = 2


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path and import repro
    from it; exit non-zero when the checkout holds no program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import repro
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def measure_setup(workload: str, seed: int) -> float:
    """Host seconds of one fresh-interpreter set-up (see setup_probe)."""
    probe = ROOT / "perfbench" / "setup_probe.py"
    done = subprocess.run(
        [sys.executable, str(probe), workload, str(seed)], cwd=ROOT,
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def fingerprint_digest(results) -> str:
    """One digest over the fingerprints of ``results``, in order."""
    joined = ",".join(r.fingerprint for r in results)
    return hashlib.sha256(joined.encode("ascii")).hexdigest()


def timed_pass(workload, seed: int, seconds: float, reference):
    """The untraced closed loop: returns every timed JobResult, each
    with the host-speed reference time measured just before it."""
    from perfbench.jobs import MIN_JOBS, run_job

    results = []
    spent = 0.0
    index = 0
    while index < MIN_JOBS or spent < seconds:
        ref = reference.seconds()
        result = run_job(workload, workload.spec(seed, index), index)
        result.reference = ref
        results.append(result)
        spent += result.seconds
        index += 1
    return results


def traced_pass(workload, seed: int, reference):
    """The first MIN_JOBS jobs again, traced.  Returns the tracer, the
    per-job results and the summed SimStats counters."""
    from perfbench.jobs import MIN_JOBS, run_job
    from perfbench.metrics import add_stats
    from perfbench.tracing import LayerTracer

    tracer = LayerTracer()
    results = []
    totals: dict = {}
    with tracer.hooks():
        for index in range(MIN_JOBS):
            ref = reference.seconds()
            with tracer.job():
                result = run_job(workload, workload.spec(seed, index), index)
            result.reference = ref
            results.append(result)
            add_stats(totals, tracer.machine.stats)
    return tracer, results, totals


def scaling_table(seed: int) -> list[dict]:
    """linked-list across CPU counts and protocols: deterministic event
    and cycle counts per completed critical section, no timing."""
    from repro.harness.config import SystemConfig
    from repro.harness.runner import execute_workload
    from repro.harness.spec import RunSpec

    from perfbench.jobs import completed_cs, job_seed
    from perfbench.tracing import count_events

    rows = []
    for protocol in ("snoop", "directory"):
        for cpus in SCALING_CPUS:
            spec = RunSpec(
                workload="linked-list",
                config=SystemConfig(num_cpus=cpus, protocol=protocol,
                                    seed=job_seed(seed, -2)),
                workload_args={"total_ops": SCALING_OPS_PER_CPU * cpus})
            with count_events() as kinds:
                result = execute_workload(spec.build_workload(), spec.config)
            stats = result.stats
            cs = completed_cs(stats.total("critical_sections"),
                              stats.restarts)
            events = sum(kinds.values())
            rows.append({"protocol": protocol, "cpus": cpus, "cs": cs,
                         "sim.events_per_cs": events / cs,
                         "sim.ev.probe_per_cs": kinds.get("probe", 0) / cs,
                         "sim_cycles_per_cs": stats.total_cycles / cs})
    return rows


def _print_jobs(results) -> None:
    for r in results:
        print(f"  job {r.index:3d} {r.policy:14s} cycles={r.cycles:7d} "
              f"events={r.events:7d} cs={r.cs:5d} {r.seconds:8.4f}s "
              f"fp={r.fingerprint[:16]}"
              + (f" FAILED {r.error}" if r.error else ""))


def _print_metrics(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, unit in units.items():
        print(f"  {name:38s} {values[name]:14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from perfbench.calibrate import (REFERENCE_S, HostReference,
                                     calibration_factors)
    from perfbench.jobs import MIN_JOBS, WORKLOADS, run_job
    from perfbench.metrics import (END_TO_END, PER_LAYER, end_to_end,
                                   fail_frac, per_layer, tail_percentile)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)

    # The program was imported above, which leaves its bytecode cached:
    # each sample pays the import a user pays on a second run.
    setup_raw = [measure_setup(workload.name, args.seed)
                 for _ in range(SETUP_SAMPLES)]

    reference = HostReference()
    warmup = run_job(workload, workload.spec(args.seed, -1), -1)
    timed = timed_pass(workload, args.seed, args.seconds, reference)
    deterministic = timed[:MIN_JOBS]
    attempted = [warmup, *timed]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = [r for r in attempted if not r.ok]
    factors = calibration_factors([r.reference for r in timed])
    # Reference samples taken between set-up child processes are too
    # noisy; the run's median reference calibrates set-up instead.
    setup_factor = REFERENCE_S / statistics.median(
        r.reference for r in timed)
    setup = [s * setup_factor for s in setup_raw]
    pct, _ = tail_percentile([r.seconds for r in timed])
    e2e = end_to_end(timed, factors, setup, peak_rss_mb, deterministic)
    raw = end_to_end(timed, [1.0] * len(timed), setup_raw, peak_rss_mb,
                     deterministic)

    print(f"perfbench {workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"deterministic jobs 0..{MIN_JOBS - 1} "
          f"(fingerprint digest {fingerprint_digest(deterministic)[:16]}):")
    _print_jobs(deterministic)
    print(f"timed jobs: {len(timed)}; job_s.tail is p{pct} of "
          f"{len(timed)} samples; uncalibrated setup samples "
          + " ".join(f"{s:.4f}" for s in setup_raw))
    _print_metrics("end to end (tracing off; host times calibrated):",
                   e2e, END_TO_END)
    print("  uncalibrated: " + ", ".join(
        f"{name} {raw[name]:.6g}" for name in
        ("cs_per_s", "job_s.p50", "job_s.tail", "setup_s"))
        + f"; calibration factor median "
        f"{statistics.median(factors):.4f} (setup {setup_factor:.4f})")
    print(f"  {'fail_frac':38s} {fail_frac(attempted):14.6g} ratio")

    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "setup_s": setup_raw, "warmup": warmup.to_dict(),
              "jobs": [r.to_dict() for r in timed],
              "end_to_end": e2e,
              "end_to_end_uncalibrated": raw, "job_s.tail_percentile": pct}
    metrics = {name: {"value": e2e[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    correct = not failures

    if args.trace:
        tracer, traced, totals = traced_pass(workload, args.seed, reference)
        attempted.extend(traced)
        failures.extend(r for r in traced if not r.ok)
        mismatched = [t.index for t, u in zip(traced, deterministic)
                      if t.fingerprint != u.fingerprint]
        scaling = scaling_table(args.seed)
        record["traced_jobs"] = [r.to_dict() for r in traced]
        record["scaling"] = scaling
        _write_spans(workload.name, args.seed, tracer.first_spans)
        print("scaling (linked-list, "
              f"{SCALING_OPS_PER_CPU} ops per CPU, deterministic):")
        for row in scaling:
            print(f"  {row['protocol']:9s} {row['cpus']:3d} cpus  "
                  f"events/CS {row['sim.events_per_cs']:9.2f}  "
                  f"probe/CS {row['sim.ev.probe_per_cs']:9.2f}  "
                  f"cycles/CS {row['sim_cycles_per_cs']:9.2f}")
        if mismatched:
            print(f"INERTNESS FAILURE: traced jobs {mismatched} changed "
                  "their fingerprint; per-layer numbers refused")
            correct = False
            metrics = {}
        else:
            cs = sum(r.cs for r in traced)
            traced_factors = calibration_factors(
                [r.reference for r in traced])
            layer = per_layer(
                totals, cs, len(traced), tracer,
                untraced_s=sum(r.seconds * f for r, f
                               in zip(deterministic, factors)),
                traced_s=sum(r.seconds * f for r, f
                             in zip(traced, traced_factors)),
                untraced_events=sum(r.events for r in deterministic))
            record["per_layer"] = layer
            _print_metrics("per layer (traced pass, jobs "
                           f"0..{MIN_JOBS - 1}):", layer, PER_LAYER)
            metrics = {name: {"value": layer[name], "unit": unit}
                       for name, unit in PER_LAYER.items()}
        correct = correct and not failures

    out_file = OUT / f"{workload.name}-s{args.seed}-t{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))
    for r in failures:
        print(f"FAILED job {r.index}: {r.error}")
    print(json.dumps({"correct": correct, "attempted": len(attempted),
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


def _write_spans(workload: str, seed: int, spans) -> None:
    """Write the first traced job's spans as tab-separated
    ``name start_ns end_ns parent`` lines (parent is a line index)."""
    path = OUT / f"{workload}-s{seed}.spans.tsv"
    with open(path, "w") as fh:
        fh.write("name\tstart_ns\tend_ns\tparent\n")
        for name, start, end, parent in spans:
            fh.write(f"{name}\t{start}\t{end}\t{parent}\n")


if __name__ == "__main__":
    sys.exit(main())
