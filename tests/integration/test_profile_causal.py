"""Integration tests for the causal profiling layer.

The load-bearing contracts:

* **Profiler-on ≡ profiler-off.**  Attaching the metrics collector,
  which folds the profile (and the OP_TXN-writing recorder sink), must
  not perturb the schedule: with metrics on or off, run fingerprints
  equal the golden fingerprints pinned by the policy-lab tests.
* **Live ≡ post-hoc.**  The conflict matrix -- and in fact the whole
  profile snapshot -- computed live from taps is byte-identical to the
  one recomputed from the ``.rlog`` via :mod:`repro.obs.causal`, across
  workloads, contention policies, protocols and recorded verify runs.
* **Abort spans carry causes.**  ``Timeline.txn_spans`` labels aborted
  windows with the restart reason folded from OP_TXN records.
* **CLI surfacing.**  ``repro profile`` renders live and from-log in
  all three formats.
"""

import json

import pytest

from repro.cli import main
from repro.harness.runner import execute_workload, result_fingerprint
from repro.obs.causal import profile_from_log
from repro.obs.profile import matrix_canonical_json
from repro.policies import POLICY_NAMES
from repro.record import load_log, record_run
from repro.record.timeline import Timeline
from repro.verify.explorer import verify_run

from tests.integration.test_policy_lab import GOLDEN_DEFAULT
from tests.integration.test_record_replay import _spec


# ----------------------------------------------------------------------
# Golden: the profiler is schedule-invisible
# ----------------------------------------------------------------------
class TestProfilerPurity:
    @pytest.mark.parametrize("metrics", [True, False])
    def test_fingerprints_match_pre_profiler_goldens(self, metrics):
        for (name, seed), want in GOLDEN_DEFAULT.items():
            spec = _spec(name, seed=seed, ops=96)
            spec.config.metrics = metrics
            result = execute_workload(spec.build_workload(), spec.config)
            assert result_fingerprint(result) == want, (name, seed)

    def test_profile_rides_metrics_without_joining_the_fingerprint(self):
        spec = _spec("linked-list")
        on = execute_workload(spec.build_workload(), spec.config)
        spec_off = _spec("linked-list")
        spec_off.config.metrics = False
        off = execute_workload(spec_off.build_workload(), spec_off.config)
        assert on.metrics["profile"]["totals"]["attempts"] > 0
        assert off.metrics is None
        assert result_fingerprint(on) == result_fingerprint(off)


# ----------------------------------------------------------------------
# Live ≡ post-hoc causal attribution
# ----------------------------------------------------------------------
class TestLiveVsPostHoc:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("workload", ["linked-list",
                                          "multiple-counter"])
    def test_conflict_matrix_byte_identical(self, workload, policy):
        spec = _spec(workload, policy=policy, ops=96)
        recorded = record_run(spec)
        assert recorded.error is None
        live = recorded.result.metrics["profile"]
        posthoc = profile_from_log(recorded.log)
        assert matrix_canonical_json(live) == \
            matrix_canonical_json(posthoc)
        # Stronger than the acceptance floor: the entire snapshot --
        # histograms, chains, folded stacks -- round-trips the log.
        assert json.dumps(live, sort_keys=True) == \
            json.dumps(posthoc, sort_keys=True)

    def test_directory_protocol_attributes_probe_aborts(self):
        spec = _spec("linked-list", policy="timestamp",
                     protocol="directory", ops=96)
        recorded = record_run(spec)
        live = recorded.result.metrics["profile"]
        assert json.dumps(live, sort_keys=True) == \
            json.dumps(profile_from_log(recorded.log), sort_keys=True)
        # Directory probes reach victims with origin=MEMORY; the folder
        # must still name a champion cpu, not the unknown column.
        if live["conflicts"]:
            aborters = {a for row in live["conflicts"].values()
                        for a in row}
            assert aborters != {"-1"}

    @pytest.mark.parametrize("protocol", ["snoop", "directory"])
    def test_verdict_profile_matches_its_log(self, protocol):
        """A verdict carries the same telemetry payload as every run:
        its profile is the one folded post-hoc from its own log."""
        spec = _spec("linked-list", protocol=protocol, cpus=8, ops=96)
        spec.config.schedule_chaos = 4
        verdict, _ = verify_run(spec, record=True)
        assert verdict.ok, verdict.error or verdict.violations
        live = verdict.metrics["profile"]
        assert live["totals"]["attempts"] > 0
        assert json.dumps(live, sort_keys=True) == \
            json.dumps(profile_from_log(verdict.log_bytes), sort_keys=True)


# ----------------------------------------------------------------------
# Satellite: abort-cause labels on replay timelines
# ----------------------------------------------------------------------
class TestAbortSpanLabels:
    def test_txn_spans_carry_restart_reasons(self):
        recorded = record_run(_spec("linked-list", ops=96))
        spans = Timeline(load_log(recorded.log)).txn_spans()
        outcomes = {outcome for _, _, _, outcome in spans}
        assert any(o == "commit" for o in outcomes)
        labelled = [o for o in outcomes
                    if ":" in o and not o.startswith("commit")]
        assert labelled, outcomes
        # Reasons come from the processor's restart vocabulary.
        assert all(o.split(":", 1)[1] for o in labelled)


# ----------------------------------------------------------------------
# CLI surfacing
# ----------------------------------------------------------------------
class TestProfileCli:
    def test_live_markdown(self, capsys):
        assert main(["profile", "single-counter", "--cpus", "2",
                     "--ops", "48"]) == 0
        out = capsys.readouterr().out
        assert "elision attempts" in out
        assert "| lock |" in out

    def test_from_log_json_matches_live(self, tmp_path, capsys):
        spec = _spec("single-counter")
        recorded = record_run(spec)
        log = tmp_path / "run.rlog"
        log.write_bytes(recorded.log)
        assert main(["profile", "--from-log", str(log),
                     "--format", "json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot == recorded.result.metrics["profile"]

    def test_folded_output(self, capsys):
        assert main(["profile", "single-counter", "--cpus", "2",
                     "--ops", "48", "--format", "folded"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines and all(len(line.rsplit(" ", 1)) == 2
                             and line.count(";") == 2
                             for line in lines)

    def test_from_log_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.rlog"
        bad.write_bytes(b"not a log")
        assert main(["profile", "--from-log", str(bad)]) == 2
