"""Integration tests for the repro.verify subsystem: clean TLR runs
pass the oracle and monitors, instrumentation does not perturb the
execution, and deliberately broken conflict resolution is caught and
shrunk to a traced minimal reproduction."""

from dataclasses import replace
from itertools import combinations_with_replacement

import pytest

import repro.coherence.controller as controller_module
import repro.policies.base as policy_base_module
import repro.policies.timestamp as policy_timestamp_module
from repro.coherence.messages import beats as real_beats
from repro.coherence.states import State
from repro.harness.config import SyncScheme, SystemConfig
from repro.harness.machine import Machine
from repro.harness.spec import SIZE_PARAM, RunSpec
from repro.verify import (FootprintRecorder, MonitorSuite, VerifyOptions,
                          explore, shrink_failure, verify_run, verify_suite,
                          with_chaos)
from repro.verify.monitors import InvariantViolation
from repro.workloads.microbench import linked_list, single_counter

from tests.conftest import small_config


def _spec(workload="single-counter", scheme=SyncScheme.TLR, num_cpus=4,
          ops=64, seed=0, **config_overrides) -> RunSpec:
    config = SystemConfig(num_cpus=num_cpus, scheme=scheme, seed=seed,
                          max_cycles=20_000_000, **config_overrides)
    return RunSpec(workload, config, {SIZE_PARAM[workload]: ops})


class TestVerifyRun:
    @pytest.mark.parametrize("workload", ["single-counter",
                                          "multiple-counter",
                                          "linked-list"])
    def test_clean_tlr_run_passes(self, workload):
        result, _ = verify_run(_spec(workload))
        assert result.ok, result.headline()
        assert result.num_txns > 0

    @pytest.mark.parametrize("protocol", ["snoop", "directory"])
    def test_linked_list_passes_on_each_protocol(self, protocol):
        result, _ = verify_run(_spec("linked-list", ops=96, seed=1,
                                     protocol=protocol))
        assert result.ok, result.headline()
        assert result.num_txns > 0

    @pytest.mark.parametrize("scheme", [SyncScheme.SLE, SyncScheme.BASE,
                                        SyncScheme.MCS])
    def test_other_schemes_pass(self, scheme):
        result, _ = verify_run(_spec(scheme=scheme))
        assert result.ok, result.headline()

    def test_chaos_mode_passes(self):
        result, _ = verify_run(with_chaos(_spec("linked-list"), 3))
        assert result.ok, result.headline()

    def test_recorder_does_not_perturb_execution(self):
        cfg = small_config(4, SyncScheme.TLR)
        plain = Machine(cfg)
        plain_stats = plain.run_workload(single_counter(4, 64))

        instrumented = Machine(small_config(4, SyncScheme.TLR))
        recorder = FootprintRecorder().attach(instrumented)
        monitors = MonitorSuite(instrumented,
                                strict_exclusive=True).attach()
        wrapped_stats = instrumented.run_workload(single_counter(4, 64))

        assert wrapped_stats.total_cycles == plain_stats.total_cycles
        assert plain.store.snapshot() == instrumented.store.snapshot()
        assert not monitors.violations
        assert len(recorder.committed) > 0

    def test_committed_footprints_are_recorded(self):
        spec = _spec(ops=32)
        machine = Machine(spec.config)
        recorder = FootprintRecorder().attach(machine)
        machine.run_workload(spec.build_workload())
        assert len(recorder.committed) == 32  # one txn per increment
        sample = recorder.committed[-1]
        assert sample.writes and sample.commit_time > 0
        # Every non-first increment read the counter from memory.
        assert any(t.reads for t in recorder.committed)


class TestExplore:
    def test_seed_fanout_passes_and_caches(self, tmp_path):
        spec = _spec(ops=48)
        first = explore(spec, seeds=6, cache=tmp_path)
        assert first.ok, first.summary()
        assert len(first.results) == 6
        assert {r.seed for r in first.results} == set(range(6))
        again = explore(spec, seeds=6, cache=tmp_path)
        assert again.ok and again.cache_hits == 6

    def test_parallel_matches_serial(self, tmp_path):
        spec = _spec("linked-list", ops=48)
        serial = explore(spec, seeds=4, jobs=1, cache=False)
        parallel = explore(spec, seeds=4, jobs=2, cache=False)
        assert [r.to_dict() | {"elapsed": 0} for r in serial.results] == \
            [r.to_dict() | {"elapsed": 0} for r in parallel.results]


@pytest.fixture
def inverted_timestamps(monkeypatch):
    """Break TLR's conflict resolution: later timestamps win.  The
    earliest transaction now loses every conflict -- deferral-order
    invariants and (on contended runs) serializability both fail."""

    def inverted(challenger, incumbent):
        if challenger is None or incumbent is None:
            return real_beats(challenger, incumbent)
        return not real_beats(challenger, incumbent)

    # Conflict resolution lives in the contention-policy layer now;
    # invert the comparison everywhere the default policy consults it.
    monkeypatch.setattr(policy_base_module, "beats", inverted)
    monkeypatch.setattr(policy_timestamp_module, "beats", inverted)


@pytest.fixture
def ignored_losses(monkeypatch):
    """Break conflict handling harder: a losing speculation keeps
    running on stale data instead of restarting (lost updates)."""
    monkeypatch.setattr(
        controller_module.CacheController, "_handle_loss",
        lambda self, reason, line_addr, ts=None, aborter=-1: None)


class TestMutationDetection:
    def test_inverted_timestamps_caught_and_shrunk(self,
                                                   inverted_timestamps):
        spec = replace(_spec("linked-list", num_cpus=8, ops=128),
                       validate=False)
        exploration = explore(spec, seeds=8, cache=False)
        assert exploration.failures, \
            "inverted conflict resolution escaped 8 seeds"
        failing = exploration.failures[0]

        shrunk = shrink_failure(spec.with_seed(failing.seed))
        assert not shrunk.result.ok
        # Shrinking found a smaller reproduction and rendered a trace.
        assert shrunk.spec.workload_args[SIZE_PARAM["linked-list"]] <= 128
        assert shrunk.spec.config.num_cpus <= 8
        rendering = shrunk.render()
        assert "minimal reproduction" in rendering
        assert "failure:" in rendering
        assert any(ch.isdigit() for ch in shrunk.trace)

    def test_ignored_losses_caught_by_oracle_alone(self, ignored_losses):
        # Monitors off: the serializability oracle must catch the lost
        # updates by itself.
        spec = replace(_spec(ops=64), validate=False)
        result, _ = verify_run(spec, VerifyOptions(monitors=False))
        assert not result.ok
        assert any("stale-read" in v or "final-state" in v
                   for v in result.violations)


class TestLineStateMonitor:
    """The MOESI compatibility monitor, driven by line states set by
    hand on an idle 4-CPU machine.  The kinds and texts asserted here
    are the monitor's violation wording."""

    LINE = 0x40

    def _check(self, states, strict_exclusive=False, fail_fast=False):
        machine = Machine(small_config(4, SyncScheme.TLR))
        monitors = MonitorSuite(machine, fail_fast=fail_fast,
                                strict_exclusive=strict_exclusive)
        for cpu, state in states.items():
            machine.controllers[cpu].cache.install(self.LINE, state)
        monitors.on_line_state(machine.controllers[1], self.LINE)
        assert monitors.checks == 1
        for violation in monitors.violations:
            assert (violation.kind, violation.cpu, violation.line,
                    violation.time) == ("coherence", 1, self.LINE, 0)
        return [v.detail for v in monitors.violations]

    def test_two_writable_holders(self):
        assert self._check({0: State.MODIFIED, 2: State.EXCLUSIVE}) == [
            "2 writable (M/E) holders: cpus [0, 2]",
            "2 owners (M/O/E): cpus [0, 2]"]

    def test_two_owners(self):
        assert self._check({1: State.OWNED, 3: State.MODIFIED}) == [
            "2 owners (M/O/E): cpus [1, 3]"]

    def test_writable_beside_a_sharer_under_strict_exclusive(self):
        states = {0: State.SHARED, 2: State.EXCLUSIVE, 3: State.SHARED}
        assert self._check(states) == []
        assert self._check(states, strict_exclusive=True) == [
            "cpu2 holds the line writable while cpus [0, 3] still hold "
            "valid copies"]

    def test_legal_states_pass(self):
        assert self._check({0: State.OWNED, 1: State.SHARED,
                            2: State.SHARED, 3: State.INVALID},
                           strict_exclusive=True) == []
        assert self._check({3: State.MODIFIED, 0: State.INVALID},
                           strict_exclusive=True) == []

    @pytest.mark.parametrize(
        "pair", list(combinations_with_replacement(State, 2)),
        ids=lambda pair: pair[0].value + pair[1].value)
    def test_every_state_pair_matches_the_list_model(self, pair):
        """The counting gate reports exactly what building the holder
        lists on every call reported, for every MOESI pair on cpus 0
        and 2, with and without ``strict_exclusive``."""
        states = dict(zip((0, 2), pair))
        valid = [cpu for cpu, state in states.items() if state.valid]
        writable = [cpu for cpu in valid if states[cpu].writable]
        owners = [cpu for cpu in valid if states[cpu].owned]
        expected = []
        if len(writable) > 1:
            expected.append(f"{len(writable)} writable (M/E) holders: "
                            f"cpus {writable}")
        if len(owners) > 1:
            expected.append(f"{len(owners)} owners (M/O/E): cpus {owners}")
        assert self._check(states) == expected
        if writable and len(valid) > 1:
            sharers = sorted(set(valid) - set(writable))
            expected.append(f"cpu{writable[0]} holds the line writable "
                            f"while cpus {sharers} still hold valid copies")
        assert self._check(states, strict_exclusive=True) == expected

    def test_fail_fast_raises_the_first_violation(self):
        with pytest.raises(InvariantViolation,
                           match=r"^\[coherence t=0 cpu1 line=0x40\] 2 "
                                 r"writable \(M/E\) holders: cpus \[0, 3\]$"):
            self._check({0: State.MODIFIED, 3: State.MODIFIED},
                        fail_fast=True)


@pytest.mark.parametrize("protocol", ["snoop", "directory"])
def test_chaos_run_formats_no_descriptive_labels(protocol):
    """Under schedule chaos every scheduling site -- bus or directory,
    controllers, processors -- passes its cheap one-token label: the
    choice hook ignores labels, so none is formatted for it."""
    config = small_config(8, SyncScheme.TLR, protocol=protocol,
                          schedule_chaos=4)
    machine = Machine(config)
    seen = []
    machine.sim.on_dispatch = lambda cycle, label: seen.append(label)
    machine.run_workload(linked_list(8, 96))
    assert machine.sim.verbose_labels is False
    assert seen
    assert not [label for label in seen if " " in label]


class TestVerifySuite:
    def test_suite_over_two_workloads(self, tmp_path):
        result = verify_suite(("single-counter", "linked-list"),
                              seeds=4, ops=48, cache=tmp_path)
        assert result.ok, result.render()
        assert set(result.explorations) == {"single-counter",
                                            "linked-list"}
        assert result.shrunk is None
        payload = result.to_dict()
        assert payload["ok"] and set(payload["workloads"]) == \
            {"single-counter", "linked-list"}
