"""Tests for the extension features: NACK retention, untimestamped
policies, the tracer, and the guaranteed-footprint contract."""

from dataclasses import replace

import pytest

from repro.coherence.messages import Marker, Probe
from repro.harness.config import SyncScheme, SpeculationConfig, SystemConfig
from repro.harness.machine import Machine
from repro.harness.parallel import run
from repro.runtime.program import Workload
from repro.sim.trace import Tracer
from repro.workloads.common import AddressSpace
from repro.workloads.microbench import linked_list, single_counter

from tests.conftest import small_config


def _with_spec(cfg: SystemConfig, **spec_overrides) -> SystemConfig:
    cfg.spec = replace(cfg.spec, **spec_overrides)
    return cfg


class TestRetentionPolicies:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SpeculationConfig(retention_policy="bogus")
        with pytest.raises(ValueError):
            SpeculationConfig(untimestamped_policy="bogus")

    @pytest.mark.parametrize("policy", ["defer", "nack"])
    def test_both_policies_serialize_correctly(self, policy):
        cfg = _with_spec(small_config(4, SyncScheme.TLR),
                         retention_policy=policy)
        result = run(single_counter(4, 256), cfg)
        assert result.cycles > 0

    def test_nack_policy_sends_nacks_under_conflict(self):
        cfg = _with_spec(small_config(4, SyncScheme.TLR),
                         retention_policy="nack")
        result = run(linked_list(4, 256), cfg)
        assert result.stats.total("nacks_sent") > 0
        assert result.stats.total("nacks_received") > 0

    def test_defer_policy_never_nacks(self):
        cfg = small_config(4, SyncScheme.TLR)
        result = run(linked_list(4, 256), cfg)
        assert result.stats.total("nacks_sent") == 0

    def test_nack_earliest_timestamp_never_refused(self):
        """The NACK decision respects priority: the oldest transaction is
        never told to retry, so progress is preserved (no run-away retry
        loops -- the run completing within the cycle cap is the check)."""
        cfg = _with_spec(small_config(6, SyncScheme.TLR),
                         retention_policy="nack")
        result = run(single_counter(6, 384), cfg)
        assert result.cycles > 0


class TestUntimestampedPolicy:
    def _racy_workload(self):
        """A transaction updating a word while another thread reads it
        without any lock (a benign data race)."""
        space = AddressSpace()
        lock, word = space.alloc_word(), space.alloc_word()
        seen = []

        def locked_writer(env):
            def body(env):
                value = yield env.read(word, pc="w.ld")
                yield env.compute(400)
                yield env.write(word, value + 1, pc="w.st")

            for _ in range(8):
                yield from env.critical(lock, body, pc="w")
                yield env.compute(env.fair_delay())

        def racy_reader(env):
            for _ in range(20):
                seen.append((yield env.read(word, pc="r.ld")))
                yield env.compute(150)

        def validate(store):
            assert store.read(word) == 8
            assert seen == sorted(seen), "racy reads went backwards"

        return Workload(name="racy", threads=[locked_writer, racy_reader],
                        validate=validate, meta={"space": space})

    @pytest.mark.parametrize("policy", ["defer", "abort"])
    def test_racy_reads_are_monotone_under_both_policies(self, policy):
        cfg = _with_spec(small_config(2, SyncScheme.TLR),
                         untimestamped_policy=policy)
        machine = Machine(cfg)
        machine.run_workload(self._racy_workload())

    def test_abort_policy_costs_restarts(self):
        def restarts(policy):
            cfg = _with_spec(small_config(2, SyncScheme.TLR),
                             untimestamped_policy=policy)
            machine = Machine(cfg)
            machine.run_workload(self._racy_workload())
            return machine.stats.restarts

        assert restarts("abort") >= restarts("defer")


class TestTracer:
    def test_records_transaction_lifecycle(self):
        cfg = small_config(2, SyncScheme.TLR)
        machine = Machine(cfg)
        tracer = Tracer().attach(machine)
        machine.run_workload(single_counter(2, 64))
        counts = tracer.counts()
        assert counts.get("txn-begin", 0) > 0
        assert counts.get("txn-commit", 0) > 0
        assert counts.get("data", 0) > 0

    def test_filtering(self):
        cfg = small_config(2, SyncScheme.TLR)
        machine = Machine(cfg)
        tracer = Tracer().attach(machine)
        machine.run_workload(single_counter(2, 64))
        only_cpu0 = tracer.filter(cpu=0)
        assert only_cpu0 and all(e.cpu == 0 for e in only_cpu0)
        commits = tracer.filter(kinds=["txn-commit"])
        assert all(e.kind == "txn-commit" for e in commits)
        windowed = tracer.filter(since=100, until=200)
        assert all(100 <= e.time <= 200 for e in windowed)

    def test_capacity_bound(self):
        cfg = small_config(2, SyncScheme.TLR)
        machine = Machine(cfg)
        tracer = Tracer(capacity=10).attach(machine)
        machine.run_workload(single_counter(2, 64))
        assert len(tracer.events) == 10
        assert tracer.dropped > 0
        assert "dropped" in tracer.render()

    def test_render_is_readable(self):
        cfg = small_config(2, SyncScheme.TLR)
        machine = Machine(cfg)
        tracer = Tracer().attach(machine)
        machine.run_workload(single_counter(2, 32))
        text = tracer.render(kinds=["txn-commit"])
        assert "txn-commit" in text

    def test_chrome_trace_export(self, tmp_path):
        import json as jsonlib

        cfg = small_config(2, SyncScheme.TLR)
        machine = Machine(cfg)
        tracer = Tracer().attach(machine)
        machine.run_workload(single_counter(2, 64))
        path = tmp_path / "trace.json"
        written = tracer.to_chrome_trace(path)
        assert written == len(tracer.events)
        payload = jsonlib.loads(path.read_text())
        events = payload["traceEvents"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == written
        assert all(e["s"] == "t" for e in instants)
        # One thread-name metadata record per cpu that traced anything.
        meta = [e for e in events if e["ph"] == "M"]
        assert {m["args"]["name"] for m in meta} == {
            f"cpu{e.cpu}" for e in tracer.events}
        commit = next(e for e in instants if e["name"] == "txn-commit")
        assert isinstance(commit["ts"], int) and commit["tid"] in (0, 1)

    def test_chrome_trace_export_respects_filters(self, tmp_path):
        import json as jsonlib

        cfg = small_config(2, SyncScheme.TLR)
        machine = Machine(cfg)
        tracer = Tracer().attach(machine)
        machine.run_workload(single_counter(2, 64))
        path = tmp_path / "commits.json"
        written = tracer.to_chrome_trace(path, kinds=["txn-commit"])
        payload = jsonlib.loads(path.read_text())
        instants = [e for e in payload["traceEvents"] if e["ph"] == "i"]
        assert written == len(instants) > 0
        assert all(e["name"] == "txn-commit" for e in instants)


class TestMachineDump:
    def test_dump_state_is_nondestructive(self):
        cfg = small_config(2, SyncScheme.TLR)
        machine = Machine(cfg)
        machine.run_workload(single_counter(2, 64))
        before = len(machine.controllers[0].deferred)
        text = machine.dump_state()
        assert "cpu0" in text and "cpu1" in text
        assert len(machine.controllers[0].deferred) == before

    def test_dump_state_shows_chain_upstream_and_best(self):
        machine = Machine(small_config(2, SyncScheme.TLR))
        ctl = machine.controllers[0]
        assert not ctl.access(0x40, write=True, on_effect=lambda: None)
        req_id = ctl.mshrs.get(0x40).request.req_id
        ctl.handle_marker(Marker(line=0x40, sender=1, req_id=req_id))
        ctl.handle_probe(Probe(line=0x40, ts=(3, 1), origin=1))
        assert "upstream=1 best=(3, 1)" in machine.dump_state()


class TestTracerSpans:
    def _traced_run(self, ops: int = 64):
        cfg = small_config(2, SyncScheme.TLR)
        machine = Machine(cfg)
        tracer = Tracer().attach(machine)
        machine.run_workload(single_counter(2, ops))
        return machine, tracer

    def test_txn_spans_pair_begin_with_outcome(self):
        machine, tracer = self._traced_run()
        txn = tracer.filter_spans(kinds=["txn"])
        assert txn, "no transaction spans recorded"
        assert all(s.end >= s.begin for s in txn)
        outcomes = {s.detail for s in txn}
        # Aborted windows carry their restart reason ("abort:capacity",
        # "loss:invalidated"); committed ones stay bare.
        assert all(o == "commit" or o.split(":", 1)[0] in ("abort", "loss")
                   for o in outcomes), outcomes
        commits = sum(1 for s in txn if s.detail == "commit")
        assert commits == machine.stats.total("elisions_committed")

    def test_defer_and_request_spans(self):
        _, tracer = self._traced_run()
        defer = tracer.filter_spans(kinds=["defer"])
        assert defer and all(s.duration > 0 for s in defer)
        requests = tracer.filter_spans(kinds=["request"])
        assert requests and all(s.end >= s.begin for s in requests)

    def test_span_window_filter_matches_overlap(self):
        _, tracer = self._traced_run()
        span = tracer.spans[len(tracer.spans) // 2]
        mid = (span.begin + span.end) // 2
        window = tracer.filter_spans(since=mid, until=mid)
        assert span in window

    def test_chrome_export_emits_async_span_pairs(self, tmp_path):
        import json as jsonlib

        _, tracer = self._traced_run()
        path = tmp_path / "spans.json"
        written = tracer.to_chrome_trace(path)
        events = jsonlib.loads(path.read_text())["traceEvents"]
        begins = [e for e in events if e["ph"] == "b"]
        ends = [e for e in events if e["ph"] == "e"]
        assert len(begins) == len(ends) == len(tracer.spans) > 0
        # Return value counts instants only (the pre-span contract).
        assert written == len([e for e in events if e["ph"] == "i"])
        by_id = {e["id"]: e for e in begins}
        for end in ends:
            begin = by_id[end["id"]]
            assert begin["ts"] <= end["ts"]
            assert begin["pid"] == end["pid"] == 0
            assert begin["tid"] == end["tid"]
            assert begin["cat"] == end["cat"] in {"txn", "defer",
                                                  "request"}

    def test_chrome_export_filter_kwargs_apply_to_spans(self, tmp_path):
        import json as jsonlib

        _, tracer = self._traced_run()
        path = tmp_path / "cpu0.json"
        tracer.to_chrome_trace(path, cpu=0)
        events = jsonlib.loads(path.read_text())["traceEvents"]
        rows = [e for e in events if e["ph"] in ("i", "b", "e")]
        assert rows and all(e["tid"] == 0 for e in rows)

    def test_spans_survive_instant_capacity(self):
        cfg = small_config(2, SyncScheme.TLR)
        machine = Machine(cfg)
        full = Tracer().attach(machine)
        machine.run_workload(single_counter(2, 64))

        machine2 = Machine(small_config(2, SyncScheme.TLR))
        tiny = Tracer(capacity=5).attach(machine2)
        machine2.run_workload(single_counter(2, 64))
        assert len(tiny.spans) == len(full.spans) > 0


class TestTracerRingMode:
    def test_ring_keeps_newest_events(self):
        cfg = small_config(2, SyncScheme.TLR)
        machine = Machine(cfg)
        tracer = Tracer(capacity=10, ring=True).attach(machine)
        machine.run_workload(single_counter(2, 64))
        assert len(tracer.events) == 10
        assert tracer.dropped > 0
        # The ring holds the *end* of the run, not its start.
        assert min(e.time for e in tracer.events) > machine.sim.now // 2
        assert "ring" in tracer.render()

    def test_drop_accounting_per_kind(self):
        cfg = small_config(2, SyncScheme.TLR)
        machine = Machine(cfg)
        tracer = Tracer(capacity=10, ring=True).attach(machine)
        machine.run_workload(single_counter(2, 64))
        dropped = tracer.counts(dropped=True)
        assert sum(dropped.values()) == tracer.dropped > 0

    def test_default_mode_drops_newest(self):
        cfg = small_config(2, SyncScheme.TLR)
        machine = Machine(cfg)
        tracer = Tracer(capacity=10).attach(machine)
        machine.run_workload(single_counter(2, 64))
        dropped = tracer.counts(dropped=True)
        assert sum(dropped.values()) == tracer.dropped > 0
        # Default mode keeps the *start* of the run (ring keeps the end).
        assert max(e.time for e in tracer.events) < machine.sim.now // 2


class TestTracerLines:
    """Each emit point hands the tracer its line explicitly."""

    def _traced(self):
        machine = Machine(small_config(4, SyncScheme.TLR))
        tracer = Tracer().attach(machine)
        machine.run_workload(single_counter(4, 64))
        return tracer

    def test_message_events_carry_the_message_line(self):
        tracer = self._traced()
        for event in tracer.filter(kinds=("request", "forward", "data",
                                          "defer", "service", "marker",
                                          "probe")):
            assert isinstance(event.line, int)

    def test_loss_and_misspec_carry_the_conflict_line(self):
        tracer = self._traced()
        losses = tracer.filter(kinds=("loss",))
        assert losses
        for event in losses:
            assert isinstance(event.line, int)
            assert event.detail.split()[1] == repr(event.line)
        for event in tracer.filter(kinds=("misspec",)):
            assert event.detail.split()[1] == repr(event.line)

    def test_lineless_events_carry_none(self):
        tracer = self._traced()
        lineless = tracer.filter(kinds=("txn-begin", "txn-commit",
                                        "commit", "abort"))
        assert lineless
        assert all(event.line is None for event in lineless)
