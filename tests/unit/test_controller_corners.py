"""White-box corner cases of the coherence controller and bus directory:
writeback races, capacity pressure during speculation, directory state
movement, and deferral bookkeeping."""

import pytest

from repro.coherence.messages import (MEMORY, BusRequest, Marker, Probe,
                                      ReqKind)
from repro.coherence.states import State
from repro.cpu import isa
from repro.harness.config import SyncScheme
from repro.harness.machine import Machine
from repro.runtime.program import Workload
from repro.workloads.common import AddressSpace

from tests.conftest import run_threads, small_config


class TestWritebackRace:
    def test_forward_cancels_inflight_writeback(self):
        """A dirty line being written back when another CPU requests it:
        the owner must cancel the WB and supply the data itself."""
        cfg = small_config(2, SyncScheme.BASE)
        cfg.cache.size_bytes = 1024
        cfg.cache.assoc = 1
        cfg.cache.victim_entries = 1
        stride = cfg.cache.num_sets * isa.WORDS_PER_LINE
        hot = 1024 * isa.WORDS_PER_LINE   # set 0

        def evictor(env):
            yield env.write(hot, 42)
            # Conflict-evict the hot line (same set), launching a WB.
            for i in range(1, 4):
                yield env.write(hot + i * stride, i)
            yield env.compute(1000)

        def reader(env):
            yield env.compute(80)   # land mid-writeback
            value = yield env.read(hot)
            assert value == 42

        machine = run_threads([evictor, reader], cfg)
        assert machine.store.read(hot) == 42

    def test_clean_exclusive_eviction_returns_ownership_to_memory(self):
        cfg = small_config(1, SyncScheme.BASE)
        cfg.cache.size_bytes = 1024
        cfg.cache.assoc = 1
        cfg.cache.victim_entries = 0
        stride = cfg.cache.num_sets * isa.WORDS_PER_LINE
        hot = 1024 * isa.WORDS_PER_LINE

        def thread(env):
            yield env.read(hot)         # E grant
            yield env.read(hot + stride)  # evicts the E line
            yield env.compute(500)

        machine = run_threads([thread], cfg)
        assert machine.bus.directory.owner(isa.line_of(hot)) in (
            MEMORY, 0)  # memory after the WB ordered


class TestSpeculativeCapacity:
    def test_victim_cache_extends_transaction_footprint(self):
        """A transaction larger than one set's associativity survives
        through the victim cache (Section 3.3/4)."""
        cfg = small_config(1, SyncScheme.TLR)
        cfg.cache.size_bytes = 1024
        cfg.cache.assoc = 2
        cfg.cache.victim_entries = 4
        stride = cfg.cache.num_sets * isa.WORDS_PER_LINE
        base = 1024 * isa.WORDS_PER_LINE
        space = AddressSpace()
        lock = space.alloc_word()
        words = [base + i * stride for i in range(5)]  # one set, 5 lines

        def thread(env):
            def body(env):
                for i, word in enumerate(words):
                    yield env.write(word, i + 1, pc=f"v{i}")

            yield from env.critical(lock, body, pc="v")

        machine = run_threads([thread], cfg, space=space)
        assert machine.stats.cpu(0).resource_fallbacks == 0
        assert machine.stats.cpu(0).elisions_committed == 1

    def test_overflowing_victim_cache_forces_fallback(self):
        cfg = small_config(1, SyncScheme.TLR)
        cfg.cache.size_bytes = 1024
        cfg.cache.assoc = 2
        cfg.cache.victim_entries = 2
        stride = cfg.cache.num_sets * isa.WORDS_PER_LINE
        base = 1024 * isa.WORDS_PER_LINE
        space = AddressSpace()
        lock = space.alloc_word()
        words = [base + i * stride for i in range(8)]

        def thread(env):
            def body(env):
                for i, word in enumerate(words):
                    yield env.write(word, i + 1, pc=f"o{i}")

            yield from env.critical(lock, body, pc="o")

        machine = run_threads([thread], cfg, space=space)
        assert machine.stats.cpu(0).resource_fallbacks >= 1
        # Completed correctly anyway, via the real lock.
        assert all(machine.store.read(w) == i + 1
                   for i, w in enumerate(words))


class TestDirectory:
    def test_getx_makes_requester_sole_sharer(self):
        def writer(env):
            yield env.write(64, 1)

        machine = run_threads([writer], small_config(1, SyncScheme.BASE))
        line = isa.line_of(64)
        assert machine.bus.directory.owner(line) == 0
        assert machine.bus.directory.sharers(line) == {0}

    def test_gets_accumulates_sharers(self):
        def reader(env):
            yield env.read(64)
            yield env.compute(2000)

        machine = run_threads([reader, reader, reader],
                              small_config(3, SyncScheme.BASE))
        line = isa.line_of(64)
        assert machine.bus.directory.sharers(line) == {0, 1, 2}

    def test_upgrade_clears_other_sharers(self):
        def reader(env):
            yield env.read(64)
            yield env.compute(2500)

        def upgrader(env):
            yield env.read(64)
            yield env.compute(300)
            yield env.write(64, 9)
            yield env.compute(2000)

        machine = run_threads([reader, upgrader],
                              small_config(2, SyncScheme.BASE))
        line = isa.line_of(64)
        assert machine.bus.directory.owner(line) == 1
        assert machine.bus.directory.sharers(line) == {1}


class TestDeferralBookkeeping:
    def test_commit_drains_everything(self):
        """After any run, no controller retains deferred entries,
        obligations, or pinned lines."""
        space = AddressSpace()
        lock, counter = space.alloc_word(), space.alloc_word()

        def thread(env):
            def body(env):
                value = yield env.read(counter, pc="d.ld")
                yield env.write(counter, value + 1, pc="d.st")

            for _ in range(12):
                yield from env.critical(lock, body, pc="d")
                yield env.compute(env.fair_delay())

        machine = run_threads([thread] * 4,
                              small_config(4, SyncScheme.TLR), space=space)
        for controller in machine.controllers:
            assert len(controller.deferred) == 0
            assert len(controller.mshrs) == 0
            assert not controller.speculating
            assert controller.current_ts is None
            assert not controller.evicting

    def test_stats_accounting_consistency(self):
        space = AddressSpace()
        lock, counter = space.alloc_word(), space.alloc_word()

        def thread(env):
            def body(env):
                value = yield env.read(counter, pc="a.ld")
                yield env.write(counter, value + 1, pc="a.st")

            for _ in range(8):
                yield from env.critical(lock, body, pc="a")
                yield env.compute(env.fair_delay())

        machine = run_threads([thread] * 3,
                              small_config(3, SyncScheme.TLR), space=space)
        stats = machine.stats
        # Elisions: started = committed + (attempts that restarted).
        assert stats.total("elisions_started") == (
            stats.total("elisions_committed") + stats.total("restarts")
            - stats.total("lock_fallbacks") * 0)
        # Every committed section incremented the counter exactly once.
        assert machine.store.read(counter) == 24


class TestPriorityPropagation:
    """Section 3.1.1 priority propagation without periodic re-probes,
    driven by hand on one controller (no event loop runs)."""

    LINE, OTHER = 0x40, 0x80

    def _machine(self, scheme=SyncScheme.TLR):
        machine = Machine(small_config(3, scheme))
        ctl = machine.controllers[0]
        losses = []
        ctl.on_misspeculation = lambda reason, line: losses.append(reason)
        return machine, ctl, losses

    @staticmethod
    def _noop():
        pass

    def _chain_restart_then_fill(self, ctl):
        """cpu0 misses inside its transaction (ts (5, 0)); cpu1's later
        GETX (9, 1) chains behind the miss; cpu0 restarts, and in that
        window a probe for an earlier waiter (2, 2) arrives; cpu0
        re-enters with the same timestamp and its fill lands."""
        ctl.enter_speculation((5, 0))
        assert not ctl.access(self.LINE, write=True, on_effect=self._noop)
        own = ctl.mshrs.get(self.LINE).request
        ctl.handle_forward(BusRequest(ReqKind.GETX, line=self.LINE,
                                      requester=1, ts=(9, 1)))
        ctl.abort_speculation()
        ctl.handle_probe(Probe(line=self.LINE, ts=(2, 2), origin=2))
        assert ctl.chains[self.LINE].best == (2, 2)
        ctl.enter_speculation((5, 0))
        ctl.handle_data(own)

    def test_probe_heard_while_restarting_decides_at_fill(self):
        _, ctl, losses = self._machine(SyncScheme.TLR_STRICT_TS)
        self._chain_restart_then_fill(ctl)
        # (9, 1) alone would be deferred; the waiter (2, 2) behind it
        # beats (5, 0), so the transaction loses and serves the line.
        assert losses == ["conflict-lost"]
        assert not ctl.deferred

    def test_blocked_holder_concedes_relaxation_deferral(self):
        _, ctl, losses = self._machine(SyncScheme.TLR)
        self._chain_restart_then_fill(ctl)
        # One block under conflict: the relaxation defers it, recording
        # the effective timestamp the decision used.
        assert losses == []
        (entry,) = ctl.deferred.entries()
        assert entry.ts == (2, 2) and entry.request.ts == (9, 1)
        # A new miss is allowed (the request's own timestamp is later)...
        assert not ctl.access(self.OTHER, write=True, on_effect=self._noop)
        req_id = ctl.mshrs.get(self.OTHER).request.req_id
        # ...but once a marker says it is blocked, the holder concedes.
        ctl.handle_marker(Marker(line=self.OTHER, sender=1, req_id=req_id))
        assert losses == ["relaxation-revoked"]
        assert not ctl.deferred

    def test_new_timestamp_championed_once(self):
        _, ctl, _ = self._machine()
        # A miss issued outside any transaction carries no timestamp.
        assert not ctl.access(self.LINE, write=True, on_effect=self._noop)
        req_id = ctl.mshrs.get(self.LINE).request.req_id
        ctl.handle_marker(Marker(line=self.LINE, sender=1, req_id=req_id))
        assert ctl.stats.probes_sent == 0
        ctl.enter_speculation((5, 0))
        assert ctl.stats.probes_sent == 1
        # A restart re-enters with the same timestamp: nothing new.
        ctl.abort_speculation()
        ctl.enter_speculation((5, 0))
        assert ctl.stats.probes_sent == 1
