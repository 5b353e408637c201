"""Unit tests for TLR timestamps and the deferral machinery."""

import pytest

from repro.coherence.messages import BusRequest, ReqKind, beats
from repro.tlr.deferral import ChainState, DeferredQueue
from repro.tlr.timestamp import TimestampAuthority


class TestTimestampAuthority:
    def test_begin_is_stable_across_restarts(self):
        authority = TimestampAuthority(cpu_id=3)
        first = authority.begin()
        # A restart does not touch the authority; begin() re-returns it.
        assert authority.begin() == first
        assert authority.current() == first

    def test_commit_advances_monotonically(self):
        authority = TimestampAuthority(cpu_id=1)
        first = authority.begin()
        authority.commit()
        second = authority.begin()
        assert second > first
        assert second == (first[0] + 1, 1)

    def test_conflict_observation_synchronizes_clock(self):
        authority = TimestampAuthority(cpu_id=0)
        authority.begin()
        authority.observe_conflict((10, 5))
        authority.commit()
        assert authority.clock == 11

    def test_untimestamped_conflicts_ignored(self):
        authority = TimestampAuthority(cpu_id=0)
        authority.begin()
        authority.observe_conflict(None)
        authority.commit()
        assert authority.clock == 1

    def test_abandon_keeps_clock(self):
        authority = TimestampAuthority(cpu_id=0)
        authority.begin()
        authority.abandon()
        assert authority.clock == 0
        assert authority.current() is None

    def test_global_uniqueness_across_cpus(self):
        stamps = set()
        for cpu in range(4):
            authority = TimestampAuthority(cpu_id=cpu)
            for _ in range(3):
                stamps.add(authority.begin())
                authority.commit()
        assert len(stamps) == 12

    def test_eventual_earliest_property(self):
        """A processor that keeps losing (never commits) eventually has
        the earliest timestamp once everyone else's clock passes it."""
        loser = TimestampAuthority(cpu_id=9)
        loser_ts = loser.begin()
        winner = TimestampAuthority(cpu_id=0)
        for _ in range(3):
            winner.begin()
            winner.commit()
        assert beats(loser_ts, winner.begin())

    def test_modulus_rollover(self):
        authority = TimestampAuthority(cpu_id=0, modulus=4)
        for _ in range(6):
            authority.begin()
            authority.commit()
        assert authority.clock == 6 % 4


def _req(kind=ReqKind.GETX, line=1, requester=0, ts=None) -> BusRequest:
    return BusRequest(kind, line=line, requester=requester, ts=ts)


class TestDeferredQueue:
    def test_drain_preserves_arrival_order(self):
        queue = DeferredQueue()
        first = _req(line=1)
        second = _req(line=2)
        queue.push(first, now=10)
        queue.push(second, now=11)
        drained = queue.drain()
        assert [e.request for e in drained] == [first, second]
        assert not queue

    def test_double_exclusive_same_line_rejected(self):
        queue = DeferredQueue()
        queue.push(_req(kind=ReqKind.GETX, line=1), now=0)
        with pytest.raises(RuntimeError):
            queue.push(_req(kind=ReqKind.GETX, line=1), now=1)

    def test_multiple_gets_same_line_allowed(self):
        queue = DeferredQueue()
        queue.push(_req(kind=ReqKind.GETS, line=1), now=0)
        queue.push(_req(kind=ReqKind.GETS, line=1), now=1)
        assert len(queue) == 2

    def test_capacity_enforced(self):
        queue = DeferredQueue(capacity=1)
        queue.push(_req(line=1), now=0)
        with pytest.raises(RuntimeError):
            queue.push(_req(line=2), now=0)

    def test_lines_and_earliest_ts(self):
        queue = DeferredQueue()
        queue.push(_req(line=1, ts=(4, 0)), now=0)
        queue.push(_req(line=2, ts=(2, 3)), now=0)
        queue.push(_req(line=3, ts=None), now=0)
        assert queue.lines() == {1, 2, 3}
        assert queue.earliest_ts() == (2, 3)

    def test_earliest_ts_empty_or_untimestamped(self):
        queue = DeferredQueue()
        assert queue.earliest_ts() is None
        queue.push(_req(line=1, ts=None), now=0)
        assert queue.earliest_ts() is None

    def test_effective_ts_recorded_and_outranks(self):
        queue = DeferredQueue()
        queue.push(_req(line=1, ts=(6, 0)), now=0)
        assert queue.entries()[0].ts == (6, 0)   # default: its own
        assert not queue.outranks((5, 1))
        # A chain championed an earlier waiter: the entry carries it,
        # while earliest_ts() still reads the request's own timestamp.
        queue.push(_req(kind=ReqKind.GETS, line=2, ts=None), now=0,
                   ts=(3, 2))
        assert queue.entries()[1].ts == (3, 2)
        assert queue.outranks((5, 1))
        assert queue.earliest_ts() == (6, 0)


class TestChainState:
    def test_probe_waits_for_upstream(self):
        chain = ChainState()
        assert not chain.queue_probe((1, 0))
        assert chain.best == (1, 0)
        assert chain.learn_upstream(7) == (1, 0)
        assert chain.upstream == 7
        assert chain.forwarded == (1, 0)

    def test_probe_forwarded_once_upstream_known(self):
        chain = ChainState()
        assert chain.learn_upstream(7) is None
        assert chain.queue_probe((1, 0))

    def test_repeat_probes_deduplicated(self):
        """A probe is forwarded only when it beats every timestamp
        already sent to the current upstream."""
        chain = ChainState()
        chain.learn_upstream(7)
        assert chain.queue_probe((2, 0))
        assert not chain.queue_probe((2, 0))   # exact repeat
        assert not chain.queue_probe((3, 1))   # later: no news
        assert chain.queue_probe((1, 4))       # earlier: forwarded
        assert chain.best == (1, 4)

    def test_best_kept_while_not_forwarding(self):
        chain = ChainState()
        chain.queue_probe((5, 0))
        chain.queue_probe((3, 2))
        chain.queue_probe((4, 1))
        assert chain.best == (3, 2)

    def test_new_upstream_resends_best(self):
        chain = ChainState()
        chain.learn_upstream(7)
        chain.queue_probe((2, 0))
        # The same upstream again: it already heard (2, 0).
        assert chain.learn_upstream(7) is None
        # A different upstream has heard nothing yet.
        assert chain.learn_upstream(9) == (2, 0)
        assert not chain.queue_probe((2, 0))
