"""Deferral machinery (paper Section 3).

A TLR processor that wins a conflict does not NACK the loser; it *defers*
the loser's request -- buffers it in a hardware queue at the coherence
controller and masks the conflict, responding only after its transaction
commits (or after it loses a later conflict).  Coherence-wise the
transaction has already been ordered; only the data response is delayed.

``DeferredQueue`` is that hardware queue.  Entries are serviced strictly
in arrival order (the paper: "service earlier deferred requests in-order
and then service the conflicting incoming request").  At most one entry
per line can exist because bus order hands line ownership to the first
requester -- later requesters chain behind *it*, not behind us.

``ChainState`` tracks the marker/probe bookkeeping of Section 3.1.1 for
one outstanding miss: the upstream neighbour a marker taught us, the
earliest timestamp heard from downstream, and the earliest already sent
upstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.coherence.messages import BusRequest, Timestamp, beats


@dataclass(slots=True)
class DeferredEntry:
    """One deferred incoming request."""

    request: BusRequest
    arrival: int          # simulated time the deferral decision was made
    # The timestamp the deferral decision used: the request's own, or an
    # earlier one its chain championed (``ChainState.best``).
    ts: Optional[Timestamp]

    @property
    def line(self) -> int:
        return self.request.line


class DeferredQueue:
    """The deferred coherence input queue of paper Figure 5."""

    def __init__(self, capacity: int = 64):
        self.capacity = capacity
        self._entries: list[DeferredEntry] = []

    def push(self, request: BusRequest, now: int,
             ts: Optional[Timestamp] = None) -> None:
        """Queue ``request``; ``ts`` is its effective timestamp (default:
        the request's own)."""
        if request.kind.is_write and any(
                e.line == request.line and e.request.kind.is_write
                for e in self._entries):
            # Bus order hands a line's ownership to the first exclusive
            # requester, so later writers chain behind *it*, never here.
            raise RuntimeError(
                f"second exclusive deferral for line {request.line:#x}")
        if len(self._entries) >= self.capacity:
            raise RuntimeError("deferred queue overflow")
        self._entries.append(DeferredEntry(
            request, now, request.ts if ts is None else ts))

    def drain(self) -> list[DeferredEntry]:
        """Remove and return all entries in arrival order."""
        entries, self._entries = self._entries, []
        return entries

    def entries(self) -> tuple[DeferredEntry, ...]:
        """Read-only view of the queued entries in arrival order (used
        by the invariant monitors to build the global waits-for graph
        without reaching into queue internals)."""
        return tuple(self._entries)

    def requesters(self) -> set[int]:
        """CPU ids whose requests are currently buffered here -- i.e.
        the processors *waiting on* this controller's transaction."""
        return {e.request.requester for e in self._entries}

    def lines(self) -> set[int]:
        return {e.line for e in self._entries}

    def has_line(self, line: int) -> bool:
        """Allocation-free membership test (hot: consulted on every miss
        and probe while speculating; the queue is nearly always tiny)."""
        for e in self._entries:
            if e.request.line == line:
                return True
        return False

    def only_line(self, line: int) -> bool:
        """True when every queued entry (if any) targets ``line`` --
        the allocation-free form of ``lines() <= {line}``."""
        for e in self._entries:
            if e.request.line != line:
                return False
        return True

    def earliest_ts(self) -> Optional[Timestamp]:
        stamps = [e.request.ts for e in self._entries
                  if e.request.ts is not None]
        return min(stamps) if stamps else None

    def outranks(self, ts: Optional[Timestamp]) -> bool:
        """Does any entry's effective timestamp beat ``ts``?  (Only the
        Section 3.2 relaxation lets a holder keep such an entry.)"""
        for e in self._entries:
            if beats(e.ts, ts):
                return True
        return False

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)


@dataclass(slots=True)
class ChainState:
    """Marker/probe bookkeeping for one line's outstanding miss.

    ``best`` is the earliest timestamp heard from downstream -- chained
    successors' requests and the probes they forward -- kept even before
    a marker names the upstream neighbour.  ``forwarded`` is the earliest
    timestamp already sent to the current upstream.  A probe goes
    upstream only when it beats ``forwarded``: a probe's effect (the
    holder loses) is idempotent, so a repeat carries no news.  A marker
    from a new upstream resets ``forwarded`` and sends ``best`` there.

    Nothing heard is lost when this node is restarting: ``best`` outlives
    the restart, and the controller folds it into its decision on the
    chained successors when the fill arrives.
    """

    upstream: Optional[int] = None
    best: Optional[Timestamp] = None
    forwarded: Optional[Timestamp] = None

    def learn_upstream(self, node: int) -> Optional[Timestamp]:
        """Record the marker sender; return the timestamp to send it
        (None when there is nothing new to send)."""
        if node == self.upstream:
            return None
        self.upstream = node
        self.forwarded = self.best
        return self.best

    def queue_probe(self, ts: Timestamp) -> bool:
        """Fold ``ts`` into ``best``; True when it must be forwarded to
        the upstream now (the upstream is known and has not yet heard a
        timestamp at least as early)."""
        if beats(ts, self.best):
            self.best = ts
        if self.upstream is None or not beats(ts, self.forwarded):
            return False
        self.forwarded = ts
        return True
