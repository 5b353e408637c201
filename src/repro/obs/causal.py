"""Post-hoc causal profiling from record logs.

A v3 record log carries ``OP_TXN`` records -- normalized transaction
begin/commit/abort events emitted by the *same*
:class:`~repro.obs.profile.TxnTapFolder` that feeds the live profile,
written in tap order right behind the raw ``OP_TAP`` records they fold.
Replaying them (plus the ``defer``/``service`` tap records, whose dense
request refs pair each deferral push with its service) through a fresh
:class:`~repro.obs.profile.ProfileBuilder` therefore reconstructs the
live profile exactly: same conflict matrix, same histograms, same
causal chains.  The integration tests compare the two snapshots'
canonical JSON byte for byte.

The one caveat is recorder ``capacity``: a bounded recorder drops tap
and txn records once saturated, and a profile folded from a clipped log
under-counts accordingly.  Profile-bearing captures should record
unbounded (the default).
"""

from __future__ import annotations

from typing import Union

from repro.obs.profile import ProfileBuilder
from repro.record.format import (TXN_ABORT, TXN_BEGIN, TXN_COMMIT,
                                 LogImage, load_log)


def builder_from_log(image: LogImage) -> ProfileBuilder:
    """Fold ``image``'s transaction and deferral records into a
    finalized :class:`ProfileBuilder`."""
    builder = ProfileBuilder()
    for record in image.records:
        if record.op == "txn":
            if record.flags == TXN_BEGIN:
                builder.txn_begin(record.time, record.cpu, record.line,
                                  record.label, record.ref)
            elif record.flags == TXN_COMMIT:
                builder.txn_commit(record.time, record.cpu)
            elif record.flags == TXN_ABORT:
                builder.txn_abort(
                    record.time, record.cpu, record.label, record.line,
                    record.ref if record.ref is not None else -1)
        elif record.op == "tap" and record.ref is not None:
            # Deferral waits: the dense request ref pairs each push
            # with its eventual service, mirroring the live folder's
            # req_id matching (keys differ, durations do not).
            if record.label == "defer":
                builder.defer_push(record.time, record.cpu, record.ref)
            elif record.label == "service":
                builder.defer_service(record.time, record.ref)
    builder.finalize()
    return builder


def profile_from_log(source: Union[str, bytes, LogImage]) -> dict:
    """The contention-profile snapshot of a recorded run.

    ``source`` is a log path, raw log bytes, or an already-decoded
    :class:`LogImage`.
    """
    image = source if isinstance(source, LogImage) else load_log(source)
    return builder_from_log(image).snapshot()
