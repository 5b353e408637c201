"""Linearizability of TLR commits (the paper's Figure 1 claim).

Critical sections overlap in physical time, but each must appear to be
inserted atomically and instantly into one global order.  The commit
log (an ``obs`` consumer) exposes each transaction's commit instant and
committed write set; replaying it in commit order against a sequential
model verifies the global order exists and matches commit time.
"""

import pytest

from repro.harness.analysis import CommitLog
from repro.harness.config import SyncScheme
from repro.harness.machine import Machine
from repro.workloads.microbench import linked_list, single_counter

from tests.conftest import small_config

HEAD_OFFSET, TAIL_OFFSET = 1, 2  # relative line layout; read from meta


def _attach_log(machine: Machine):
    return CommitLog.attach(machine).entries


class TestCounterLinearizability:
    @pytest.mark.parametrize("scheme",
                             [SyncScheme.TLR, SyncScheme.TLR_STRICT_TS],
                             ids=lambda s: s.value)
    def test_committed_values_follow_commit_order(self, scheme):
        machine = Machine(small_config(4, scheme))
        log = _attach_log(machine)
        workload = single_counter(4, 256)
        counter = workload.meta["counter"]
        machine.run_workload(workload)

        values = [wb[counter] for _, _, wb in log if counter in wb]
        assert values == list(range(1, len(values) + 1)), (
            "counter commits are not a linear history")

    def test_commit_log_is_time_ordered(self):
        machine = Machine(small_config(4, SyncScheme.TLR))
        log = _attach_log(machine)
        machine.run_workload(single_counter(4, 128))
        times = [t for t, _, _ in log]
        assert times == sorted(times)

    def test_every_processor_commits(self):
        """Starvation-freedom, observed through the commit log."""
        machine = Machine(small_config(4, SyncScheme.TLR))
        log = _attach_log(machine)
        machine.run_workload(single_counter(4, 256))
        committers = {cpu for _, cpu, _ in log}
        assert committers == {0, 1, 2, 3}


class TestQueueLinearizability:
    def test_commit_log_replays_against_model_queue(self):
        """Every committed dequeue/enqueue, taken in commit order, is a
        legal step of a sequential queue."""
        machine = Machine(small_config(4, SyncScheme.TLR))
        log = _attach_log(machine)
        workload = linked_list(4, 256)
        head = workload.meta["head"]
        tail = workload.meta["tail"]
        model = list(workload.meta["nodes"])  # the initializer's queue
        machine.run_workload(workload)

        held: dict[int, int] = {}
        for time, cpu, wb in log:
            if tail in wb and wb[tail] != 0:
                # Enqueue (possibly to an empty queue, which also sets
                # head): the node must be one this thread dequeued.
                node = wb[tail]
                assert held.get(cpu) == node, (
                    f"t={time} cpu{cpu} enqueued {node:#x} it does not "
                    f"hold ({held})")
                model.append(node)
                del held[cpu]
            elif head in wb:
                # Dequeue: the new head must be the model's second node
                # (or NULL when the model empties).
                assert model, f"t={time} cpu{cpu} dequeued from empty"
                node = model.pop(0)
                expected_head = model[0] if model else 0
                assert wb[head] == expected_head, (
                    f"t={time} cpu{cpu} dequeue set head={wb[head]:#x}, "
                    f"model expected {expected_head:#x}")
                if not model:
                    assert wb.get(tail) == 0, "emptying dequeue kept tail"
                held[cpu] = node
        assert len(model) == len(workload.meta["nodes"])
        assert not held
