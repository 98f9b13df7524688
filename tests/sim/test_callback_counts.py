"""Deterministic work counts for the crypto pools' kernel callbacks.

:class:`CountingSimulator` counts every callback the event loop
dispatches (heap pops plus FIFO pops), so a change in how much kernel
work one parallel crypto submission costs shows up as an exact count
on any machine, with no wall time involved. The counts below are for
one 4-slice encryption on a 4-worker pool after the workers have
booted, plus the one callback the test registers on the completion.
"""

import heapq
from typing import Optional

import pytest

from repro.hw.engine import CryptoEngine
from repro.hw.params import HardwareParams
from repro.sim import Simulator

WAYS = 4
CHUNK = 4 << 20


class CountingSimulator(Simulator):
    """The kernel's run loop, counting each dispatched callback."""

    dispatched = 0

    def run(self, until: Optional[float] = None) -> None:
        queue, fifo = self._queue, self._fifo
        while until is None or self.now <= until:
            if queue and queue[0][0] <= self.now:
                _when, _tie, func, args = heapq.heappop(queue)
            elif fifo:
                func, args = fifo.popleft()
            elif queue and (until is None or queue[0][0] <= until):
                self.now, _tie, func, args = heapq.heappop(queue)
            else:
                break
            self.dispatched += 1
            func(*args)
        if until is not None and self.now < until:
            self.now = until


class Skew:
    """Fault-plane stand-in: the n-th submission takes (n+1)x as long."""

    def __init__(self) -> None:
        self.calls = 0

    def engine_service_time(self, service: float, pool: str) -> float:
        self.calls += 1
        return service * self.calls


def parallel_encrypt_cost(busy_worker: bool = False, faults=None):
    """Callbacks to finish one parallel encryption; and its finish time."""
    sim = CountingSimulator()
    engine = CryptoEngine(sim, HardwareParams(), enc_threads=WAYS, faults=faults)
    sim.run()  # the workers boot and park
    if busy_worker:
        engine.submit_encrypt(4 * CHUNK)  # one worker stays busy for longer
        sim.run(until=sim.now)
    done_at = []
    engine.submit_encrypt_parallel(CHUNK, ways=WAYS).add_callback(
        lambda _event: done_at.append(sim.now)
    )
    start = sim.dispatched
    sim.run()
    assert len(done_at) == 1
    return sim.dispatched - start, done_at[0]


class TestParallelSubmitCallbacks:
    def test_equal_slices_on_idle_workers_run_as_one_gang(self):
        # One wake-up, one timer, one finish, one completion hop and the
        # registered callback. Per-slice jobs would cost 4 + 4 + 4
        # (wake, timer, finish per slice) + 4 ``all_of`` child
        # notifications + 1.
        count, _ = parallel_encrypt_cost()
        assert count == 5

    def test_a_busy_worker_keeps_the_per_slice_path(self):
        # Three slices wake idle workers and one queues; plus the busy
        # worker's own timer and finish, and the queued slice's timer
        # and finish once it frees up.
        count, _ = parallel_encrypt_cost(busy_worker=True)
        assert count == 18

    def test_unequal_service_times_keep_the_per_slice_path(self):
        count, finish = parallel_encrypt_cost(faults=Skew())
        assert count == 17
        slice_time = HardwareParams().enc_time(CHUNK // WAYS, threads=1)
        assert finish == pytest.approx(WAYS * slice_time)
