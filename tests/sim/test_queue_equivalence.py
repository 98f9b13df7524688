"""Differential harness: the FIFO+heap event queue ≡ a single heap.

:class:`repro.sim.core.Simulator` routes current-timestamp callbacks
through a FIFO lane and keeps a heap only for future ones.
:class:`HeapSimulator` below is the original single-binary-heap loop,
kept here as the oracle. These tests execute identical adversarial
schedules — duplicate timestamps, zero-delay cascades, interrupts,
event triggering, combinators, staggered ``run(until)`` horizons — on
both and demand the observed execution order be identical, which pins
the kernel to the exact ``(when, seq)`` total order of the heap.
"""

import heapq
from typing import Any, Callable, Optional

from hypothesis import given, settings, strategies as st

from repro.sim import Interrupt, Simulator
from repro.sim.core import Event


class HeapSimulator(Simulator):
    """The original event loop: one binary heap, total order by
    ``(when, seq)``. The oracle the FIFO+heap kernel is held to."""

    def _schedule(self, when: float, func: Callable, *args: Any) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (when, self._seq, func, args))

    def _schedule_callback(self, func: Callable) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (self.now, self._seq, func, ()))

    def _dispatch(self, event: Event) -> None:
        callbacks, event.callbacks = event.callbacks, None
        if callbacks:
            for callback in callbacks:
                self._schedule(self.now, callback, event)

    def run(self, until: Optional[float] = None) -> None:
        while self._queue:
            when, _tie, func, args = self._queue[0]
            if until is not None and when > until:
                break
            heapq.heappop(self._queue)
            self.now = when
            func(*args)
        if until is not None and self.now < until:
            self.now = until


N_EVENTS = 4

#: Delays with heavy collision mass: zero-delay cascades and repeated
#: timestamps are the orders a tuned queue is most likely to break.
delays = st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 2.0])

steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["wait", "trigger", "wait_event", "interrupt", "join", "all", "any"]
        ),
        delays,
        st.integers(0, 7),
    ),
    min_size=0,
    max_size=6,
)

plans = st.lists(steps, min_size=1, max_size=5)


def execute(simulator_cls, plan, horizons):
    """Run ``plan`` on one kernel class; return the event log."""
    sim = simulator_cls()
    log = []
    events = [sim.event() for _ in range(N_EVENTS)]
    procs = []

    def worker(wid, worker_steps):
        for index, (op, delay, ref) in enumerate(worker_steps):
            log.append((sim.now, wid, index, op))
            if op == "wait":
                yield sim.timeout(delay)
            elif op == "trigger":
                event = events[ref % N_EVENTS]
                if not event.triggered:
                    event.succeed((wid, index))
            elif op == "wait_event":
                event = events[ref % N_EVENTS]
                # A worker may park on an event nobody ever triggers;
                # the queue then simply drains around it.
                value = yield event
                log.append((sim.now, wid, index, value))
            elif op == "interrupt":
                # Cancellation: kill another worker (or ourselves) at
                # the current timestamp.
                target = procs[ref % len(procs)]
                if target.is_alive:
                    target.interrupt((wid, index))
            elif op == "join":
                target = procs[ref % len(procs)]
                if target.is_alive:
                    try:
                        yield target
                    except Interrupt as interrupt:
                        log.append((sim.now, wid, index, interrupt.cause))
            elif op == "all":
                yield sim.all_of([sim.timeout(delay), sim.timeout(0.0)])
            elif op == "any":
                yield sim.any_of([sim.timeout(delay), sim.timeout(1.0)])
        log.append((sim.now, wid, "done"))

    for wid, worker_steps in enumerate(plan):
        procs.append(sim.process(worker(wid, worker_steps)))

    # Interrupt the first worker from outside once the clock starts,
    # through a zero-delay process (exercises stale-wakeup handling).
    def saboteur():
        yield sim.timeout(0.0)
        if procs and procs[0].is_alive:
            procs[0].interrupt("storm")
            log.append((sim.now, "saboteur"))

    sim.process(saboteur())

    for horizon in horizons:
        sim.run(until=horizon)
        log.append(("horizon", horizon, sim.now, sim.peek()))
    sim.run()
    log.append(("final", sim.now, sim.peek()))
    return log


class TestScheduleEquivalence:
    @given(plan=plans)
    @settings(max_examples=60, deadline=None)
    def test_heap_and_fast_orders_identical(self, plan):
        assert execute(HeapSimulator, plan, []) == execute(Simulator, plan, [])

    @given(plan=plans, horizons=st.lists(delays, max_size=3).map(sorted))
    @settings(max_examples=60, deadline=None)
    def test_identical_under_staggered_horizons(self, plan, horizons):
        # run(until=...) must leave both queues in equivalent states at
        # every stop, including horizons landing exactly on busy
        # timestamps (the FIFO must be provably drained at each break).
        assert (execute(HeapSimulator, plan, horizons)
                == execute(Simulator, plan, horizons))


class TestQueueSelection:
    def test_peek_sees_fifo_entries(self):
        sim = Simulator()
        assert sim.peek() is None
        fired = []
        sim.process(e for e in ())  # start-up callback lands in the FIFO
        assert sim.peek() == sim.now == 0.0
        sim._schedule(2.5, fired.append, "later")
        assert sim.peek() == 0.0
        sim.run()
        assert fired == ["later"] and sim.now == 2.5
