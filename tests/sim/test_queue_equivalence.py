"""Differential harness: the FIFO+heap event queue ≡ a single heap,
and the callback worker pool ≡ a generator worker pool.

:class:`repro.sim.core.Simulator` routes current-timestamp callbacks
through a FIFO lane and keeps a heap only for future ones.
:class:`HeapSimulator` below is the original single-binary-heap loop,
kept here as the oracle. :class:`repro.sim.WorkerPool` runs its
workers as callbacks and gang-schedules equal slices;
:class:`GeneratorWorkerPool` below is the original pool of one
generator process per worker, whose ``submit_all`` is one ``submit``
per slice joined by ``all_of``. These tests execute identical
adversarial schedules — duplicate timestamps, zero-delay cascades,
interrupts, event triggering, combinators, pool submits of every kind,
staggered ``run(until)`` horizons — on each pairing and demand the
observed execution order be identical, which pins the kernel to the
exact ``(when, seq)`` total order of the heap.
"""

import heapq
from collections import deque
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple

from hypothesis import example, given, settings, strategies as st

from repro.sim import Interrupt, Simulator, SpanTracer, WorkerPool
from repro.sim.core import Event


class HeapSimulator(Simulator):
    """The original event loop: one binary heap, total order by
    ``(when, seq)``. The oracle the FIFO+heap kernel is held to."""

    def _schedule(self, when: float, func: Callable, *args: Any) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (when, self._seq, func, args))

    def _schedule_callback(self, func: Callable, *args: Any) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (self.now, self._seq, func, args))

    def _dispatch(self, event: Event) -> None:
        callbacks, event.callbacks = event.callbacks, None
        if callbacks:
            for callback in callbacks:
                self._schedule(self.now, callback, event)

    def _advance_inline(self, when: float) -> bool:
        # Never fast-forward: every staged piece takes the per-piece
        # acquire and memcpy hops the kernel's shortcut elides.
        return False

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


class GeneratorWorkerPool:
    """The original worker pool: one generator process per worker,
    parked on a gate event while idle. The oracle
    :class:`repro.sim.WorkerPool` is held to."""

    def __init__(self, sim: Simulator, workers: int, name: str = "pool",
                 tracer: Optional[SpanTracer] = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.sim = sim
        self.name = name
        self.tracer = tracer
        self.workers = workers
        self._high: Deque[Tuple[float, Event, Any]] = deque()
        self._low: Deque[Tuple[float, Event, Any]] = deque()
        self._idle: Deque[Event] = deque()
        self.jobs_done = 0
        self.busy_seconds = 0.0
        for index in range(workers):
            sim.process(self._worker_loop(index))

    def submit(self, service_time: float, payload: Any = None,
               urgent: bool = False, front: bool = False) -> Event:
        if service_time < 0:
            raise ValueError("service_time must be non-negative")
        done = self.sim.event()
        job = (service_time, done, payload)
        if self._idle:
            self._idle.popleft().succeed(job)
        else:
            queue = self._high if urgent else self._low
            if front:
                queue.appendleft(job)
            else:
                queue.append(job)
        return done

    def submit_all(self, service_times: List[float], urgent: bool = False,
                   front: bool = False) -> Event:
        return self.sim.all_of(
            [self.submit(s, urgent=urgent, front=front) for s in service_times]
        )

    def _next_job(self):
        if self._high:
            return self._high.popleft()
        if self._low:
            return self._low.popleft()
        return None

    def _worker_loop(self, _index: int) -> Generator[Event, None, None]:
        while True:
            job = self._next_job()
            if job is None:
                gate = self.sim.event()
                self._idle.append(gate)
                job = yield gate
            service_time, done, payload = job
            started = self.sim.now
            yield self.sim.timeout(service_time)
            self.busy_seconds += service_time
            self.jobs_done += 1
            if self.tracer is not None:
                self.tracer.record(f"{self.name}[{_index}]", "job", started, self.sim.now)
            done.succeed(payload)


N_EVENTS = 4
POOL_WORKERS = 3

#: Delays with heavy collision mass: zero-delay cascades and repeated
#: timestamps are the orders a tuned queue is most likely to break.
delays = st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 2.0])

steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["wait", "trigger", "wait_event", "interrupt", "join", "all",
             "submit", "gang", "uneven", "jobs"]
        ),
        delays,
        st.integers(0, 7),
    ),
    min_size=0,
    max_size=6,
)

plans = st.lists(steps, min_size=1, max_size=5)


def execute(simulator_cls, plan, horizons, pool_cls=GeneratorWorkerPool, pool_at=0):
    """Run ``plan`` on one kernel and pool class; return the event log.

    The pool is built after the first ``pool_at`` workers start, so
    some submits may reach it before its workers do. Every log entry
    carries the pool's ``jobs_done`` and ``busy_seconds``; the log ends
    with the tracer's spans.
    """
    sim = simulator_cls()
    tracer = SpanTracer()
    log = []
    events = [sim.event() for _ in range(N_EVENTS)]
    procs = []
    jobs = []
    pool = None

    def note(entry):
        log.append(entry + (pool.jobs_done, pool.busy_seconds) if pool else entry)

    def submitted(wid, index, done):
        jobs.append(done)
        done.add_callback(lambda e: note((sim.now, wid, index, "done", e.value)))
        return done

    def worker(wid, worker_steps):
        for index, (op, delay, ref) in enumerate(worker_steps):
            note((sim.now, wid, index, op))
            if op == "submit":
                # Single jobs: urgent overtakes, front makes LIFO.
                submitted(wid, index, pool.submit(
                    delay, payload=(wid, index), urgent=bool(ref & 1), front=bool(ref & 2)))
            elif op in ("gang", "uneven"):
                # Sliced jobs: equal slices may gang, unequal never do.
                ways = 1 + ref % (POOL_WORKERS + 1)
                times = [delay + (0.5 * k if op == "uneven" else 0.0) for k in range(ways)]
                done = submitted(wid, index, pool.submit_all(
                    times, urgent=bool(ref & 4), front=bool(ref & 1)))
                if ref & 2:
                    value = yield done
                    note((sim.now, wid, index, value))
            elif op == "jobs":
                if jobs:
                    value = yield sim.all_of(jobs[-1 - ref % 3:])
                    note((sim.now, wid, index, value))
            elif op == "wait":
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
        note((sim.now, wid, "done"))

    for wid, worker_steps in enumerate(plan):
        if wid == pool_at:
            pool = pool_cls(sim, POOL_WORKERS, name="pool", tracer=tracer)
        procs.append(sim.process(worker(wid, worker_steps)))
    if pool is None:
        pool = pool_cls(sim, POOL_WORKERS, name="pool", tracer=tracer)

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
    log.append(("final", sim.now, sim.peek(), pool.jobs_done, pool.busy_seconds))
    log.extend(tracer.spans)
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


class TestPoolEquivalence:
    """The callback pool ≡ the generator pool under both kernels."""

    @given(plan=plans, horizons=st.lists(delays, max_size=3).map(sorted),
           pool_at=st.integers(0, 5))
    # A zero-service gang beside a zero-delay all_of: the smallest
    # schedule that tells a gang finished inside its timer apart.
    @example(plan=[[("all", 0.0, 0)], [("gang", 0.0, 1)]], horizons=[], pool_at=0)
    @settings(max_examples=150, deadline=None)
    def test_callback_pool_matches_generator_pool(self, plan, horizons, pool_at):
        for kernel in (Simulator, HeapSimulator):
            assert (execute(kernel, plan, horizons, WorkerPool, pool_at)
                    == execute(kernel, plan, horizons, GeneratorWorkerPool, pool_at))

    def test_gang_completion_precedes_zero_delay_successor(self):
        # A gang finishing while a zero-service job waits in the queue:
        # the gang's completion must run before that job's timer.
        # (Worker 0 is the saboteur's target.)
        plan = [
            [("wait", 0.0, 0)],
            [("gang", 1.0, 2), ("wait", 0.0, 0)],
            [("wait", 0.5, 0), ("submit", 0.0, 0), ("submit", 0.0, 1)],
            [("wait", 0.5, 0), ("jobs", 0.0, 1)],
        ]
        for kernel in (Simulator, HeapSimulator):
            assert (execute(kernel, plan, [], WorkerPool)
                    == execute(kernel, plan, [], GeneratorWorkerPool))

    def test_gang_finish_waits_for_its_queue_turn(self):
        # A process whose timer shares the gang's timestamp but was
        # scheduled first must see the gang still in service.
        # (Worker 0 is the saboteur's target.)
        plan = [
            [("wait", 0.0, 0)],
            [("wait", 1.0, 0), ("wait", 0.0, 0)],
            [("gang", 1.0, 2)],
        ]
        for kernel in (Simulator, HeapSimulator):
            assert (execute(kernel, plan, [0.5, 1.0], WorkerPool, 2)
                    == execute(kernel, plan, [0.5, 1.0], GeneratorWorkerPool, 2))


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
