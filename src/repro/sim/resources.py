"""Shared-resource primitives for the simulation kernel.

Three primitives cover everything the hardware and serving models need:

* :class:`Resource` — a counting semaphore (e.g. PCIe link slots,
  encryption worker threads).
* :class:`Store` — an unbounded FIFO queue of items (e.g. the
  speculative-encryption work queue).
* :class:`BandwidthPipe` — a serially-shared channel where each job
  occupies the channel for ``bytes / bandwidth`` seconds (e.g. a PCIe
  direction, the CPU-side AES engine in single-stream mode).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from .core import Event, Simulator
from .tracing import SpanTracer


class Resource:
    """A counting semaphore with FIFO granting order.

    Usage inside a process::

        req = resource.acquire()
        yield req
        try:
            ...                      # hold the resource
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently-held slots."""
        return self._in_use

    def acquire(self) -> Event:
        """Return an event that succeeds once a slot is granted."""
        event = self.sim.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event

    def try_acquire(self) -> bool:
        """Take a free slot at once, without an event; False if none is."""
        if self._in_use < self.capacity:
            self._in_use += 1
            return True
        return False

    def release(self) -> None:
        """Return a slot, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError("release() without matching acquire()")
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed(self)
        else:
            self._in_use -= 1


class Store:
    """Unbounded FIFO of items with blocking ``get``."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Add an item; wakes the oldest blocked getter, if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event yielding the next item (FIFO)."""
        event = self.sim.event()
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event


class BandwidthPipe:
    """A channel that serializes jobs at a fixed bandwidth.

    Each job of ``nbytes`` occupies the pipe for
    ``latency + nbytes / bandwidth`` seconds; concurrent submitters
    queue in FIFO order. This models a DMA engine or a single
    encryption stream where byte streams cannot interleave. Each job
    is a span on lane ``name`` of ``tracer`` (the owning machine's);
    None records nothing.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        latency: float = 0.0,
        name: str = "pipe",
        tracer: Optional[SpanTracer] = None,
    ) -> None:
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.name = name
        self.tracer = tracer
        self._busy_until = 0.0
        self._busy = 0.0
        self.bytes_moved = 0
        self.jobs_done = 0

    def busy_time(self) -> float:
        """Seconds the pipe was busy in ``[0, now]``.

        Jobs queued past ``now`` form one contiguous backlog ending at
        the ``busy_until`` horizon, so removing it from the total
        service time leaves exactly the occupancy so far.
        """
        return self._busy - max(0.0, self._busy_until - self.sim.now)

    def duration_of(self, nbytes: int) -> float:
        """Service time for a job of ``nbytes`` (excluding queueing)."""
        return self.latency + nbytes / self.bandwidth

    def transfer(self, nbytes: int) -> Event:
        """Submit a job; the returned event fires when the job finishes."""
        return self.sim.timeout(self.reserve(nbytes), value=nbytes)

    def reserve(self, nbytes: int) -> float:
        """Book a job without an event; return the delay to its finish.

        Queueing is modelled by tracking the pipe's ``busy_until``
        horizon: a new job starts at ``max(now, busy_until)``.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        start = max(self.sim.now, self._busy_until)
        duration = self.duration_of(nbytes)
        finish = start + duration
        self._busy_until = finish
        self._busy += duration
        self.bytes_moved += nbytes
        self.jobs_done += 1
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.record(self.name, "xfer", start, finish)
        return finish - self.sim.now


class WorkerPool:
    """N identical workers pulling jobs from a two-level priority queue.

    Jobs are ``(service_time, done_event, payload)`` tuples; the pool
    models the CPU encryption/decryption thread pools where the paper
    sweeps thread counts (Fig. 9). Urgent jobs (critical-path
    on-demand crypto) overtake queued speculative work, but never
    preempt a job already in service — matching real threads.

    Workers are callbacks, not processes: each wake-up, timer and
    finish runs at the queue position where a generator worker would
    resume (``tests/sim/`` holds it to one). Idle workers are indices.
    Each job is a span on lane ``name[index]`` of ``tracer``, if any.
    """

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
        self._idle: Deque[int] = deque()
        self.jobs_done = 0
        self.busy_seconds = 0.0
        for index in range(workers):
            sim._schedule_callback(self._next, index)

    def submit(
        self,
        service_time: float,
        payload: Any = None,
        urgent: bool = False,
        front: bool = False,
    ) -> Event:
        """Enqueue a job taking ``service_time`` seconds on one worker.

        ``urgent`` selects the high-priority queue; ``front`` pushes
        the job ahead of its queue (LIFO service — e.g. decrypting the
        most recent swap-out first, since LIFO resume needs it first).
        """
        if service_time < 0:
            raise ValueError("service_time must be non-negative")
        done = self.sim.event()
        job = (service_time, done, payload)
        if self._idle:
            self.sim._schedule_callback(self._start, (self._idle.popleft(),), job)
        else:
            queue = self._high if urgent else self._low
            if front:
                queue.appendleft(job)
            else:
                queue.append(job)
        return done

    def submit_all(
        self, service_times: List[float], urgent: bool = False, front: bool = False
    ) -> Event:
        """One :meth:`submit` per service time, joined by ``all_of``.

        Equal slices that all land on idle workers run as one *gang*:
        one wake-up, timer and finish, then one completion hop. This is
        exact (DESIGN §4h): the per-slice wake-ups, timers and finishes
        would each be k consecutive queue entries, and the ``all_of``
        would fire at the first finish's ``_on_child``, queued before
        that worker takes new work. Each dropped callback is one of k
        identical back-to-back hops or a no-op ``_on_child``.
        """
        ways = len(service_times)
        service_time = service_times[0]
        if ways > 1 and len(self._idle) >= ways and service_times.count(service_time) == ways:
            if service_time < 0:
                raise ValueError("service_time must be non-negative")
            done = self.sim.event()
            workers = tuple(self._idle.popleft() for _ in range(ways))
            self.sim._schedule_callback(self._start, workers, (service_time, done, None))
            return done
        return self.sim.all_of(
            [self.submit(s, urgent=urgent, front=front) for s in service_times]
        )

    def _next(self, index: int) -> None:
        """Worker ``index`` is free: take the next queued job or park."""
        queue = self._high or self._low
        if queue:
            self._start((index,), queue.popleft())
        else:
            self._idle.append(index)

    def _start(self, workers: Tuple[int, ...], job: Tuple[float, Event, Any]) -> None:
        sim = self.sim
        sim._schedule(sim.now + job[0], self._timer, workers, job, sim.now)

    def _timer(self, *args: Any) -> None:
        # Where a worker's timeout fired and queued its resumption.
        self.sim._schedule_callback(self._finish, *args)

    def _finish(
        self, workers: Tuple[int, ...], job: Tuple[float, Event, Any], started: float
    ) -> None:
        service_time, done, payload = job
        sim = self.sim
        # Completion precedes any next job's zero-delay timer; a gang's
        # takes one hop more, to where the all_of's first _on_child ran.
        if len(workers) == 1:
            done.succeed(payload)
        else:
            sim._schedule_callback(done.succeed, [payload] * len(workers))
        tracer = self.tracer
        for index in workers:
            self.busy_seconds += service_time
            self.jobs_done += 1
            if tracer is not None and tracer.enabled:
                tracer.record(f"{self.name}[{index}]", "job", started, sim.now)
            self._next(index)
