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
from typing import Any, Deque, Generator, Tuple

from .core import Event, Simulator


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
    encryption stream where byte streams cannot interleave.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        latency: float = 0.0,
        name: str = "pipe",
    ) -> None:
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.name = name
        self._busy_until = 0.0
        self.bytes_moved = 0
        self.jobs_done = 0

    def busy_time(self) -> float:
        """Seconds of occupancy accumulated so far (including future)."""
        return self._busy_until

    def duration_of(self, nbytes: int) -> float:
        """Service time for a job of ``nbytes`` (excluding queueing)."""
        return self.latency + nbytes / self.bandwidth

    def transfer(self, nbytes: int) -> Event:
        """Submit a job; the returned event fires when the job finishes.

        Queueing is modelled by tracking the pipe's ``busy_until``
        horizon: a new job starts at ``max(now, busy_until)``.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        start = max(self.sim.now, self._busy_until)
        finish = start + self.duration_of(nbytes)
        self._busy_until = finish
        self.bytes_moved += nbytes
        self.jobs_done += 1
        if self.sim.tracer.enabled:
            self.sim.tracer.record(self.name, "xfer", start, finish)
        return self.sim.timeout(finish - self.sim.now, value=nbytes)


class WorkerPool:
    """N identical workers pulling jobs from a two-level priority queue.

    Jobs are ``(service_time, done_event, payload)`` tuples; the pool
    models the CPU encryption/decryption thread pools where the paper
    sweeps thread counts (Fig. 9). Urgent jobs (critical-path
    on-demand crypto) overtake queued speculative work, but never
    preempt a job already in service — matching real threads.
    """

    def __init__(self, sim: Simulator, workers: int, name: str = "pool") -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.sim = sim
        self.name = name
        self.workers = workers
        self._high: Deque[Tuple[float, Event, Any]] = deque()
        self._low: Deque[Tuple[float, Event, Any]] = deque()
        self._idle: Deque[Event] = deque()
        self.jobs_done = 0
        self.busy_seconds = 0.0
        for index in range(workers):
            sim.process(self._worker_loop(index))

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
            self._idle.popleft().succeed(job)
        else:
            queue = self._high if urgent else self._low
            if front:
                queue.appendleft(job)
            else:
                queue.append(job)
        return done

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
            if self.sim.tracer.enabled:
                self.sim.tracer.record(f"{self.name}[{_index}]", "job", started, self.sim.now)
            done.succeed(payload)
