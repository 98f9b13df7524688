"""Discrete-event simulation kernel.

A small, deterministic, dependency-free simulator in the style of
SimPy: *processes* are Python generators that ``yield`` events; the
:class:`Simulator` advances virtual time and resumes processes when the
events they wait on trigger.

Design goals:

* **Determinism** — given the same seed and the same process creation
  order, a simulation always produces the same schedule. Events that
  trigger at the same timestamp are processed in insertion order.
* **Zero dependencies** — the kernel uses only ``heapq`` and
  ``itertools``.
* **Small surface** — everything the PipeLLM models need (timeouts,
  one-shot events, the ``all_of`` combinator, preemptible-free
  resources, FIFO stores) and nothing else.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def worker(sim, name, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.process(worker(sim, "a", 2.0))
>>> _ = sim.process(worker(sim, "b", 1.0))
>>> sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

import heapq
from collections import deque
from math import inf
from typing import Any, Callable, Generator, Iterable, List, Optional


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. triggering an event twice)."""


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    *triggers* it, scheduling all registered callbacks at the current
    simulation time. Waiting on an already-triggered event resumes the
    waiter immediately (at the current time), which makes events safe
    to use as completion handles.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._ok is not None

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception of the event."""
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional value."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.sim._dispatch(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters see the exception raised."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.sim._dispatch(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run *callback(event)* when the event triggers.

        If the event has already triggered the callback is scheduled
        immediately (still through the event queue, preserving
        determinism).
        """
        if self.callbacks is None:
            # Already dispatched: schedule a zero-delay firing.
            self.sim._schedule_callback(callback, self)
        else:
            self.callbacks.append(callback)


class Timeout(Event):
    """An event that triggers automatically after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Event.__init__ inlined: this is the kernel's hottest constructor.
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = None
        self.delay = delay
        sim._schedule(sim.now + delay, self._fire, value)

    def _fire(self, value: Any) -> None:
        self.succeed(value)


class Process(Event):
    """A running generator; also an event that triggers on completion.

    The generator yields :class:`Event` instances. When a yielded event
    succeeds, the process resumes with ``event.value``; when it fails,
    the exception is thrown into the generator.
    """

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, sim: "Simulator", generator: Generator) -> None:
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError("process() requires a generator")
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        sim._schedule_callback(self._resume, None, None)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise SimulationError("cannot interrupt a finished process")
        self.sim._schedule_callback(
            lambda: self._resume(None, Interrupt(cause)) if not self.triggered else None
        )

    def _on_event(self, event: Event) -> None:
        if self._waiting_on is not event:
            return  # Stale wake-up (e.g. interrupted while waiting).
        self._waiting_on = None
        if event._ok:
            self._resume(event._value, None)
        else:
            self._resume(None, event._value)

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._ok is not None:
            return
        self._waiting_on = None
        try:
            if exc is not None:
                target = self._generator.throw(exc)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self.succeed(getattr(stop, "value", None))
            return
        except Interrupt:
            # An unhandled interrupt terminates the process quietly.
            self.succeed(None)
            return
        if not isinstance(target, Event):
            self._generator.close()
            self.fail(SimulationError(f"process yielded non-event: {target!r}"))
            return
        self._waiting_on = target
        target.add_callback(self._on_event)


class Interrupt(Exception):
    """Raised inside a process when :meth:`Process.interrupt` is called."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Condition(Event):
    """The event :func:`Simulator.all_of` returns."""

    __slots__ = ("_events", "_scan")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._events = list(events)
        #: Index of the first child not known to have triggered; a
        #: child never un-triggers, so the scan only moves forward.
        self._scan = 0
        for event in self._events:
            if event._ok is None:
                event.add_callback(self._on_child)
        if self._satisfied():
            # Trigger through the queue so waiters always see a
            # consistent "register first, fire later" order.
            sim._schedule_callback(self._maybe_fire)

    def _satisfied(self) -> bool:
        events = self._events
        scan, count = self._scan, len(events)
        while scan < count and events[scan]._ok is not None:
            scan += 1
        self._scan = scan
        return scan == count

    def _maybe_fire(self) -> None:
        if self._ok is not None or not self._satisfied():
            return
        for e in self._events:
            if e._ok is False:
                self.fail(e._value)
                return
        self.succeed([e._value for e in self._events])

    def _on_child(self, _event: Event) -> None:
        self._maybe_fire()


class Simulator:
    """The event loop: a priority queue of timestamped callbacks.

    Future callbacks live in a binary heap of ``(when, seq, func,
    args)``; callbacks scheduled at the *current* timestamp — the
    dominant case (event dispatch, zero-delay timeouts, process
    start-ups) — go to a plain FIFO lane instead, skipping two
    ``heapq`` operations and a tuple build. Together they keep the
    exact ``(when, seq)`` total order of a single heap: while the
    kernel is processing time ``t``, every entry still in the heap at
    time ``t`` was scheduled *before* the clock reached ``t`` (later
    ones go to the FIFO), so heap-resident ``t`` entries always precede
    FIFO entries in sequence order — the drain order in :meth:`run`.
    ``tests/sim/test_queue_equivalence.py`` holds the kernel
    bit-identical to a single-heap oracle over adversarial schedules.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List = []
        self._fifo: deque = deque()
        self._seq = 0
        #: ``run``'s ``until`` while it runs; -inf outside it.
        self._horizon = -inf
        #: Callbacks run so far (heap pops plus FIFO pops).
        self.dispatched = 0
        # Optional span tracer (see repro.sim.tracing); disabled by
        # default so instrumented components stay overhead-free.
        from .tracing import SpanTracer

        self.tracer = SpanTracer(enabled=False)

    # -- scheduling ----------------------------------------------------

    def _schedule(self, when: float, func: Callable, *args: Any) -> None:
        if when == self.now:
            self._fifo.append((func, args))
        else:
            self._seq += 1
            heapq.heappush(self._queue, (when, self._seq, func, args))

    def _schedule_callback(self, func: Callable, *args: Any) -> None:
        self._fifo.append((func, args))

    def _dispatch(self, event: Event) -> None:
        callbacks, event.callbacks = event.callbacks, None
        if callbacks:
            fifo = self._fifo
            for callback in callbacks:
                fifo.append((callback, (event,)))

    def _advance_inline(self, when: float) -> bool:
        """Move the clock to ``when`` if nothing else can run before it.

        True only when the FIFO is empty, no heap entry is due by
        ``when`` and ``when`` is inside ``run``'s horizon: a timer due
        then would be the next pop, so its caller may go on inline.
        """
        queue = self._queue
        if self._fifo or (queue and queue[0][0] <= when) or when > self._horizon:
            return False
        self.now = when
        return True

    # -- public API ----------------------------------------------------

    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Launch a generator as a simulation process."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> Condition:
        """Event that triggers when *all* of ``events`` have triggered."""
        return Condition(self, events)

    def run(self, until: Optional[float] = None) -> None:
        """Process events until the queue drains or ``until`` is reached.

        When ``until`` is given, the clock is advanced exactly to it
        even if the queue drains earlier.

        Order per timestamp: heap entries at ``now`` first (scheduled
        before the clock reached ``now``, hence lower sequence
        numbers), then the FIFO in insertion order, then advance the
        clock. The FIFO is provably empty whenever the clock advances
        or the loop exits on the ``until`` horizon.
        """
        queue = self._queue
        fifo = self._fifo
        pop = heapq.heappop
        popleft = fifo.popleft
        dispatched = 0
        self._horizon = inf if until is None else until
        try:
            if until is None:
                while True:
                    if queue and queue[0][0] <= self.now:
                        _when, _tie, func, args = pop(queue)
                    elif fifo:
                        func, args = popleft()
                    elif queue:
                        self.now, _tie, func, args = pop(queue)
                    else:
                        return
                    dispatched += 1
                    func(*args)
            while self.now <= until:
                if queue and queue[0][0] <= self.now:
                    _when, _tie, func, args = pop(queue)
                elif fifo:
                    func, args = popleft()
                elif queue and queue[0][0] <= until:
                    self.now, _tie, func, args = pop(queue)
                else:
                    break
                dispatched += 1
                func(*args)
            if self.now < until:
                self.now = until
        finally:
            self.dispatched += dispatched
            self._horizon = -inf

    def peek(self) -> Optional[float]:
        """Timestamp of the next scheduled callback, or None if idle."""
        if self._fifo:
            return self.now
        return self._queue[0][0] if self._queue else None
