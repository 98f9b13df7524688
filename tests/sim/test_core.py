"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import Event, Interrupt, SimulationError, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestEvent:
    def test_starts_untriggered(self, sim):
        event = sim.event()
        assert not event.triggered

    def test_succeed_carries_value(self, sim):
        event = sim.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_double_succeed_is_an_error(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, sim):
        event = sim.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_fail_marks_not_ok(self, sim):
        event = sim.event()
        event.fail(ValueError("boom"))
        assert event.triggered
        assert not event.ok
        assert isinstance(event.value, ValueError)

    def test_value_before_trigger_raises(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_callback_after_trigger_still_fires(self, sim):
        event = sim.event()
        event.succeed("x")
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == ["x"]


class TestTimeout:
    def test_advances_clock(self, sim):
        fired = []

        def proc():
            yield sim.timeout(2.5)
            fired.append(sim.now)

        sim.process(proc())
        sim.run()
        assert fired == [2.5]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_zero_delay_fires_at_now(self, sim):
        fired = []

        def proc():
            yield sim.timeout(0.0)
            fired.append(sim.now)

        sim.process(proc())
        sim.run()
        assert fired == [0.0]

    def test_timeout_value_passthrough(self, sim):
        got = []

        def proc():
            value = yield sim.timeout(1.0, value="payload")
            got.append(value)

        sim.process(proc())
        sim.run()
        assert got == ["payload"]


class TestProcess:
    def test_ordering_by_delay(self, sim):
        log = []

        def worker(name, delay):
            yield sim.timeout(delay)
            log.append(name)

        sim.process(worker("late", 2.0))
        sim.process(worker("early", 1.0))
        sim.run()
        assert log == ["early", "late"]

    def test_same_time_fifo(self, sim):
        log = []

        def worker(name):
            yield sim.timeout(1.0)
            log.append(name)

        for name in "abc":
            sim.process(worker(name))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_process_is_event(self, sim):
        def child():
            yield sim.timeout(1.0)
            return "done"

        results = []

        def parent():
            value = yield sim.process(child())
            results.append((sim.now, value))

        sim.process(parent())
        sim.run()
        assert results == [(1.0, "done")]

    def test_yielding_non_event_fails_process(self, sim):
        def bad():
            yield 42

        proc = sim.process(bad())
        sim.run()
        assert proc.triggered
        assert not proc.ok

    def test_failed_event_raises_inside_process(self, sim):
        caught = []

        def proc():
            event = sim.event()
            sim._schedule_callback(lambda: event.fail(RuntimeError("bad")))
            try:
                yield event
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.process(proc())
        sim.run()
        assert caught == ["bad"]

    def test_interrupt_wakes_process(self, sim):
        log = []

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt as interrupt:
                log.append(("interrupted", sim.now, interrupt.cause))

        def interrupter(target):
            yield sim.timeout(1.0)
            target.interrupt("stop")

        target = sim.process(sleeper())
        sim.process(interrupter(target))
        sim.run()
        assert log == [("interrupted", 1.0, "stop")]

    def test_interrupt_finished_process_rejected(self, sim):
        def quick():
            yield sim.timeout(0.1)

        proc = sim.process(quick())
        sim.run()
        with pytest.raises(SimulationError):
            proc.interrupt()

    def test_unhandled_interrupt_terminates_quietly(self, sim):
        def sleeper():
            yield sim.timeout(100.0)

        def interrupter(target):
            yield sim.timeout(1.0)
            target.interrupt()

        target = sim.process(sleeper())
        sim.process(interrupter(target))
        sim.run()
        assert target.triggered

    def test_is_alive(self, sim):
        def sleeper():
            yield sim.timeout(5.0)

        proc = sim.process(sleeper())
        sim.run(until=1.0)
        assert proc.is_alive
        sim.run()
        assert not proc.is_alive


class TestConditions:
    def test_all_of_waits_for_all(self, sim):
        done = []

        def proc():
            yield sim.all_of([sim.timeout(1.0), sim.timeout(3.0), sim.timeout(2.0)])
            done.append(sim.now)

        sim.process(proc())
        sim.run()
        assert done == [3.0]

    def test_all_of_empty_fires_immediately(self, sim):
        done = []

        def proc():
            yield sim.all_of([])
            done.append(sim.now)

        sim.process(proc())
        sim.run()
        assert done == [0.0]

    def test_all_of_with_pretriggered(self, sim):
        early = sim.event()
        early.succeed("e")
        done = []

        def proc():
            values = yield sim.all_of([early, sim.timeout(1.0, value="t")])
            done.append(values)

        sim.process(proc())
        sim.run()
        assert done == [["e", "t"]]

    def test_all_of_propagates_failure(self, sim):
        bad = sim.event()
        caught = []

        def proc():
            try:
                yield sim.all_of([bad, sim.timeout(1.0)])
            except RuntimeError:
                caught.append(True)

        sim.process(proc())
        sim._schedule_callback(lambda: bad.fail(RuntimeError("x")))
        sim.run()
        assert caught == [True]


class TestRun:
    def test_run_until_stops_clock(self, sim):
        def proc():
            yield sim.timeout(10.0)

        sim.process(proc())
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert sim.peek() == 10.0

    def test_run_until_past_drain_advances_clock(self, sim):
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_peek_empty(self, sim):
        assert sim.peek() is None

    def test_determinism(self):
        def build():
            s = Simulator()
            log = []

            def worker(name, delay):
                yield s.timeout(delay)
                log.append((s.now, name))

            for i in range(20):
                s.process(worker(f"w{i}", (i * 7) % 5 + 0.5))
            s.run()
            return log

        assert build() == build()
