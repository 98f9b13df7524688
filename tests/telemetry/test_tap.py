"""EventTap: bounded subscriber buffers with drop-oldest backpressure."""

import pytest

from repro.telemetry import EventTap, TelemetryHub, TransferEvent


def make_hub():
    hub = TelemetryHub(enabled=True)
    hub.max_events = 0  # hub retains nothing; taps see the live stream
    return hub


def event(i):
    return TransferEvent(time=float(i), direction="h2d", addr=i, size=64)


class TestBackpressure:
    def test_drop_oldest_keeps_newest(self):
        hub = make_hub()
        tap = hub.tap(max_events=4)
        for i in range(10):
            hub.emit(event(i))
        assert tap.seen == 10
        assert tap.dropped == 6
        assert len(tap) == 4
        assert [e.addr for e in tap] == [6, 7, 8, 9]

    def test_dropped_counter_lands_in_hub_metrics(self):
        hub = make_hub()
        hub.tap(max_events=2)
        for i in range(5):
            hub.emit(event(i))
        assert hub.metrics.counters["telemetry.tap.dropped_events"].value == 3

    def test_no_drops_under_capacity(self):
        hub = make_hub()
        tap = hub.tap(max_events=8)
        for i in range(5):
            hub.emit(event(i))
        assert tap.dropped == 0
        assert "telemetry.tap.dropped_events" not in hub.metrics.counters

    def test_drain_empties_buffer(self):
        hub = make_hub()
        tap = hub.tap(max_events=4)
        for i in range(3):
            hub.emit(event(i))
        drained = tap.drain()
        assert [e.addr for e in drained] == [0, 1, 2]
        assert len(tap) == 0

    def test_independent_taps(self):
        hub = make_hub()
        small = hub.tap(max_events=1)
        large = hub.tap(max_events=16)
        for i in range(4):
            hub.emit(event(i))
        assert [e.addr for e in small] == [3]
        assert [e.addr for e in large] == [0, 1, 2, 3]
        assert small.dropped == 3 and large.dropped == 0

    def test_rejects_nonpositive_capacity(self):
        hub = make_hub()
        with pytest.raises(ValueError):
            hub.tap(max_events=0)

    def test_disabled_hub_feeds_no_taps(self):
        hub = make_hub()
        tap = hub.tap(max_events=4)
        hub.enabled = False
        hub.emit(event(0))
        assert tap.seen == 0 and len(tap) == 0
