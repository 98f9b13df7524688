"""Unit tests for the measurement helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import Counter, Histogram, LatencyStat, MetricSet, TimeSeries, mean, percentile


class TestMean:
    def test_empty(self):
        assert mean([]) == 0.0

    def test_simple(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)


class TestPercentile:
    def test_empty(self):
        assert percentile([], 50) == 0.0

    def test_single(self):
        assert percentile([7.0], 99) == 7.0

    def test_median_interpolation(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)

    def test_extremes(self):
        data = [5.0, 1.0, 3.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 5.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)

    def test_two_samples_interior(self):
        assert percentile([0.0, 10.0], 25) == pytest.approx(2.5)
        assert percentile([0.0, 10.0], 99) == pytest.approx(9.9)

    def test_duplicate_values(self):
        assert percentile([5.0, 5.0, 5.0], 50) == 5.0
        assert percentile([5.0, 5.0, 5.0], 99) == 5.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50),
           st.floats(min_value=0, max_value=100))
    def test_bounded_by_min_max(self, values, q):
        p = percentile(values, q)
        assert min(values) <= p <= max(values)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=30))
    def test_monotone_in_q(self, values):
        assert percentile(values, 25) <= percentile(values, 75)


class TestCounter:
    def test_add(self):
        c = Counter("x")
        c.add()
        c.add(4)
        assert c.value == 5

    def test_repr(self):
        assert "x=0" in repr(Counter("x"))


class TestLatencyStat:
    def test_summary(self):
        stat = LatencyStat("lat")
        for v in (1.0, 2.0, 3.0, 4.0):
            stat.record(v)
        assert stat.count == 4
        assert stat.mean == pytest.approx(2.5)
        assert stat.p(100) == 4.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyStat("lat").record(-1.0)

    def test_empty_summary(self):
        stat = LatencyStat("lat")
        assert stat.count == 0
        assert stat.mean == 0.0


class TestTimeSeries:
    def test_time_weighted_mean(self):
        ts = TimeSeries("depth")
        ts.record(0.0, 10.0)
        ts.record(1.0, 20.0)   # 10 for [0,1)
        ts.record(3.0, 0.0)    # 20 for [1,3)
        # mean over [0,3): (10*1 + 20*2) / 3
        assert ts.time_weighted_mean() == pytest.approx(50.0 / 3.0)

    def test_horizon_extension(self):
        ts = TimeSeries("depth")
        ts.record(0.0, 10.0)
        assert ts.time_weighted_mean(horizon=2.0) == pytest.approx(10.0)

    def test_horizon_truncates_tail(self):
        # Regression: a horizon earlier than the last sample used to be
        # ignored; segments past it must be clipped.
        ts = TimeSeries("depth")
        ts.record(0.0, 10.0)
        ts.record(1.0, 20.0)
        ts.record(3.0, 0.0)
        # Over [0,2): 10 for one second, 20 for one second.
        assert ts.time_weighted_mean(horizon=2.0) == pytest.approx(15.0)

    def test_horizon_at_sample_boundary(self):
        ts = TimeSeries("depth")
        ts.record(0.0, 10.0)
        ts.record(1.0, 20.0)
        ts.record(3.0, 0.0)
        assert ts.time_weighted_mean(horizon=1.0) == pytest.approx(10.0)

    def test_horizon_before_first_sample(self):
        # An empty (or inverted) window degenerates to the first value.
        ts = TimeSeries("depth")
        ts.record(5.0, 42.0)
        ts.record(7.0, 0.0)
        assert ts.time_weighted_mean(horizon=5.0) == 42.0
        assert ts.time_weighted_mean(horizon=1.0) == 42.0

    def test_empty(self):
        assert TimeSeries("d").time_weighted_mean() == 0.0


class TestHistogram:
    def test_bucketing(self):
        hist = Histogram("size", [10.0, 100.0])
        for value in (1.0, 10.0, 11.0, 250.0):
            hist.record(value)
        assert hist.bucket_counts() == {"le_10": 2, "le_100": 1, "overflow": 1}
        assert hist.total == 4
        assert hist.mean == pytest.approx((1 + 10 + 11 + 250) / 4)

    def test_bounds_sorted_and_deduped(self):
        hist = Histogram("h", [100.0, 10.0])
        assert hist.bounds == (10.0, 100.0)
        with pytest.raises(ValueError):
            Histogram("h", [5.0, 5.0])
        with pytest.raises(ValueError):
            Histogram("h", [])

    def test_empty_mean(self):
        assert Histogram("h", [1.0]).mean == 0.0


class TestMetricSet:
    def test_idempotent_lookup(self):
        metrics = MetricSet()
        assert metrics.counter("a") is metrics.counter("a")
        assert metrics.latency("l") is metrics.latency("l")
        assert metrics.timeseries("t") is metrics.timeseries("t")

    def test_snapshot(self):
        metrics = MetricSet()
        metrics.counter("hits").add(3)
        metrics.latency("lat").record(2.0)
        snap = metrics.snapshot()
        assert snap["hits"] == 3.0
        assert snap["lat.mean"] == pytest.approx(2.0)
        assert snap["lat.count"] == 1.0

    def test_snapshot_latency_percentiles(self):
        metrics = MetricSet()
        stat = metrics.latency("lat")
        for v in range(1, 101):
            stat.record(float(v))
        snap = metrics.snapshot()
        assert snap["lat.p50"] == pytest.approx(50.5)
        assert snap["lat.p99"] == pytest.approx(stat.p(99))

    def test_snapshot_histogram(self):
        metrics = MetricSet()
        hist = metrics.histogram("bytes", [10.0, 100.0])
        hist.record(5.0)
        hist.record(500.0)
        snap = metrics.snapshot()
        assert snap["bytes.count"] == 2.0
        assert snap["bytes.bucket.le_10"] == 1.0
        assert snap["bytes.bucket.overflow"] == 1.0

    def test_histogram_needs_bounds_on_first_use(self):
        metrics = MetricSet()
        with pytest.raises(ValueError):
            metrics.histogram("h")
        first = metrics.histogram("h", [1.0])
        assert metrics.histogram("h") is first
