"""Measurement helpers: counters, latency accumulators, time series.

All benchmark figures are computed from these primitives so that every
experiment reports through the same machinery (mean / percentile /
throughput definitions are written once).
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Optional, Sequence, Tuple


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence."""
    return sum(values) / len(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100])."""
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be within [0, 100]")
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    rank = (q / 100.0) * (len(data) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return data[low]
    frac = rank - low
    value = data[low] * (1.0 - frac) + data[high] * frac
    # Clamp against floating-point drift past the observed extremes.
    return min(max(value, data[0]), data[-1])


class Counter:
    """A named monotonic counter."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class LatencyStat:
    """Accumulates individual latency samples and summarizes them."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples: List[float] = []

    def record(self, latency: float) -> None:
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.samples.append(latency)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return mean(self.samples)

    def p(self, q: float) -> float:
        return percentile(self.samples, q)


class TimeSeries:
    """(time, value) samples, e.g. queue depth or bandwidth over time."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.points: List[Tuple[float, float]] = []

    def record(self, time: float, value: float) -> None:
        self.points.append((time, value))

    def time_weighted_mean(self, horizon: Optional[float] = None) -> float:
        """Mean of a piecewise-constant signal over its recorded span.

        ``horizon`` bounds the averaging window: segments past it are
        clipped (a horizon earlier than the last sample truncates the
        tail), and a horizon past the last sample extends it at the
        final value.
        """
        if not self.points:
            return 0.0
        start = self.points[0][0]
        end = horizon if horizon is not None else self.points[-1][0]
        if end <= start:
            return self.points[0][1]
        total = 0.0
        for (t0, v0), (t1, _v1) in zip(self.points, self.points[1:]):
            if t0 >= end:
                break
            total += v0 * (min(t1, end) - t0)
        last_t, last_v = self.points[-1]
        if end > last_t:
            total += last_v * (end - last_t)
        return total / (end - start)


class Histogram:
    """Fixed-bucket histogram: counts of samples per upper bound.

    ``bounds`` are inclusive upper edges in increasing order; samples
    above the last bound land in an implicit overflow bucket.
    """

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        ordered = sorted(float(b) for b in bounds)
        if len(set(ordered)) != len(ordered):
            raise ValueError("histogram bounds must be distinct")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(ordered)
        self.counts: List[int] = [0] * (len(ordered) + 1)
        self.total = 0
        self.sum = 0.0

    def record(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def bucket_counts(self) -> Dict[str, int]:
        """``{"le_<bound>": count, ..., "overflow": count}``."""
        out: Dict[str, int] = {}
        for bound, count in zip(self.bounds, self.counts):
            out[f"le_{bound:g}"] = count
        out["overflow"] = self.counts[-1]
        return out


class MetricSet:
    """A registry of named metrics owned by one simulation run."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.latencies: Dict[str, LatencyStat] = {}
        self.series: Dict[str, TimeSeries] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def latency(self, name: str) -> LatencyStat:
        if name not in self.latencies:
            self.latencies[name] = LatencyStat(name)
        return self.latencies[name]

    def timeseries(self, name: str) -> TimeSeries:
        if name not in self.series:
            self.series[name] = TimeSeries(name)
        return self.series[name]

    def histogram(self, name: str, bounds: Optional[Sequence[float]] = None) -> Histogram:
        if name not in self.histograms:
            if bounds is None:
                raise ValueError(f"histogram {name!r} needs bounds on first use")
            self.histograms[name] = Histogram(name, bounds)
        return self.histograms[name]

    def snapshot(self) -> Dict[str, float]:
        """Flat dict of every metric, for reports and exporters.

        Latency stats contribute mean/count plus p50/p99; histograms
        contribute per-bucket counts.
        """
        out: Dict[str, float] = {}
        for name, counter in self.counters.items():
            out[name] = float(counter.value)
        for name, stat in self.latencies.items():
            out[f"{name}.mean"] = stat.mean
            out[f"{name}.count"] = float(stat.count)
            out[f"{name}.p50"] = stat.p(50)
            out[f"{name}.p99"] = stat.p(99)
        for name, hist in self.histograms.items():
            out[f"{name}.count"] = float(hist.total)
            out[f"{name}.mean"] = hist.mean
            for bucket, count in hist.bucket_counts().items():
                out[f"{name}.bucket.{bucket}"] = float(count)
        return out
