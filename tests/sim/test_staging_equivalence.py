"""Differential harness: the fast-forwarded DMA staging ring ≡ the
per-piece path.

:meth:`repro.hw.dma.DmaStaging.stage` skips a piece's slot hop or
memcpy timer when ``Simulator._advance_inline`` proves that the skipped
callback would be the very next one to run. The single-heap oracle
:class:`HeapSimulator` never fast-forwards, so under it every piece
takes the acquire event and the memcpy timeout. These tests run the
same staging schedules on both kernels: contended rings, piece counts
that do not divide the buffer size, foreign timers exactly on computed
piece boundaries with zero-delay cascades behind them, and
``run(until)`` horizons inside a staging train and on its boundaries.
The ``(time, label)`` log, the ring and memcpy-pipe statistics at every
stop and the tracer spans must be identical.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.dma import DmaStaging
from repro.sim import Simulator, SpanTracer

from .test_queue_equivalence import HeapSimulator

BUFFER = 16  # bytes per piece
SLOTS = 4

stagers = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.5]),  # start offset
        st.lists(st.integers(1, 5 * BUFFER), min_size=1, max_size=3),  # sizes
        st.sampled_from([0.0, 0.0, 0.5, 2.0]),  # gap between stages
    ),
    min_size=1,
    max_size=6,
)

#: 8 B/s gives exact piece times (many ties); 3 B/s gives inexact sums.
bandwidths = st.sampled_from([8.0, 3.0])


class RecordingHeapSimulator(HeapSimulator):
    """The oracle, noting the time every timeout is due."""

    def __init__(self) -> None:
        super().__init__()
        self.due = []

    def timeout(self, delay, value=None):
        self.due.append(self.now + delay)
        return super().timeout(delay, value)


def execute(kernel, plan, bandwidth, foreign=(), horizons=()):
    """Run one staging schedule; return its log and the simulator
    (``sim.spans`` holds the memcpy pipe's spans).

    ``plan`` holds one ``(start, sizes, gap)`` stager per entry;
    ``foreign`` holds ``(at, depth)`` timers, each followed by a
    zero-delay cascade of ``depth`` hops.
    """
    sim = kernel()
    tracer = SpanTracer()
    staging = DmaStaging(sim, buffer_bytes=BUFFER, buffers=SLOTS,
                         memcpy_bandwidth=bandwidth, tracer=tracer)
    pipe = staging._memcpy
    log = []

    def state():
        return (staging.stage_count, staging.max_outstanding, staging._slots.in_use,
                pipe._busy, pipe.bytes_moved, pipe.jobs_done)

    def stager(index, start, sizes, gap):
        yield sim.timeout(start)
        for n, size in enumerate(sizes):
            if n and gap:
                yield sim.timeout(gap)
            log.append((sim.now, f"s{index} begin {n}") + state())
            yield from staging.stage(size)
            log.append((sim.now, f"s{index} end {n}") + state())

    def timer(index, at, depth):
        yield sim.timeout(at)
        log.append((sim.now, f"f{index}") + state())
        for hop in range(depth):
            yield sim.timeout(0.0)
            log.append((sim.now, f"f{index}.{hop}") + state())

    for index, (start, sizes, gap) in enumerate(plan):
        sim.process(stager(index, start, sizes, gap))
    for index, (at, depth) in enumerate(foreign):
        sim.process(timer(index, at, depth))
    for horizon in horizons:
        sim.run(until=horizon)
        log.append(("horizon", horizon, sim.now, sim.peek()) + state())
    sim.run()
    log.append(("final", sim.now, sim.peek()) + state())
    log.extend(tracer.spans)
    sim.spans = tracer.spans
    return log, sim


def boundaries(plan, bandwidth):
    """Every instant the per-piece path has a timer due or a memcpy
    span edge, sorted: where ties with the fast path are closest."""
    _log, sim = execute(RecordingHeapSimulator, plan, bandwidth)
    edges = {t for span in sim.spans for t in (span.start, span.end)}
    return sorted(edges.union(sim.due))


def assert_equivalent(plan, bandwidth, foreign=(), horizons=()):
    oracle, _ = execute(HeapSimulator, plan, bandwidth, foreign, horizons)
    fast, _ = execute(Simulator, plan, bandwidth, foreign, horizons)
    assert fast == oracle


class TestStagingEquivalence:
    @given(plan=stagers, bandwidth=bandwidths)
    @settings(max_examples=60, deadline=None)
    def test_contended_ring_matches_per_piece_path(self, plan, bandwidth):
        assert_equivalent(plan, bandwidth)

    @given(plan=stagers, bandwidth=bandwidths, data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_foreign_timers_and_horizons_on_piece_boundaries(self, plan, bandwidth, data):
        edges = boundaries(plan, bandwidth)
        # Exactly on a boundary, or strictly between two of them.
        points = edges + [(a + b) / 2 for a, b in zip(edges, edges[1:])]
        at = st.sampled_from(points)
        foreign = data.draw(st.lists(st.tuples(at, st.integers(0, 2)), max_size=4))
        horizons = sorted(data.draw(st.lists(at, max_size=3)))
        assert_equivalent(plan, bandwidth, foreign, horizons)

    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize("at_piece", [1, 2, 3, 4])
    def test_lone_copy_with_a_tied_timer_and_horizon(self, at_piece, depth):
        # One 4.5-piece copy; a foreign timer and a horizon on the same
        # piece boundary, and a horizon half a piece later.
        plan = [(0.0, [4 * BUFFER + BUFFER // 2], 0.0)]
        edge = at_piece * BUFFER / 8.0
        assert_equivalent(plan, 8.0, [(edge, depth)], [edge, edge + 1.0])

    def test_horizons_inside_and_on_the_edges_of_a_train(self):
        plan = [(0.0, [4 * BUFFER + BUFFER // 2], 0.0)]
        assert_equivalent(plan, 8.0, horizons=[0.0, 3.0, 4.0, 8.0, 8.5])

    def test_six_stagers_queue_for_four_slots(self):
        plan = [(0.0, [3 * BUFFER + 1], 0.0)] * 6
        oracle, _ = execute(HeapSimulator, plan, 8.0)
        fast, _ = execute(Simulator, plan, 8.0)
        assert fast == oracle
        final = next(entry for entry in fast if entry[0] == "final")
        _label, _now, _peek, stage_count, max_outstanding, *_rest = final
        assert (stage_count, max_outstanding) == (6 * 4, SLOTS)
