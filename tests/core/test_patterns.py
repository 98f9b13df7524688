"""Pattern-detector tests (Figure 5 swap patterns)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FifoDetector, LifoDetector, RepetitiveDetector


def key(i):
    return (i * 4096, 1 << 20)


class TestRepetitiveDetector:
    def test_locks_onto_cycle(self):
        det = RepetitiveDetector()
        for k in [key(1), key(3), key(4), key(1)]:
            det.observe_swap_in(k)
        # Figure 5a: after ...1,3,4,1 the next reload is layer 3.
        assert det.predict(1) == [key(3)]

    def test_predicts_full_cycle(self):
        det = RepetitiveDetector()
        for k in [key(0), key(1), key(2), key(0)]:
            det.observe_swap_in(k)
        assert det.predict(5) == [key(1), key(2), key(0), key(1), key(2)]

    def test_no_prediction_without_repeat(self):
        det = RepetitiveDetector()
        for i in range(5):
            det.observe_swap_in(key(i))
        assert det.predict(3) == []

    def test_smallest_period_wins(self):
        det = RepetitiveDetector()
        for k in [key(7), key(7), key(7)]:
            det.observe_swap_in(k)
        assert det.predict(2) == [key(7), key(7)]

    def test_score_rises_with_correct_predictions(self):
        det = RepetitiveDetector()
        sequence = [key(0), key(1), key(2)] * 6
        for k in sequence:
            det.observe_swap_in(k)
        assert det.score > 0.8

    def test_score_falls_on_pattern_change(self):
        det = RepetitiveDetector()
        for k in [key(0), key(1)] * 4:
            det.observe_swap_in(k)
        high = det.score
        for k in [key(9), key(8), key(7), key(6)]:
            det.observe_swap_in(k)
        assert det.score < high

    def test_swap_out_is_ignored(self):
        det = RepetitiveDetector()
        det.observe_swap_out(key(1))
        assert det.predict(1) == []

    def test_backward_forward_sequence(self):
        # The PEFT pattern: fwd 0..2 then bwd 2..0, repeated.
        det = RepetitiveDetector()
        step = [key(0), key(1), key(2), key(2), key(1), key(0)]
        for k in step * 2 + step[:1]:
            det.observe_swap_in(k)
        assert det.predict(2) == [key(1), key(2)]

    def test_eviction_can_shorten_period(self):
        # a,a,a,b,a has smallest period 4. Evicting the first a leaves
        # a,a,b,a,a, whose smallest period is 3, although the new a
        # still matches the element 4 back.
        det = RepetitiveDetector(max_history=5)
        a, b = key(0), key(1)
        for k in [a, a, a, b, a, a]:
            det.observe_swap_in(k)
        assert det.predict(1) == [b]


class TestRepetitiveWork:
    def test_periodic_stream_costs_constant_comparisons(self):
        """A locked-on detector does O(1) work per observation, so an
        accidental rescan of the window fails here on any machine."""
        comparisons = 0

        class CountedKey:
            def __init__(self, ident):
                self.ident = ident

            def __eq__(self, other):
                nonlocal comparisons
                comparisons += 1
                return self.ident == other.ident

        cycle = [CountedKey(i) for i in range(64)]
        det = RepetitiveDetector(max_history=512)
        warmup, total = 1024, 20_000
        for i in range(total):
            if i == warmup:
                comparisons = 0
            det.predict(1)
            det.observe_swap_in(cycle[i % 64])
        assert comparisons / (total - warmup) <= 8
        assert det.score == pytest.approx(1.0)
        assert det.predict(2) == [cycle[total % 64], cycle[(total + 1) % 64]]


class TestFifoDetector:
    def test_predicts_oldest_first(self):
        det = FifoDetector()
        for i in range(4):
            det.observe_swap_out(key(i))
        assert det.predict(2) == [key(0), key(1)]

    def test_swap_in_removes_from_pool(self):
        det = FifoDetector()
        det.observe_swap_out(key(0))
        det.observe_swap_out(key(1))
        det.observe_swap_in(key(0))
        assert det.predict(2) == [key(1)]

    def test_rewrites_move_to_back(self):
        det = FifoDetector()
        det.observe_swap_out(key(0))
        det.observe_swap_out(key(1))
        det.observe_swap_out(key(0))  # Swapped out again: now newest.
        assert det.predict(2) == [key(1), key(0)]

    def test_score_tracks_fifo_traffic(self):
        det = FifoDetector()
        for i in range(6):
            det.observe_swap_out(key(i))
        for i in range(6):
            det.observe_swap_in(key(i))
        assert det.score > 0.9


class TestLifoDetector:
    def test_predicts_newest_first(self):
        det = LifoDetector()
        for i in range(4):
            det.observe_swap_out(key(i))
        assert det.predict(2) == [key(3), key(2)]

    def test_score_tracks_lifo_traffic(self):
        det = LifoDetector()
        for i in range(6):
            det.observe_swap_out(key(i))
        for i in reversed(range(6)):
            det.observe_swap_in(key(i))
        assert det.score > 0.9

    def test_lifo_scores_zero_on_fifo_traffic(self):
        det = LifoDetector()
        for i in range(6):
            det.observe_swap_out(key(i))
        for i in range(6):
            det.observe_swap_in(key(i))
        assert det.score < 0.5

    def test_predict_zero(self):
        det = LifoDetector()
        det.observe_swap_out(key(1))
        assert det.predict(0) == []


class TestScoring:
    def test_unprimed_detectors_score_zero(self):
        assert RepetitiveDetector().score == 0.0
        assert FifoDetector().score == 0.0

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_scores_bounded(self, layers):
        det = RepetitiveDetector()
        for layer in layers:
            det.observe_swap_in(key(layer))
        assert 0.0 <= det.score <= 1.0

    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=40, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_pool_detectors_never_predict_absent_keys(self, ids):
        det = LifoDetector()
        for i in ids:
            det.observe_swap_out(key(i))
        pool = set(det.pool)
        assert all(k in pool for k in det.predict(100))
