"""Differential harness: incremental ``RepetitiveDetector`` ≡ the scan.

:class:`repro.core.patterns.RepetitiveDetector` keeps the smallest
period of its window incrementally. The original implementation, which
rescans every candidate period on every call, lives on here as the
oracle. Both run on the same traces — random, strictly periodic,
near-periodic, run-length (the shape of per-destination KV-migration
chunk trains) and traces long enough to evict — and after every
observation must agree on ``predict(k)`` and ``score``. A second case
races two :class:`SwapPredictor` s, one built with the oracle, so the
``best_detector`` tie-breaks are covered too.
"""

from collections import deque
from typing import Deque, List, Optional
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.predictor as predictor_module
from repro.core import RepetitiveDetector, SwapClass, SwapPredictor, TransferClassifier
from repro.core.patterns import ChunkKey, PatternDetector


class ScanningRepetitiveDetector(PatternDetector):
    """The original detector: score accounting and period scan as shipped
    before the incremental version, kept as the reference."""

    name = "repetitive"

    _DECAY = 0.9

    def __init__(self, max_history: int = 512, min_confirm: int = 1) -> None:
        self._score = 0.0
        self._primed = False
        self._history: Deque[ChunkKey] = deque(maxlen=max_history)
        self._min_confirm = min_confirm

    def _grade(self, predicted: Optional[ChunkKey], actual: ChunkKey) -> None:
        if predicted is None:
            return  # No hypothesis yet: neither credit nor blame.
        hit = 1.0 if predicted == actual else 0.0
        if self._primed:
            self._score = self._DECAY * self._score + (1 - self._DECAY) * hit
        else:
            self._score = hit
            self._primed = True

    @property
    def score(self) -> float:
        return self._score

    def observe_swap_out(self, key: ChunkKey) -> None:
        # Offloaded weights never change residency mid-run; swap-outs
        # carry no ordering signal for this hypothesis.
        pass

    def observe_swap_in(self, key: ChunkKey) -> None:
        self._grade(self._next(), key)
        self._history.append(key)

    def _period(self) -> Optional[int]:
        history = list(self._history)
        n = len(history)
        for period in range(1, n - 1 + 1):
            confirmed = n - period
            if confirmed < self._min_confirm:
                continue
            if all(history[i] == history[i - period] for i in range(period, n)):
                return period
        return None

    def _next(self, ahead: int = 0) -> Optional[ChunkKey]:
        period = self._period()
        if period is None:
            return None
        history = list(self._history)
        return history[len(history) - period + (ahead % period)]

    def predict(self, count: int) -> List[ChunkKey]:
        period = self._period()
        if period is None:
            return []
        history = list(self._history)
        cycle = history[-period:]
        return [cycle[i % period] for i in range(count)]


def key(i):
    return (i * 4096, 1 << 20)


symbols = st.integers(0, 3)


def random_traces(window):
    return st.lists(symbols, max_size=2 * window + 8)


@st.composite
def periodic_traces(draw, window):
    cycle = draw(st.lists(symbols, min_size=1, max_size=window + 2))
    length = draw(st.integers(0, 2 * window + 8))
    return [cycle[i % len(cycle)] for i in range(length)]


@st.composite
def near_periodic_traces(draw, window):
    trace = draw(periodic_traces(window))
    for _ in range(draw(st.integers(1, 3))):
        if trace:
            trace[draw(st.integers(0, len(trace) - 1))] = draw(symbols)
    return trace


@st.composite
def run_length_traces(draw, window):
    """Long runs per destination, like a KV-migration chunk stream."""
    runs = draw(st.lists(st.tuples(symbols, st.integers(1, window)), max_size=8))
    return [symbol for symbol, length in runs for _ in range(length)][: 3 * window]


@st.composite
def evicting_traces(draw, window):
    """An arbitrary head, then a periodic tail that outlives it in the
    window: evicting the head can shorten the period."""
    head = draw(st.lists(symbols, min_size=1, max_size=window))
    cycle = draw(st.lists(symbols, min_size=1, max_size=window))
    tail = draw(st.integers(window - len(head) + 1, 2 * window + 1))
    return head + [cycle[i % len(cycle)] for i in range(tail)]


TRACES = {
    "random": random_traces,
    "periodic": periodic_traces,
    "near-periodic": near_periodic_traces,
    "run-length": run_length_traces,
    "evicting": evicting_traces,
}

#: The oracle is quadratic per observation; the full-size window gets
#: fewer (long) examples.
EXAMPLES = {3: 150, 5: 150, 16: 100, 512: 4}


@pytest.mark.parametrize("shape", sorted(TRACES))
@pytest.mark.parametrize("window", sorted(EXAMPLES))
def test_detector_matches_oracle(window, shape):
    counts = (0, 1, 3, window + 2)

    @settings(max_examples=EXAMPLES[window], deadline=None)
    @given(TRACES[shape](window))
    def check(trace):
        fast = RepetitiveDetector(max_history=window)
        oracle = ScanningRepetitiveDetector(max_history=window)
        for step, symbol in enumerate(trace):
            fast.observe_swap_in(key(symbol))
            oracle.observe_swap_in(key(symbol))
            for count in counts:
                assert fast.predict(count) == oracle.predict(count), (step, count)
            assert fast.score == oracle.score, step

    check()


WEIGHT = 2 << 30
KV = 300 << 20


@st.composite
def mixed_traces(draw):
    """Swap-ins and -outs of both classes. Weight swap-ins mostly follow
    a cycle, so the repetitive hypothesis wins some races and ties
    others."""
    cycle = draw(st.integers(1, 6))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["in", "out"]),
                st.sampled_from([WEIGHT, KV]),
                st.one_of(st.none(), st.integers(0, 7)),
            ),
            max_size=80,
        )
    )
    trace, position = [], 0
    for op, size, noise in ops:
        if size == WEIGHT and op == "in" and noise is None:
            ident, position = position % cycle, position + 1
        else:
            ident = noise if noise is not None else 0
        trace.append((op, ident << 32, size))
    return trace


def make_predictor(detector_class=RepetitiveDetector):
    classifier = TransferClassifier()
    classifier.register_weight_size(WEIGHT)
    with mock.patch.object(predictor_module, "RepetitiveDetector", detector_class):
        return SwapPredictor(classifier)


@settings(max_examples=200, deadline=None)
@given(mixed_traces())
def test_swap_predictor_matches_oracle(trace):
    fast = make_predictor()
    oracle = make_predictor(ScanningRepetitiveDetector)
    # Fresh scores all tie at zero, so the first weights detector wins.
    assert isinstance(oracle.best_detector(SwapClass.WEIGHTS), ScanningRepetitiveDetector)
    for step, (op, addr, size) in enumerate(trace):
        for predictor in (fast, oracle):
            if op == "in":
                predictor.observe_swap_in(addr, size)
            else:
                predictor.observe_swap_out(addr, size)
        for count in (1, 3, 8):
            assert fast.predict_all(count) == oracle.predict_all(count), (step, count)
            assert fast.predict_all(count, kv_count=1) == oracle.predict_all(
                count, kv_count=1
            ), (step, count)
        assert fast.scores() == oracle.scores(), step
