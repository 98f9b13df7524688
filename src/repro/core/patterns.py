"""Swap-pattern detectors (§5.1, Figure 5).

Today's LLM systems exhibit a small set of swap-in orderings that the
predictor can recognize from the low-level transfer trace alone:

* **Repetitive** — model offloading (FlexGen, DeepSpeed): the same
  layers stream in the same cyclic order every iteration.
* **FIFO** — layer-wise KV-cache swapping: blocks swapped out in layer
  order come back in the same order.
* **LIFO** — request-wise KV-cache swapping (vLLM): the lowest-priority
  request is evicted first and reloaded last.

Each detector scores its own hypothesis against the observed history;
the predictor picks the best-scoring one per traffic class. Detectors
are deliberately open-coded and independent so that a new pattern can
be added by implementing :class:`PatternDetector` (the paper's
"implement a new pattern" extension point).
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Deque, List, Optional, Sequence

__all__ = [
    "FifoDetector",
    "LifoDetector",
    "PatternDetector",
    "RepetitiveDetector",
]

#: A chunk identity as seen at the driver level: (address, size).
ChunkKey = tuple


class PatternDetector(abc.ABC):
    """One hypothesis about the order of future swap-ins."""

    name = "abstract"

    @abc.abstractmethod
    def observe_swap_out(self, key: ChunkKey) -> None:
        """A chunk left the GPU (became predictable)."""

    @abc.abstractmethod
    def observe_swap_in(self, key: ChunkKey) -> None:
        """A chunk was requested back by the GPU."""

    @abc.abstractmethod
    def predict(self, count: int) -> List[ChunkKey]:
        """The next ``count`` swap-ins under this hypothesis."""

    @property
    @abc.abstractmethod
    def score(self) -> float:
        """Rolling prediction accuracy in [0, 1]."""


class _ScoredDetector(PatternDetector):
    """Shared hit/miss accounting with exponential forgetting."""

    _DECAY = 0.9

    def __init__(self) -> None:
        self._score = 0.0
        self._primed = False

    def _grade(self, predicted: Optional[ChunkKey], actual: ChunkKey) -> bool:
        """Fold one prediction into the score; True on a hit."""
        if predicted is None:
            return False  # No hypothesis yet: neither credit nor blame.
        hit = predicted == actual
        credit = 1.0 if hit else 0.0
        if self._primed:
            self._score = self._DECAY * self._score + (1 - self._DECAY) * credit
        else:
            self._score = credit
            self._primed = True
        return hit

    @property
    def score(self) -> float:
        return self._score


def _smallest_period(window: Sequence[ChunkKey]) -> Optional[int]:
    """Smallest ``p < len(window)`` with ``window[i] == window[i - p]``
    for every ``i >= p``, or None.

    That is ``n`` minus the longest proper border, which the last entry
    of the prefix (KMP failure) function gives in O(n).
    """
    n = len(window)
    border = [0] * n
    k = 0
    for i in range(1, n):
        x = window[i]
        while x != window[k]:
            if not k:
                break
            k = border[k - 1]
        else:  # x extends the border.
            k += 1
        border[i] = k
    return n - k if k else None


class RepetitiveDetector(_ScoredDetector):
    """Cyclic layer-order detector for model offloading (Fig. 5a).

    Maintains a bounded swap-in history and the smallest period ``p``
    such that the whole history is ``p``-periodic (``p`` shorter than
    the history). The next swap-in is then the element one period back.

    The period is kept incrementally. An append that matches the
    element one period back keeps ``p`` the smallest period: without
    eviction, any shorter period would already be one of the old
    window; with eviction, Fine–Wilf says a shorter period ``q`` would
    make ``gcd(p, q)`` a period of the old window whenever
    ``p + q - gcd(p, q) <= n``, which holds for every ``q < p`` once
    ``2p - 2 <= n``. A window with no period that grows without
    eviction can only gain the period ``n``. Every other case
    recomputes in O(n) with :func:`_smallest_period`.
    """

    name = "repetitive"

    def __init__(self, max_history: int = 512) -> None:
        super().__init__()
        self._history: Deque[ChunkKey] = deque(maxlen=max_history)
        self._period: Optional[int] = None  # Of the whole history.

    def observe_swap_out(self, key: ChunkKey) -> None:
        # Offloaded weights never change residency mid-run; swap-outs
        # carry no ordering signal for this hypothesis.
        pass

    def observe_swap_in(self, key: ChunkKey) -> None:
        history, period = self._history, self._period
        n = len(history)
        evicts = n == history.maxlen
        hit = self._grade(self._next(), key)
        history.append(key)
        if hit and (not evicts or 2 * period - 2 <= n):
            return
        if period is None and not evicts:
            self._period = n if n and key == history[0] else None
        else:
            self._period = _smallest_period(list(history))

    def _next(self) -> Optional[ChunkKey]:
        period = self._period
        if period is None:
            return None
        return self._history[-period]

    def predict(self, count: int) -> List[ChunkKey]:
        period = self._period
        if period is None:
            return []
        history = self._history
        return [history[i % period - period] for i in range(count)]


class _PoolDetector(_ScoredDetector):
    """Base for FIFO/LIFO hypotheses over the swapped-out pool."""

    def __init__(self) -> None:
        super().__init__()
        self._pool: List[ChunkKey] = []  # In swap-out order.

    def observe_swap_out(self, key: ChunkKey) -> None:
        if key in self._pool:
            self._pool.remove(key)
        self._pool.append(key)

    def observe_swap_in(self, key: ChunkKey) -> None:
        predictions = self.predict(1)
        self._grade(predictions[0] if predictions else None, key)
        if key in self._pool:
            self._pool.remove(key)


class FifoDetector(_PoolDetector):
    """First-swapped-out, first-swapped-in (layer-wise KV swapping)."""

    name = "fifo"

    def predict(self, count: int) -> List[ChunkKey]:
        return self._pool[:count]


class MarkovDetector(_ScoredDetector):
    """First-order transition model over swap-in successors.

    The paper's stated future work is to *learn* the predictor ``f``
    instead of hand-writing pattern heuristics (§5.1). This detector
    is the simplest useful learner: it counts, for every chunk, which
    chunk most often followed it in the swap-in stream, and predicts
    by walking that transition table. On strictly periodic traffic it
    converges to the repetitive detector; on noisy-but-biased traffic
    it can pick up structure the fixed hypotheses miss. It races in
    the same scoreboard as the hand-written detectors, so it only
    drives predictions when it is actually the most accurate.
    """

    name = "markov"

    def __init__(self, max_successors: int = 8) -> None:
        super().__init__()
        self._transitions: dict = {}
        self._last: Optional[ChunkKey] = None
        self._max_successors = max_successors

    def observe_swap_out(self, key: ChunkKey) -> None:
        pass  # Successor structure lives in the swap-in stream alone.

    def observe_swap_in(self, key: ChunkKey) -> None:
        self._grade(self._best_successor(self._last), key)
        if self._last is not None:
            counts = self._transitions.setdefault(self._last, {})
            counts[key] = counts.get(key, 0) + 1
            if len(counts) > self._max_successors:
                # Drop the weakest successor to bound state.
                weakest = min(counts, key=counts.get)
                del counts[weakest]
        self._last = key

    def _best_successor(self, key: Optional[ChunkKey]) -> Optional[ChunkKey]:
        if key is None:
            return None
        counts = self._transitions.get(key)
        if not counts:
            return None
        return max(counts, key=counts.get)

    def predict(self, count: int) -> List[ChunkKey]:
        out: List[ChunkKey] = []
        cursor = self._last
        seen = set()
        for _ in range(count):
            nxt = self._best_successor(cursor)
            if nxt is None or (nxt, cursor) in seen:
                break
            seen.add((nxt, cursor))
            out.append(nxt)
            cursor = nxt
        return out


class LifoDetector(_PoolDetector):
    """Last-swapped-out, first-swapped-in (request-wise KV swapping)."""

    name = "lifo"

    def predict(self, count: int) -> List[ChunkKey]:
        return list(reversed(self._pool[-count:])) if count else []
