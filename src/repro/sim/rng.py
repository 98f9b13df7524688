"""Deterministic random-number helpers.

Every stochastic component (arrival processes, trace length sampling,
payload generation) draws from a :class:`SeededRng` created from an
explicit seed so that simulations — and therefore every figure in
EXPERIMENTS.md — are exactly reproducible.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Optional

__all__ = ["SeededRng", "default_seed", "set_default_seed"]

#: Process-wide seed override, set by the CLI's ``--seed`` option so a
#: whole experiment (every workload generator and engine it builds) is
#: reproducible from the command line. None = each call site's own
#: built-in default applies.
_SEED_OVERRIDE: Optional[int] = None


def set_default_seed(seed: Optional[int]) -> Optional[int]:
    """Install (or with None, clear) the process-wide seed override;
    returns the override it replaced, so callers can restore it."""
    global _SEED_OVERRIDE
    if seed is not None and seed < 0:
        raise ValueError("seed must be non-negative")
    previous, _SEED_OVERRIDE = _SEED_OVERRIDE, seed
    return previous


def default_seed(fallback: int) -> int:
    """The effective seed: the CLI override if set, else ``fallback``."""
    return _SEED_OVERRIDE if _SEED_OVERRIDE is not None else fallback


class SeededRng:
    """Thin wrapper over :class:`random.Random` with domain helpers."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def fork(self, label: str) -> "SeededRng":
        """Derive an independent stream keyed by a label.

        Forking keeps component streams decoupled: adding draws in one
        workload generator does not perturb another. The derivation
        uses CRC32 (not ``hash``, whose string salting differs across
        processes) so forked streams are stable run to run.
        """
        derived = zlib.crc32(f"{self.seed}:{label}".encode("utf-8"))
        return SeededRng(derived & 0x7FFFFFFF)

    def uniform(self, low: float, high: float) -> float:
        return self._rng.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        return self._rng.randint(low, high)

    def random(self) -> float:
        return self._rng.random()

    def exponential(self, rate: float) -> float:
        """Exponential inter-arrival sample for a Poisson process."""
        if rate <= 0:
            raise ValueError("rate must be positive")
        return -math.log(1.0 - self._rng.random()) / rate

    def lognormal_int(self, mean_log: float, sigma_log: float, low: int, high: int) -> int:
        """Clamped integer lognormal sample (token-length modelling)."""
        value = int(round(self._rng.lognormvariate(mean_log, sigma_log)))
        return max(low, min(high, value))

    def bytes(self, n: int) -> bytes:
        """Deterministic pseudo-random payload bytes."""
        return bytes(self._rng.getrandbits(8) for _ in range(n))
