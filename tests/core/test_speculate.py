"""Speculative links: pinned decisions of both stream speculators.

The link speculator (inter-GPU hops) and the migration speculator (KV
chunks) run the same predict/settle loop and differ only in the fault
query a hit must survive. Each one is fed one fixed hop stream on a
settable clock — two sources, a mispredict storm in a window, then a
destination switch — and every per-lookup answer, the final counters,
and the degradation controller's sample count and transitions are
pinned.
"""

import hashlib

import pytest

from repro.disagg import MigrationSpeculator
from repro.faults import FaultInjector, FaultPlan
from repro.parallel import LinkSpeculator

#: Forced mispredictions on both channels between 50 ms and 200 ms.
STORM = FaultPlan(
    name="speculator-storm", start=0.05, stop=0.2,
    link_mispredict_rate=0.8, migration_mispredict_rate=0.8,
)

HOPS = 400
NBYTES = 1 << 20


class Clock:
    now = 0.0


def stream():
    """(time, source index, destination, size) of every hop."""
    for i in range(HOPS):
        src = i % 2
        if src == 0:
            dst = 1 if i < 3 * HOPS // 4 else 2
        else:
            dst = 0
        yield i * 1e-3, src, dst, NBYTES


def run(cls, source):
    clock = Clock()
    injector = FaultInjector(STORM, seed=31).bind(clock)
    spec = cls(lambda: clock.now, faults=injector)
    outcomes = []
    for now, src, dst, nbytes in stream():
        clock.now = now
        outcomes.append("1" if spec.lookup(source(src), dst, nbytes) else "0")
    return spec, "".join(outcomes)


GOLDEN = {
    "link": {
        "outcomes": "abd7f3e77c00d1fbeddf97c80010e408c2c2e349597ac760d374dcd1c5919826",
        "hits": 190,
        "misses": 210,
        "parked": 198,
        "samples": 186,
        "transitions": [
            (0.053, "speculative", "degraded"),
            (0.10300000000000001, "degraded", "probing"),
            (0.10400000000000001, "probing", "degraded"),
            (0.155, "degraded", "probing"),
            (0.157, "probing", "degraded"),
            (0.20700000000000002, "degraded", "probing"),
            (0.214, "probing", "speculative"),
            (0.302, "speculative", "degraded"),
            (0.353, "degraded", "probing"),
            (0.36, "probing", "speculative"),
        ],
    },
    "migration": {
        "outcomes": "e428a9aaeaea90a69e506a7c1e8143f8c8b4cd8545073b9a60b9766d4a9988ed",
        "hits": 190,
        "misses": 210,
        "parked": 198,
        "samples": 186,
        "transitions": [
            (0.051000000000000004, "speculative", "degraded"),
            (0.101, "degraded", "probing"),
            (0.10200000000000001, "probing", "degraded"),
            (0.153, "degraded", "probing"),
            (0.154, "probing", "degraded"),
            (0.20400000000000001, "degraded", "probing"),
            (0.211, "probing", "speculative"),
            (0.302, "speculative", "degraded"),
            (0.353, "degraded", "probing"),
            (0.36, "probing", "speculative"),
        ],
    },
}


@pytest.mark.parametrize("name,cls,source", [
    ("link", LinkSpeculator, lambda src: src),
    ("migration", MigrationSpeculator, lambda src: f"p{src}.e1"),
])
def test_decisions_are_pinned(name, cls, source):
    spec, outcomes = run(cls, source)
    assert spec.lookups == HOPS
    assert spec.hits == outcomes.count("1")
    assert spec.hits + spec.misses == HOPS
    observed = {
        "outcomes": hashlib.sha256(outcomes.encode()).hexdigest(),
        "hits": spec.hits,
        "misses": spec.misses,
        "parked": spec.parked,
        # EMA observations: pins which lookups the warmup exempts.
        "samples": spec.controller.samples,
        "transitions": spec.controller.transitions,
    }
    assert observed == GOLDEN[name]
