"""The committed output digests (``tests/golden/experiments.json``).

``scripts/digests.py --check`` recomputes them; this only pins that the
file covers exactly the registry, so a new experiment cannot skip the
check and a deleted one cannot linger in it.
"""

import json
from pathlib import Path

from repro.bench import EXPERIMENTS

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "experiments.json"


def test_digest_file_lists_exactly_the_registry():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden["experiments"]) == sorted(EXPERIMENTS)
    assert set(golden) == {"claims", "experiments"}
    for digest in (golden["claims"], *golden["experiments"].values()):
        assert len(digest) == 64 and int(digest, 16) >= 0
