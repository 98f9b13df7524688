"""Golden-frame test for ``repro dash``.

The dashboard's frames are a pure function of the simulation, so the
three standard fixtures — FlexGen under PipeLLM and under CC, and the
online-serving dashboard (all seed 5) — must render byte-identical
frames run after run. The committed golden pins every frame of each
run by sha256 (``frames.json``) and keeps the final frame as text
(``<fixture>.final.txt``) so a drift shows up as a readable diff.

Any intentional change to the frame layout must regenerate it:

    PYTHONPATH=src python tests/observatory/test_dashboard_golden.py
"""

import hashlib
import json
from pathlib import Path
from typing import Dict, List

import pytest

from repro.bench import CC, pipellm
from repro.observatory.dashboard import run_flexgen_dashboard, run_serve_dashboard

GOLDEN = Path(__file__).parent / "golden"
REGENERATE = "PYTHONPATH=src python tests/observatory/test_dashboard_golden.py"


def _flexgen(system) -> List[str]:
    return run_flexgen_dashboard(
        system=system, n_requests=6, interval_s=0.2, seed=5, render=True,
    ).frames


FIXTURES = {
    "flexgen-pipellm": lambda: _flexgen(pipellm(8, 2)),
    "flexgen-cc": lambda: _flexgen(CC),
    "serve": lambda: run_serve_dashboard(
        rate=10.0, duration=2.0, interval_s=0.25, seed=5, render=True,
    ).frames,
}


def digest(frames: List[str]) -> Dict[str, object]:
    joined = "\n\f\n".join(frames)
    return {
        "frames": len(frames),
        "sha256": hashlib.sha256(joined.encode()).hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_frames_match_committed_golden(name):
    frames = FIXTURES[name]()
    final = GOLDEN / f"{name}.final.txt"
    assert final.exists(), f"golden missing; regenerate with {REGENERATE}"
    assert frames[-1] + "\n" == final.read_text(encoding="utf-8"), (
        f"final {name} frame drifted; if intentional, regenerate with "
        f"{REGENERATE}"
    )
    golden = json.loads((GOLDEN / "frames.json").read_text())
    assert digest(frames) == golden[name], (
        f"{name} frames drifted; if intentional, regenerate with {REGENERATE}"
    )


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, fixture in sorted(FIXTURES.items()):
        frames = fixture()
        digests[name] = digest(frames)
        final = GOLDEN / f"{name}.final.txt"
        final.write_text(frames[-1] + "\n", encoding="utf-8")
    (GOLDEN / "frames.json").write_text(
        json.dumps(digests, indent=2, sort_keys=True) + "\n"
    )
    print(f"regenerated {GOLDEN}")
