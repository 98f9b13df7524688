#!/usr/bin/env python3
"""Committed output digests: every registry experiment and the scorecard.

Usage::

    PYTHONPATH=src python scripts/digests.py --check
    PYTHONPATH=src python scripts/digests.py --write

``tests/golden/experiments.json`` holds the sha256 of the standard
output of ``python -m repro run <id> --scale quick --json`` for every id
of ``repro.bench.EXPERIMENTS`` at the default seed, and of
``python -m repro claims --scale quick --json``.

``--check`` recomputes each digest in a fresh process. It then runs
every experiment once more, in one process and in reverse registry
order, and requires the same digests again: an output that depends on
what ran before it in the same process (module state, a leaked seed
override) fails that second pass. It exits 1 and names every id that
moved, with the pass that saw it. ``--write`` regenerates the file
from fresh processes.

The rule: a change that moves a digest regenerates the file with
``--write`` and names each moved id, and the reason, in CHANGES.md. An
output that differs between the ``cryptography`` and the pure-Python
AES-GCM backends is a finding about the backends, not a reason to drop
an id.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "experiments.json"
CLAIMS_ARGV = ("claims", "--scale", "quick", "--json")


def _run_argv(experiment: str) -> List[str]:
    return ["run", experiment, "--scale", "quick", "--json"]


def _sha(text: bytes) -> str:
    return hashlib.sha256(text).hexdigest()


def _fresh(argv: List[str]) -> str:
    """Digest of ``python -m repro <argv>`` in a new process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    done = subprocess.run(
        [sys.executable, "-m", "repro", *argv], env=env, cwd=ROOT,
        stdout=subprocess.PIPE,
    )
    # ``claims`` exits 1 when a claim fails; its output is still the
    # scorecard. Anything else is a crash.
    if done.returncode not in (0, 1) or not done.stdout:
        raise SystemExit(f"repro {' '.join(argv)} failed ({done.returncode})")
    return _sha(done.stdout)


def fresh_digests(experiments: List[str]) -> Dict[str, object]:
    return {
        "claims": _fresh(list(CLAIMS_ARGV)),
        "experiments": {name: _fresh(_run_argv(name)) for name in experiments},
    }


def one_process_digests(experiments: List[str]) -> Dict[str, str]:
    """Digests of every experiment run in this process, in the given order."""
    from repro.cli import main

    out: Dict[str, str] = {}
    for name in experiments:
        buffer = io.StringIO()
        main(_run_argv(name), out=buffer)
        out[name] = _sha(buffer.getvalue().encode())
    return out


def _moved(expected: Dict[str, str], got: Dict[str, str]) -> List[str]:
    return [name for name in expected if got.get(name) != expected[name]]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="recompute and compare against the committed file")
    mode.add_argument("--write", action="store_true",
                      help="regenerate the committed file")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    from repro.bench import EXPERIMENTS

    experiments = list(EXPERIMENTS)
    if args.write:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(
            json.dumps(fresh_digests(experiments), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {GOLDEN.relative_to(ROOT)}: {len(experiments)} experiments "
              "and the claims scorecard")
        return 0

    golden = json.loads(GOLDEN.read_text())
    expected = golden["experiments"]
    problems: List[str] = []
    if sorted(expected) != sorted(experiments):
        problems.append(
            f"registry ids {sorted(experiments)} != digest ids {sorted(expected)}"
        )
    fresh = fresh_digests(experiments)
    if fresh["claims"] != golden["claims"]:
        problems.append("claims: scorecard moved (fresh process)")
    problems += [
        f"{name}: moved (fresh process)"
        for name in _moved(expected, fresh["experiments"])
    ]
    reverse = one_process_digests(experiments[::-1])
    problems += [
        f"{name}: moved (one process, reverse registry order)"
        for name in _moved(expected, reverse)
    ]
    for problem in problems:
        print(problem)
    print(f"digests: {len(experiments)} experiments + claims, "
          f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
