"""Wall-clock hygiene lint for the simulation tree.

Every metric in this repo is defined over **simulated** seconds; a
single stray ``time.time()`` in the instrumented path would silently
mix wall-clock into latency math and make runs irreproducible. This
module AST-scans ``src/repro`` for wall-clock reads;
``tests/observatory/test_lint.py`` (also a CI step) holds the tree to
it, so the invariant holds structurally rather than by review.

Allowed call sites: the CLI entry point and the dashboard refresh
loop — the only places that interact with a human in real time.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Sequence, Tuple

__all__ = ["ALLOWED_WALL_CLOCK_FILES", "WALL_CLOCK_CALLS", "wall_clock_call_sites"]

#: ``time.<attr>`` calls that read the wall clock.
WALL_CLOCK_CALLS = ("time", "monotonic", "perf_counter", "process_time")

#: Repo-relative paths (under ``src/repro``) where wall-clock reads
#: are legitimate: the human-facing CLI and the dashboard's refresh
#: pacing. Everything else must take timestamps from ``sim.now`` or
#: as injected parameters.
ALLOWED_WALL_CLOCK_FILES = (
    "cli.py",
    "observatory/dashboard.py",
)


def _wall_clock_calls_in(source: str) -> List[Tuple[int, str]]:
    """(lineno, call) for every wall-clock read in one module."""
    tree = ast.parse(source)
    hits: List[Tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
            and func.attr in WALL_CLOCK_CALLS
        ):
            hits.append((node.lineno, f"time.{func.attr}()"))
        elif isinstance(func, ast.Name) and func.id in ("monotonic", "perf_counter"):
            # `from time import monotonic` style.
            hits.append((node.lineno, f"{func.id}()"))
    return hits


def wall_clock_call_sites(
    root: Path, allowed: Sequence[str] = ALLOWED_WALL_CLOCK_FILES
) -> List[str]:
    """Disallowed wall-clock reads under ``root``, as ``path:line call``.

    ``root`` is the ``src/repro`` package directory; paths in the
    result (and in ``allowed``) are relative to it.
    """
    violations: List[str] = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel in allowed:
            continue
        for lineno, call in _wall_clock_calls_in(path.read_text()):
            violations.append(f"{rel}:{lineno} {call}")
    return violations
