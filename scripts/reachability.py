#!/usr/bin/env python3
"""Report every ``repro`` function that no front door of the package enters.

Usage::

    PYTHONPATH=src python scripts/reachability.py [--json] [--only TARGET ...]

The probe drives every front door in one process under a global
``sys.settrace`` call hook with no local tracing (standard library
only; about 3.3x the untraced run time):

* every ``python -m repro`` subcommand at quick size: ``list``,
  ``systems``, ``run`` (text and ``--json``), ``claims --json`` (as
  CI's scorecard runs it), ``bench`` (one run, then ``--compare`` and
  ``--candidate`` over its artifact), ``trace`` (every experiment, all
  four formats, ``--attrib``), ``postmortem``,
  ``dash`` (FlexGen and ``--serve``) and the single-run
  ``cluster``/``serve``/``disagg`` commands under each policy, system,
  admission, crash kind and a hardware pack;
* every ``examples/*.py`` script, run as ``__main__``;
* the ``node``/``serve``/``disagg``/``storm`` workloads of
  ``benchmarks/perf/workloads.py`` at their default sizes.

Every experiment runs once, under telemetry recording, and the
recorded hubs go to all four exporters and the critical-path
profiler. The experiments are deterministic, so re-running one per
format, or once more without recording as ``all`` does, would enter
nothing new: ``all`` is ``run`` over every experiment, and ``run``
itself is driven once on ``fig2``, as is the CLI's ``trace`` path in
each format.

A function is every ``def`` under ``src/repro`` (lambdas and
comprehensions excluded). The report lists the ones never entered with
file, first line, qualified name, line count and ``refs``: every
``file:line`` in the package that names it as a variable or attribute.
The probe only sees the branches its front doors take, so an unreached
function with refs may still have a caller; the match is by bare name,
so refs over-approximate. Test-only code cannot show up as reached:
the tests are not a front door.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
EXAMPLES = ROOT / "examples"
PERF = ROOT / "benchmarks" / "perf"

SCHEMA = "repro.reachability/v1"
FORMATS = ("chrome", "json", "csv", "ascii")


# -- the function inventory -------------------------------------------------


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(PACKAGE.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def inventory() -> Tuple[Dict[Tuple[str, int], dict], Dict[str, List[str]]]:
    """Every ``def`` in the package, keyed by (file, first code line),
    and every ``file:line`` that names an identifier, keyed by the name.

    The first code line is the one a code object reports as
    ``co_firstlineno``: the first decorator's line, else the ``def``.
    """
    functions: Dict[Tuple[str, int], dict] = {}
    names: Dict[str, List[str]] = {}

    def visit(node: ast.AST, prefix: str, path: Path, module: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                functions[(str(path), first)] = {
                    "module": module,
                    "qualname": qualname,
                    "file": str(path.relative_to(ROOT)),
                    "line": child.lineno,
                    "lines": child.end_lineno - child.lineno + 1,
                }
                visit(child, qualname + ".<locals>.", path, module)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", path, module)
            else:
                visit(child, prefix, path, module)

    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        visit(tree, "", path.resolve(), _module_name(path))
        where = str(path.relative_to(ROOT))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names.setdefault(node.attr, []).append(f"{where}:{node.lineno}")
            elif isinstance(node, ast.Name):
                names.setdefault(node.id, []).append(f"{where}:{node.lineno}")
    for refs in names.values():
        refs.sort(key=lambda ref: (ref.rpartition(":")[0], int(ref.rpartition(":")[2])))
    return functions, names


# -- the call hook ----------------------------------------------------------


@contextlib.contextmanager
def entered_code() -> Iterator[Set]:
    """Collect the code object of every frame entered inside the block."""
    seen: Set = set()
    add = seen.add

    def hook(frame, event, arg):
        add(frame.f_code)

    previous = sys.gettrace()
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        yield seen
    finally:
        sys.settrace(previous)
        threading.settrace(previous)  # type: ignore[arg-type]


# -- the front doors --------------------------------------------------------


def _cli(*argv: str) -> Callable[[], None]:
    def run() -> None:
        from repro.cli import main

        main(list(argv), out=io.StringIO())

    return run


def _trace_every_experiment() -> None:
    from repro.bench import EXPERIMENTS
    from repro.cli import _print_attrib
    from repro.telemetry import ascii_gantt, chrome_trace, flat_metrics, metrics_csv, recording

    for experiment in EXPERIMENTS.values():
        with recording() as session:
            experiment("quick")
        json.dumps(chrome_trace(session.hubs))
        json.dumps(flat_metrics(session.hubs))
        metrics_csv(session.hubs)
        ascii_gantt(session.hubs)
        _print_attrib(session, -1, io.StringIO())


def _bench(workdir: Path) -> Callable[[], None]:
    def run() -> None:
        # One real run (it re-runs nine quick experiments); every other
        # door reads that artifact through --candidate.
        first = workdir / "BENCH_0.json"
        _cli("bench", "--dir", str(workdir))()
        second = workdir / "BENCH_1.json"
        second.write_text(first.read_text())
        _cli("bench", "--candidate", str(second), "--dir", str(workdir), "--compare")()
        _cli("bench", "--candidate", str(first), "--compare", str(first), "--json")()
        _cli("bench", "--candidate", str(first), "--json")()

    return run


def _example(path: Path, workdir: Path) -> Callable[[], None]:
    def run() -> None:
        # Examples write their outputs (e.g. trace.json) to the cwd.
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(path), run_name="__main__")
        finally:
            os.chdir(cwd)

    return run


def _workload(name: str) -> Callable[[], None]:
    def run() -> None:
        if str(PERF) not in sys.path:
            sys.path.insert(0, str(PERF))
        from workloads import SIZES, WORKLOADS

        workload = WORKLOADS[name]
        workload.setup(1, SIZES[name])
        workload.run(1, SIZES[name])

    return run


def targets(workdir: Path) -> Dict[str, Callable[[], None]]:
    """Every front door, by name, in the order the probe runs them."""
    doors: Dict[str, Callable[[], None]] = {
        "cli:list": _cli("list"),
        "cli:systems": _cli("systems"),
        "cli:run": _cli("run", "fig2"),
        "cli:run-json": _cli("run", "fig2", "--json"),
        "cli:claims": _cli("claims", "--json"),
        "cli:bench": _bench(workdir),
        "cli:trace-experiments": _trace_every_experiment,
    }
    for fmt in FORMATS:
        doors[f"cli:trace-{fmt}"] = _cli(
            "trace", "fig2", "--format", fmt, "--out", str(workdir / f"trace.{fmt}"))
    doors["cli:trace-stdout"] = _cli("trace", "fig2", "--format", "ascii")
    doors["cli:trace-attrib"] = _cli("trace", "fig2", "--attrib", "0")
    doors.update({
        "cli:postmortem": _cli("postmortem", "--out", str(workdir / "postmortem")),
        "cli:dash": _cli("dash", "--requests", "4", "--interval-ms", "200"),
        "cli:dash-cc": _cli("dash", "--system", "cc", "--requests", "4", "--json"),
        "cli:dash-serve": _cli("dash", "--serve", "--rate", "8", "--duration", "2"),
        "cli:cluster": _cli("cluster", "--rate", "2", "--duration", "4"),
        "cli:cluster-crash": _cli("cluster", "--rate", "4", "--duration", "4",
                                  "--fail-at", "1", "--json"),
        "cli:cluster-round-robin": _cli("cluster", "--policy", "round-robin",
                                        "--system", "cc", "--duration", "3"),
        "cli:cluster-affinity": _cli("cluster", "--policy", "affinity",
                                     "--system", "native", "--duration", "3"),
        "cli:serve": _cli("serve", "--rate", "12", "--duration", "2"),
        "cli:serve-crash": _cli("serve", "--rate", "12", "--duration", "2",
                                "--fail-at", "0.5", "--json"),
        "cli:serve-fifo": _cli("serve", "--rate", "20", "--duration", "2",
                               "--admission", "fifo", "--trace", "alpaca",
                               "--system", "cc"),
        "cli:disagg": _cli("disagg", "--rate", "6", "--duration", "3"),
        "cli:disagg-crash": _cli("disagg", "--rate", "6", "--duration", "3",
                                 "--fail-at", "1", "--json"),
        "cli:disagg-prefill-crash": _cli("disagg", "--rate", "6", "--duration", "3",
                                         "--fail-at", "1", "--fail-kind", "prefill",
                                         "--policy", "round-robin"),
        "cli:disagg-hw-pack": _cli("disagg", "--hw-pack", "b300-cc", "--duration", "2"),
    })
    for path in sorted(EXAMPLES.glob("*.py")):
        doors[f"example:{path.stem}"] = _example(path, workdir)
    for name in ("node", "serve", "disagg", "storm"):
        doors[f"perf:{name}"] = _workload(name)
    return doors


# -- the report -------------------------------------------------------------


def probe(only: List[str]) -> dict:
    functions, names = inventory()
    with tempfile.TemporaryDirectory() as tmp:
        doors = targets(Path(tmp))
        unknown = [name for name in only if name not in doors]
        if unknown:
            raise SystemExit(f"unknown target(s): {', '.join(unknown)}; "
                             f"valid targets: {', '.join(doors)}")
        selected = [name for name in doors if not only or name in only]
        with entered_code() as seen:
            for name in selected:
                start = time.perf_counter()
                doors[name]()
                print(f"probe: {name} ({time.perf_counter() - start:.1f} s)",
                      file=sys.stderr)

    real: Dict[str, str] = {}
    reached_keys = set()
    for code in seen:
        name = code.co_filename
        if name not in real:
            real[name] = str(Path(name).resolve()) if name.endswith(".py") else name
        key = (real[name], code.co_firstlineno)
        if key in functions:
            reached_keys.add(key)
    unreached = [
        dict(f, refs=names.get(f["qualname"].rpartition(".")[2], []))
        for key, f in functions.items() if key not in reached_keys
    ]
    unreached.sort(key=lambda f: (f["file"], f["line"]))
    reached = sorted(
        f"{functions[key]['module']}:{functions[key]['qualname']}" for key in reached_keys
    )
    return {
        "schema": SCHEMA,
        "targets": selected,
        "functions": len(functions),
        "reached": reached,
        "unreached": unreached,
        "unreached_lines": sum(f["lines"] for f in unreached),
    }


def render(report: dict) -> str:
    lines = [
        f"{len(report['unreached'])} of {report['functions']} functions never entered "
        f"({report['unreached_lines']} lines) over {len(report['targets'])} targets",
    ]
    for f in report["unreached"]:
        lines.append(f"{f['file']}:{f['line']}  {f['qualname']}  "
                     f"({f['lines']} lines, {len(f['refs'])} refs)")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    parser.add_argument("--only", nargs="+", default=[], metavar="TARGET",
                        help="run only these targets, e.g. cli:run or example:quickstart")
    args = parser.parse_args(argv)
    report = probe(args.only)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
