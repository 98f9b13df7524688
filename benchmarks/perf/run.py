#!/usr/bin/env python3
"""Host-time benchmark of the PipeLLM simulator.

Run from the repository root::

    python3 benchmarks/perf/run.py --seed 1 [--workload NAME] [--trace [0|1]]
                                   [--out FILE] [--seconds S]

Every workload runs in its own fresh child process, one after another.
A child first runs the workload once on the traffic of ``--seed`` (the
warm-up: it fills the memo caches, and its simulated results are
checked), then times ``ITERATIONS`` back-to-back iterations on the
workload's reference traffic. Without ``--trace`` the end-to-end
metrics are printed: ``host_wall_s`` (median host seconds per timed
iteration), ``setup_s`` (median over ``SETUP_PROCESSES`` fresh
processes of ``import repro`` plus building the workload's machines
and fleets) and ``host_peak_rss_mb``. With ``--trace`` the untraced
iterations are followed by ``TRACED_ITERATIONS`` with every layer's
entry points wrapped (``layers.py``), and the per-layer metrics are
printed instead; the spans of the traced run are written as a Chrome
trace under ``.benchmarks/perf/``.

``--seconds`` is accepted because benchmark harnesses pass the
``run_seconds`` of ``BENCHMARK.json`` with it. It does not change the
run: the iteration counts are fixed, so a faster change is timed on as
many samples as its parent.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code
is non-zero when any check fails or the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".benchmarks" / "perf"
GOLDEN = HERE / "golden.json"

#: Timing runs on this seed's traffic whatever ``--seed`` is: the
#: simulator's host cost swings with the arrival schedule by far more
#: than any bound a timing metric could keep (see README.md).
REFERENCE_SEED = 1
#: Timed iterations per run; ``host_wall_s`` is their median.
ITERATIONS = 7
#: Traced iterations of a ``--trace`` run (after the untraced ones).
#: The per-layer metrics carry no bound, and traced iterations run
#: slower, so fewer keep a traced run as long as an untraced one.
TRACED_ITERATIONS = 3
#: Fresh processes timed for ``setup_s`` (median reported).
SETUP_PROCESSES = 20
#: Spans kept for the Chrome trace of one traced iteration.
CHROME_SPANS = 20000
CHILD_TIMEOUT_S = 170

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("host_wall_s", "s"),
    ("setup_s", "s"),
    ("host_peak_rss_mb", "MB"),
)

HEADLINE_UNITS = {
    "sim_tok_s": "tok/s",
    "sim_speedup_vs_cc": "x",
    "sim_tp_recovery": "ratio",
    "sim_goodput_rps": "req/s",
    "sim_ttft_p50_s": "s",
    "sim_ttft_p95_s": "s",
    "sim_attainment": "ratio",
    "sim_migration_us_per_chunk": "us",
}


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


# -- child: one workload in a fresh process ------------------------------


def _load_golden() -> Dict[str, Dict[str, str]]:
    if not GOLDEN.exists():
        return {}
    return json.loads(GOLDEN.read_text())["digests"]


class _Run(W.Checks):
    """Operation counts and failed checks of one child process."""

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name
        self.attempted = 0
        self.failed = 0

    def iterate(self, workload, seed: int, size, label: str):
        """One iteration; returns ``(outcome or None, seconds)``."""
        start = time.perf_counter()
        try:
            outcome = workload.run(seed, size)
        except Exception as exc:  # a raised invariant (e.g. IV reuse) fails the run
            seconds = time.perf_counter() - start
            self.attempted += 1
            self.failed += 1
            self.failures.append(f"{label}: raised {type(exc).__name__}: {exc}")
            return None, seconds
        seconds = time.perf_counter() - start
        self.attempted += outcome.attempted
        if outcome.failures:
            self.failed += outcome.attempted
            self.failures.extend(f"{label}: {name}" for name in outcome.failures)
        else:
            self.failed += outcome.failed
        return outcome, seconds


def _timed_loop(run: _Run, workload, size, iterations: int, label: str,
                digests: List[str], tracer=None, per_iteration=None) -> List[float]:
    """``iterations`` back-to-back iterations on the reference traffic."""
    walls: List[float] = []
    for index in range(iterations):
        if tracer is not None:
            tracer.begin_iteration(index)
        try:
            outcome, wall = run.iterate(workload, REFERENCE_SEED, size, f"{label} {index}")
        finally:
            if tracer is not None:
                tracer.end_iteration()
        if outcome is None:
            break
        walls.append(wall)
        digests.append(W.digest(outcome.sim))
        if per_iteration is not None:
            per_iteration(outcome)
    return walls


def child_measure(name: str, seed: int, trace: bool, size=None,
                  iterations: int = ITERATIONS,
                  traced_iterations: int = TRACED_ITERATIONS) -> Dict[str, Any]:
    """Warm-up on ``seed``'s traffic, then the timed (and traced) loops.

    ``size`` defaults to the workload's full size; golden digests only
    apply at full size.
    """
    workload = W.WORKLOADS[name]
    full = W.SIZES[name]
    size = full if size is None else size
    golden = _load_golden().get(name, {}) if size == full else {}
    run = _Run(name)
    result: Dict[str, Any] = {"workload": name, "seed": seed,
                              "reference_seed": REFERENCE_SEED, "trace": int(trace)}

    seed_outcome, seed_wall = run.iterate(workload, seed, size, f"seed {seed}")
    result["seed_iteration_s"] = seed_wall
    if seed_outcome is not None:
        result["seed_digest"] = W.digest(seed_outcome.sim)
        result["headline"] = seed_outcome.headline
        expected = golden.get(str(seed))
        run.require(f"seed {seed}: digest matches golden.json",
                    expected is None or expected == result["seed_digest"])

    digests: List[str] = []
    untraced = _timed_loop(run, workload, size, iterations, "timed", digests)
    result["iterations"] = len(untraced)
    result["host_wall_samples"] = untraced
    result["host_wall_s"] = _median(untraced)
    if digests:
        result["reference_digest"] = digests[0]
        run.require("timed iterations: identical digests", len(set(digests)) == 1)
        expected = golden.get(str(REFERENCE_SEED))
        run.require("timed iterations: digest matches golden.json",
                    expected is None or expected == digests[0])

    if trace and not run.failures:
        result.update(_traced(run, workload, size, traced_iterations, digests[0]))
        result["layers"]["trace_overhead_pct"] = 100.0 * (
            result["traced_wall_s"] / result["host_wall_s"] - 1.0
        )

    result["host_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"] = max(1, run.attempted)
    result["failed"] = run.failed if not run.failures else max(1, run.attempted)
    result["failures"] = run.failures
    return result


def _traced(run: _Run, workload, size, iterations: int,
            untraced_digest: str) -> Dict[str, Any]:
    import layers

    tracer = layers.Tracer(keep_spans=CHROME_SPANS)
    samples: List[Dict[str, float]] = []
    table: List[Dict[str, int]] = []
    digests: List[str] = []

    def per_iteration(outcome) -> None:
        samples.append(tracer.metrics(outcome.layer_sim))
        table.append({"root_ns": tracer.root_ns, **tracer.layer_self_ns()})

    tracer.install()
    try:
        walls = _timed_loop(run, workload, size, iterations, "traced", digests,
                            tracer=tracer, per_iteration=per_iteration)
    finally:
        tracer.uninstall()
    run.require("traced iterations: digest equals the untraced one",
                bool(digests) and set(digests) == {untraced_digest})

    metrics: Dict[str, float] = {}
    for key in samples[-1] if samples else {}:
        values = [s[key] for s in samples]
        timed = key.endswith("host_s") or key == "sim.host_us_per_event"
        metrics[key] = _median(values) if timed else values[-1]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    chrome = OUT_DIR / f"trace-{run.name}.json"
    tracer.write_chrome_trace(chrome, {"workload": run.name, "seed": REFERENCE_SEED})
    layers_ns = sorted({k for row in table for k in row if k != "root_ns"})
    return {
        "traced_iterations": len(walls),
        "traced_wall_s": _median(walls),
        "layers": metrics,
        "layer_self_s": {k: _median([row.get(k, 0) / 1e9 for row in table]) for k in layers_ns},
        "root_s": _median([row["root_ns"] / 1e9 for row in table]),
        "layer_calls": tracer.layer_calls(),
        "missing_targets": [f"{t} ({why})" for t, why in tracer.missing],
        "chrome_trace": str(chrome.relative_to(ROOT)),
    }


def child_setup(name: str, seed: int, size=None) -> float:
    start = time.perf_counter()
    import repro  # noqa: F401  (the import is part of what setup_s measures)

    W.WORKLOADS[name].setup(seed, W.SIZES[name] if size is None else size)
    return time.perf_counter() - start


# -- parent: orchestration and reporting --------------------------------


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(HERE), str(SRC), env.get("PYTHONPATH", "")) if p
    )
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    # The default (fast) profile is what is measured.
    env.pop("REPRO_FASTPATH", None)
    return env


def _child(args: List[str]) -> Optional[str]:
    """Run one child; its last stdout line, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=str(ROOT), env=_child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        return None
    return lines[-1]


def measure_workload(name: str, seed: int, trace: bool) -> Dict[str, Any]:
    line = _child(["--child", "measure", "--workload", name, "--seed", str(seed),
                   "--trace", str(int(trace))])
    if line is None:
        return {"workload": name, "seed": seed, "attempted": 1, "failed": 1,
                "failures": ["measurement process failed"]}
    result = json.loads(line)
    if not trace:
        setups = []
        for _ in range(SETUP_PROCESSES):
            out = _child(["--child", "setup", "--workload", name, "--seed", str(seed)])
            if out is None:
                result["failures"].append("setup process failed")
                break
            setups.append(float(out))
        result["setup_samples"] = setups
        result["setup_s"] = _median(setups)
    return result


def _metrics(result: Dict[str, Any], trace: bool) -> Dict[str, Dict[str, Any]]:
    if trace:
        import layers

        values = result.get("layers", {})
        return {name: {"value": values.get(name, 0.0), "unit": unit}
                for name, unit in layers.LAYER_METRICS}
    return {name: {"value": result.get(name, 0.0), "unit": unit} for name, unit in END_TO_END}


def _quartile_note(samples: List[float]) -> str:
    if len(samples) < 2:
        return f"n={len(samples)}"
    q = statistics.quantiles(samples, n=4)
    return f"n={len(samples)}, IQR {q[0]:.4f}-{q[2]:.4f}"


def report(result: Dict[str, Any], trace: bool) -> None:
    name = result["workload"]
    print(f"== {name}: seed {result['seed']} "
          f"(timed traffic: seed {result.get('reference_seed', REFERENCE_SEED)}) ==")
    metrics = _metrics(result, trace)
    if not trace:
        notes = {
            "host_wall_s": _quartile_note(result.get("host_wall_samples", [])),
            "setup_s": _quartile_note(result.get("setup_samples", [])) + " processes",
            "host_peak_rss_mb": "child process ru_maxrss",
        }
        for metric, entry in metrics.items():
            print(f"  {metric:<30} {entry['value']:>14.4f} {entry['unit']:<6} {notes[metric]}")
    else:
        _report_layers(result)
        for metric, entry in metrics.items():
            print(f"  {metric:<34} {entry['value']:>16.6g} {entry['unit']}")
    for metric, value in sorted(result.get("headline", {}).items()):
        unit = HEADLINE_UNITS.get(metric, "")
        print(f"  {metric:<30} {value:>14.6g} {unit:<6} simulated, seed {result['seed']}")
    print(f"  digest seed {result['seed']}: {result.get('seed_digest', '-')}")
    print(f"  digest timed traffic: {result.get('reference_digest', '-')}")
    print(f"  operations: {result.get('attempted', 0)} attempted, {result.get('failed', 0)} failed")
    for missing in result.get("missing_targets", []):
        print(f"  wrapper target not found: {missing}")
    failures = result.get("failures", [])
    print("  checks: all passed" if not failures else "  checks FAILED:")
    for failure in failures:
        print(f"    - {failure}")


def _report_layers(result: Dict[str, Any]) -> None:
    root = result.get("root_s", 0.0) or 1.0
    print(f"  traced {result.get('traced_iterations', 0)} iterations, "
          f"{result.get('traced_wall_s', 0.0):.3f} s each vs "
          f"{result.get('host_wall_s', 0.0):.3f} s untraced; "
          f"Chrome trace: {result.get('chrome_trace', '-')}")
    print(f"  {'layer':<18} {'self s/iter':>12} {'share':>7} {'calls':>10}")
    calls = result.get("layer_calls", {})
    for layer, seconds in sorted(result.get("layer_self_s", {}).items(),
                                 key=lambda kv: -kv[1]):
        print(f"  {layer:<18} {seconds:>12.4f} {100 * seconds / root:>6.1f}% "
              f"{calls.get(layer, 0):>10}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="accepted for benchmark harnesses; the iteration counts are fixed")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", help="write the full results as JSON to this file")
    parser.add_argument("--child", choices=("measure", "setup"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the simulator's sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.seed < 0:
        parser.error("--seed must be >= 0")
    names = list(W.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in W.WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from {sorted(W.WORKLOADS)} or all")

    if args.child == "measure":
        print(json.dumps(child_measure(names[0], args.seed, bool(args.trace))))
        return 0
    if args.child == "setup":
        print(repr(child_setup(names[0], args.seed)))
        return 0

    results = {}
    for name in names:
        results[name] = result = measure_workload(name, args.seed, bool(args.trace))
        report(result, bool(args.trace))
    if args.out:
        Path(args.out).write_text(json.dumps({"workloads": results}, indent=1))

    correct = all(not r.get("failures") for r in results.values())
    if len(names) == 1:
        metrics = _metrics(results[names[0]], bool(args.trace))
    else:
        metrics = {f"{n}/{m}": entry for n, r in results.items()
                   for m, entry in _metrics(r, bool(args.trace)).items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(int(r.get("attempted", 1)) for r in results.values()),
        "failed": sum(int(r.get("failed", 1)) for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
