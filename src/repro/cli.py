"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — every available experiment with its paper artifact.
* ``run <experiment> [--scale quick|full] [--json]`` — run one
  experiment and print its table (the same rows EXPERIMENTS.md
  records), or the same rows as JSON.
* ``all [--scale ...]`` — run every experiment in order.
* ``systems`` — the compared system configurations.
* ``claims [--json]`` — verify the paper's headline claims.
* ``trace <experiment> [--format chrome|json|csv|ascii] [--out F]`` —
  re-run one experiment with telemetry recording on and export the
  unified trace (Chrome ``trace_event`` JSON loads directly into
  https://ui.perfetto.dev).
* ``cluster [--replicas N --policy P --fail-at T]`` — serve a
  multi-tenant Poisson workload on N confidential replicas behind the
  encrypted-session gateway and print the throughput/latency summary.
* ``serve [--rate RPS]`` — one OpenAI-style streaming run over the
  confidential cluster with per-request TTFT/TPOT and SLO accounting.
* ``disagg [--rate RPS --hw-pack PACK]`` — one disaggregated
  prefill/decode run with live encrypted KV-cache migration under a
  named hardware calibration.
* ``bench [--scale ...] [--out F] [--compare [BASE]]`` — the
  continuous benchmark harness: run the registry experiments its key
  metrics read (seed 1 unless ``--seed``), write a schema-versioned
  ``BENCH_<n>.json`` artifact, and/or diff two artifacts' key metrics
  (exit 1 on >5 % regression).
* ``postmortem [--out DIR]`` — run a deterministic crash-and-recover
  serving scenario with causal tracing, SLO burn-rate alerting and the
  fault flight recorder armed, then write the post-mortem bundle
  (``postmortem.json`` + Chrome ``trace.json`` + the critical-path
  table). Byte-identical under one ``--seed``.
* ``dash`` — live ASCII dashboard over a FlexGen offloading run:
  utilization bars, latency percentiles, speculation hit-rate,
  IV-audit status and the degradation mode, refreshed from simulated
  time. ``--serve`` drives an online serving run over the cluster
  instead, adding the TTFT/TPOT panel.

Registry experiments — the ``serve`` frontier and ``disagg`` campaign
included — run only through ``run``, ``all`` and ``trace``.

``run``, ``all``, ``trace``, ``cluster``, ``serve``, ``disagg``,
``postmortem``, ``bench`` and ``dash`` accept ``--seed N`` to override
every workload generator's RNG seed process-wide.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from typing import List, Optional

from .bench import EXPERIMENTS
from .bench.experiments import SCALES
from .core.config import CLUSTER_POLICIES, FLEET_SYSTEMS
from .hw import get_params, pack_names as hw_pack_names
from .sim import set_default_seed

__all__ = ["main"]

_SYSTEMS_HELP = """\
w/o CC      confidential computing disabled (native performance)
CC          NVIDIA CC as shipped: inline single-thread AES in the memcpy
CC-4t       CC with 4 crypto threads, no pipelining (Fig. 9 strawman)
PipeLLM     speculative pipelined encryption (this paper)
PipeLLM-0   PipeLLM with always-wrong sequence prediction (Fig. 10)
TEE-I/O     hypothetical inline hardware engine shared by N tenants (§8.3)
"""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PipeLLM (ASPLOS 2025) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None, metavar="N",
                      help="override every workload generator's RNG seed")
    scale = argparse.ArgumentParser(add_help=False)
    scale.add_argument("--scale", choices=tuple(SCALES), default="quick",
                       help="experiment run size")

    sub.add_parser("list", help="list available experiments")
    sub.add_parser("systems", help="describe the compared systems")
    claims = sub.add_parser("claims", parents=[scale],
                            help="verify the paper's headline claims")
    claims.add_argument("--json", action="store_true", help="emit outcomes as JSON")

    run = sub.add_parser("run", parents=[scale, seed], help="run one experiment")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run.add_argument("--json", action="store_true", help="emit the result rows as JSON")

    sub.add_parser("all", parents=[scale, seed], help="run every experiment")

    cluster = sub.add_parser(
        "cluster", parents=[seed],
        help="serve a multi-tenant workload on N confidential replicas",
    )
    cluster.add_argument("--replicas", type=int, default=2, metavar="N")
    cluster.add_argument("--policy", choices=CLUSTER_POLICIES,
                         default="least-loaded")
    cluster.add_argument("--system", choices=FLEET_SYSTEMS,
                         default="pipellm", help="per-replica runtime")
    cluster.add_argument("--rate", type=float, default=4.0, metavar="RPS",
                         help="Poisson arrival rate (requests/s)")
    cluster.add_argument("--duration", type=float, default=10.0, metavar="S",
                         help="arrival window (simulated seconds)")
    cluster.add_argument("--tenants", type=int, default=4, metavar="N")
    cluster.add_argument("--fail-at", type=float, default=None, metavar="T",
                         help="crash one replica at simulated time T")
    cluster.add_argument("--fail-replica", type=int, default=0, metavar="I")
    cluster.add_argument("--recover-after", type=float, default=5.0, metavar="S",
                         help="crash-to-recovery delay (0 = stays down)")
    cluster.add_argument("--json", action="store_true",
                         help="emit the run summary as JSON")

    serve = sub.add_parser(
        "serve", parents=[seed],
        help="one online-serving run over the confidential cluster",
    )
    serve.add_argument("--rate", type=float, default=4.0, metavar="RPS",
                       help="offered load (requests/s)")
    serve.add_argument("--duration", type=float, default=5.0, metavar="S",
                       help="arrival window (simulated seconds)")
    serve.add_argument("--system", choices=FLEET_SYSTEMS,
                       default="pipellm", help="per-replica runtime")
    serve.add_argument("--admission", choices=("slo", "fifo"), default="slo",
                       help="admission policy in front of the gateway")
    serve.add_argument("--trace", choices=("sharegpt", "alpaca"),
                       default="sharegpt", help="length distribution preset")
    serve.add_argument("--replicas", type=int, default=2, metavar="N")
    serve.add_argument("--tenants", type=int, default=4, metavar="N")
    serve.add_argument("--fail-at", type=float, default=None, metavar="T",
                       help="crash one replica at simulated time T")
    serve.add_argument("--recover-after", type=float, default=5.0, metavar="S")
    serve.add_argument("--json", action="store_true",
                       help="emit the run summary as JSON")

    disagg = sub.add_parser(
        "disagg", parents=[seed],
        help="one disaggregated prefill/decode run with live encrypted "
             "KV-cache migration",
    )
    disagg.add_argument("--rate", type=float, default=4.0, metavar="RPS",
                        help="offered load (requests/s)")
    disagg.add_argument("--duration", type=float, default=8.0, metavar="S",
                        help="arrival window (simulated seconds)")
    disagg.add_argument("--system", choices=FLEET_SYSTEMS,
                        default="pipellm", help="per-worker runtime")
    disagg.add_argument("--hw-pack", choices=hw_pack_names(),
                        default="h100-cc", metavar="PACK", dest="hw_pack",
                        help="named hardware calibration (h100-cc, "
                             "b300-cc, cpu-tee)")
    disagg.add_argument("--prefill", type=int, default=1, metavar="N",
                        help="prefill workers (0 = monolithic baseline)")
    disagg.add_argument("--decode", type=int, default=3, metavar="N",
                        help="decode workers")
    disagg.add_argument("--policy", choices=CLUSTER_POLICIES,
                        default="affinity", help="decode placement policy")
    disagg.add_argument("--tenants", type=int, default=4, metavar="N")
    disagg.add_argument("--fail-at", type=float, default=None, metavar="T",
                        help="crash one worker at simulated time T")
    disagg.add_argument("--fail-kind", choices=("prefill", "decode"),
                        default="decode")
    disagg.add_argument("--fail-index", type=int, default=0, metavar="I")
    disagg.add_argument("--recover-after", type=float, default=5.0,
                        metavar="S", help="crash-to-recovery delay "
                        "(0 = stays down)")
    disagg.add_argument("--json", action="store_true",
                        help="emit the run summary as JSON")

    trace = sub.add_parser(
        "trace", parents=[scale, seed],
        help="run one experiment with telemetry on and export the trace",
    )
    trace.add_argument("experiment", choices=sorted(EXPERIMENTS))
    trace.add_argument(
        "--format", choices=("chrome", "json", "csv", "ascii"), default="chrome",
        help="chrome: Perfetto-loadable trace_event JSON; json/csv: flat "
             "metric dumps; ascii: Gantt charts",
    )
    trace.add_argument("--out", default=None, metavar="FILE",
                       help="write to FILE instead of stdout")
    trace.add_argument("--max-events", type=int, default=None, metavar="N",
                       help="retain at most N typed events per machine")
    trace.add_argument("--attrib", type=int, default=None, metavar="REQ",
                       help="print the critical-path waterfall for request "
                            "id REQ (and the aggregate profile) instead of "
                            "exporting; REQ=-1 profiles every machine "
                            "without a per-request waterfall")

    pm = sub.add_parser(
        "postmortem", parents=[seed],
        help="deterministic crash scenario → flight-recorder bundle, "
             "Chrome trace and critical-path table",
    )
    pm.add_argument("--out", default=None, metavar="DIR",
                    help="bundle directory (omit to print the bundle JSON)")
    pm.add_argument("--replicas", type=int, default=2, metavar="N")
    pm.add_argument("--rate", type=float, default=18.0, metavar="RPS",
                    help="offered load (high enough to burn the SLO budget)")
    pm.add_argument("--duration", type=float, default=6.0, metavar="S",
                    help="arrival window (simulated seconds)")
    pm.add_argument("--fail-at", type=float, default=2.0, metavar="T",
                    help="crash replica 0 at simulated time T")
    pm.add_argument("--recover-after", type=float, default=2.0, metavar="S")
    pm.add_argument("--ring", type=int, default=256, metavar="N",
                    help="flight-recorder ring size per machine")

    bench = sub.add_parser(
        "bench", parents=[scale],
        help="continuous benchmark harness with regression gating",
    )
    # Its own action: a default set on the shared parent's --seed would
    # reach every subcommand.
    bench.add_argument("--seed", type=int, default=1, metavar="N",
                       help="override every workload generator's RNG seed "
                            "(default 1)")
    bench.add_argument("--out", default=None, metavar="FILE",
                       help="artifact path (default: next BENCH_<n>.json "
                            "under --dir)")
    bench.add_argument("--dir", default=".", metavar="DIR",
                       help="directory holding BENCH_*.json artifacts")
    bench.add_argument("--compare", nargs="?", const="latest", default=None,
                       metavar="BASELINE",
                       help="after the run, diff against BASELINE (default: "
                            "the latest prior artifact); exit 1 on regression")
    bench.add_argument("--candidate", default=None, metavar="FILE",
                       help="compare FILE instead of running the suite")
    bench.add_argument("--tolerance", type=float, default=5.0, metavar="PCT",
                       help="regression tolerance in percent (default 5)")
    bench.add_argument("--warn-only", action="store_true",
                       help="report regressions but exit 0 (PR soft gate)")
    bench.add_argument("--json", action="store_true",
                       help="emit the comparison (or artifact) as JSON")

    dash = sub.add_parser(
        "dash", parents=[seed],
        help="live ASCII dashboard over a FlexGen offloading run "
             "(or, with --serve, an online-serving run)",
    )
    dash.add_argument("--system", choices=("pipellm", "cc"), default="pipellm")
    dash.add_argument("--serve", action="store_true",
                      help="dashboard an online-serving run over the "
                           "confidential cluster (TTFT/TPOT line)")
    dash.add_argument("--rate", type=float, default=10.0, metavar="RPS",
                      help="offered load for --serve")
    dash.add_argument("--duration", type=float, default=4.0, metavar="S",
                      help="arrival window for --serve (simulated seconds)")
    dash.add_argument("--requests", type=int, default=12, metavar="N")
    dash.add_argument("--interval-ms", type=float, default=50.0,
                      help="frame period in simulated milliseconds")
    dash.add_argument("--refresh-s", type=float, default=0.0, metavar="S",
                      help="wall-clock pause between frames (watchable pace)")
    dash.add_argument("--json", action="store_true",
                      help="print only the final summary as JSON")
    return parser


def _run_one(name: str, scale: str, out, as_json: bool = False) -> None:
    start = time.time()
    result = EXPERIMENTS[name](scale)
    if as_json:
        print(json.dumps(result.to_dict(), indent=2), file=out)
    else:
        print(result.render(), file=out)
        print(f"[{name}: {time.time() - start:.1f}s]", file=out)


def _run_trace(args, out) -> int:
    from .telemetry import ascii_gantt, chrome_trace, flat_metrics, metrics_csv, recording

    with recording(max_events_per_hub=args.max_events) as session:
        EXPERIMENTS[args.experiment](args.scale)
    if args.attrib is not None:
        return _print_attrib(session, args.attrib, out)
    if args.format == "chrome":
        text = json.dumps(chrome_trace(session.hubs), separators=(",", ":"))
    elif args.format == "json":
        text = json.dumps(flat_metrics(session.hubs), indent=2)
    elif args.format == "csv":
        text = metrics_csv(session.hubs)
    else:
        text = ascii_gantt(session.hubs)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
        print(f"wrote {args.format} trace for {args.experiment} "
              f"({len(session.hubs)} machines) to {args.out}", file=out)
    else:
        print(text, file=out)
    return 0


def _print_attrib(session, request_id: int, out) -> int:
    """``trace --attrib``: per-request waterfalls via the profiler."""
    from .observatory import profile_hub, render_profile, render_waterfall

    found = False
    for hub in session.hubs:
        profile = profile_hub(hub)
        if not profile.requests:
            continue
        print(render_profile(profile), file=out)
        if request_id >= 0:
            attribution = profile.find(request_id)
            if attribution is not None:
                print(render_waterfall(attribution), file=out)
                found = True
        print(file=out)
    if request_id >= 0 and not found:
        print(f"request id {request_id} not found in any machine's records",
              file=out)
        return 1
    return 0


def _run_postmortem(args, out) -> int:
    """``postmortem``: crash scenario → deterministic bundle on disk."""
    from .core import ClusterConfig
    from .serve import LoadSpec, run_serve
    from .telemetry import recording
    from .tracing import (
        AlertEngine,
        BurnRateRule,
        FlightRecorder,
        default_event_rules,
        extract_traces,
        postmortem_bundle,
        render_critical_path_table,
        write_postmortem,
    )

    seed = args.seed if args.seed is not None else 42
    config = ClusterConfig(
        replicas=args.replicas,
        fail_at=args.fail_at,
        fail_replica=0,
        recover_after=args.recover_after,
        seed=seed,
    )
    load = LoadSpec(rate=args.rate, duration=args.duration, seed=seed)
    recorder = FlightRecorder(ring_size=args.ring)
    engine = AlertEngine(
        slo_rules=(
            BurnRateRule(
                "slo-burn", "slo", budget=0.05,
                long_window=max(1.0, args.duration / 2),
                short_window=max(0.25, args.duration / 8),
                threshold=2.0, min_samples=8,
                cooldown=max(1.0, args.duration / 2),
            ),
        ),
        event_rules=default_event_rules(window=max(0.5, args.duration / 4)),
    )
    with recording() as session:
        session.watch(engine.watch)
        session.watch(recorder.watch)
        result = run_serve(config, load, alerts=engine, seed=seed)
    hubs = session.hubs
    (collector,) = session.collectors
    end_time = max(
        (event.time for hub in hubs for event in hub.events),
        default=load.duration,
    )
    if not recorder.snapshots:
        recorder.snapshot("end-of-run", end_time)
    paths = extract_traces(collector)
    bundle = postmortem_bundle(
        recorder=recorder,
        paths=paths,
        alerts=engine,
        meta={
            "command": "postmortem",
            "seed": seed,
            "replicas": args.replicas,
            "rate": args.rate,
            "duration": args.duration,
            "fail_at": args.fail_at,
            "recover_after": args.recover_after,
            "offered": result.offered,
            "completed": result.completed,
            "shed": result.shed,
            "failovers": result.failovers,
            "crashes": result.crashes,
        },
    )
    if args.out:
        written = write_postmortem(args.out, bundle, hubs=hubs, paths=paths)
        for name, path in sorted(written.items()):
            print(f"wrote {name}: {path}", file=out)
        print(
            f"postmortem: {len(recorder.snapshots)} snapshots, "
            f"{len(engine.alerts)} alerts, "
            f"{bundle['closure']['traces_checked']} traces "
            f"({len(bundle['closure']['problems'])} closure problems)",
            file=out,
        )
    else:
        print(json.dumps(bundle, indent=2, sort_keys=True), file=out)
    print(render_critical_path_table(paths), file=out)
    return 1 if bundle["closure"]["problems"] else 0


def _run_bench(args, out) -> int:
    from .bench.continuous import (
        compare_artifacts,
        find_latest_artifact,
        load_artifact,
        next_artifact_path,
        render_comparison,
        run_suite,
    )
    from pathlib import Path

    directory = Path(args.dir)
    candidate_path = None
    if args.candidate is not None:
        candidate_path = Path(args.candidate)
        candidate = load_artifact(candidate_path)
    else:
        candidate = run_suite(args.scale, clock=time.time)
        candidate_path = Path(args.out) if args.out else next_artifact_path(directory)
        candidate_path.write_text(
            json.dumps(candidate, indent=2, sort_keys=True) + "\n"
        )
        print(
            f"wrote {candidate_path} (scale={candidate['scale']} "
            f"seed={candidate['seed']} "
            f"wall={candidate['key_metrics']['wall_clock_s']['value']:.1f}s "
            f"verdicts: cc={candidate['verdicts']['offload-cc']} "
            f"pipellm={candidate['verdicts']['offload-pipellm']})",
            file=out,
        )

    if args.compare is None:
        if args.json and args.candidate is not None:
            print(json.dumps(candidate, indent=2, sort_keys=True), file=out)
        return 0

    if args.compare == "latest":
        own = None
        if candidate_path is not None:
            from .bench.continuous import artifact_index
            own = artifact_index(candidate_path)
        baseline_path = find_latest_artifact(directory, below=own)
        if baseline_path is None or baseline_path == candidate_path:
            print("no prior BENCH_*.json artifact to compare against", file=out)
            return 0
    else:
        baseline_path = Path(args.compare)
    baseline = load_artifact(baseline_path)
    diff = compare_artifacts(baseline, candidate, tolerance=args.tolerance / 100.0)
    if args.json:
        print(json.dumps(diff, indent=2, sort_keys=True), file=out)
    else:
        print(f"compare {baseline_path.name} -> {candidate_path.name}:", file=out)
        print(render_comparison(diff), file=out)
    if diff["regressions"] and not args.warn_only:
        return 1
    return 0


def _run_dash(args, out) -> int:
    from .observatory.dashboard import run_flexgen_dashboard, run_serve_dashboard

    if args.serve:
        run = run_serve_dashboard(
            rate=args.rate,
            duration=args.duration,
            system=args.system,
            interval_s=args.interval_ms / 1e3,
            render=not args.json,
            sink=None if args.json else (lambda frame: print(frame + "\n", file=out)),
            refresh_wall_s=args.refresh_s,
            seed=args.seed if args.seed is not None else 1,
        )
        print(json.dumps(run.summary, indent=2, sort_keys=True), file=out)
        return 0

    if args.system == "pipellm":
        from .bench.systems import pipellm

        system = pipellm(8, 2)
    else:
        from .bench.systems import CC as system  # noqa: N811

    run = run_flexgen_dashboard(
        system=system,
        n_requests=args.requests,
        interval_s=args.interval_ms / 1e3,
        render=not args.json,
        sink=None if args.json else (lambda frame: print(frame + "\n", file=out)),
        refresh_wall_s=args.refresh_s,
        seed=args.seed if args.seed is not None else 1,
    )
    print(json.dumps(run.summary, indent=2, sort_keys=True), file=out)
    return 0


@contextlib.contextmanager
def _usage_errors(parser: argparse.ArgumentParser):
    """Turn a ``ValueError`` raised while building a run from its
    options into a usage error (exit 2)."""
    try:
        yield
    except ValueError as exc:
        parser.error(str(exc))


def _format(value) -> str:
    if isinstance(value, dict):
        return " ".join(f"{k}={_format(v)}" for k, v in value.items()) or "none"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _print_summary(command: str, header: str, result, started: float, out,
                   as_json: bool) -> int:
    """A single fleet run's ``as_dict()``: as JSON, or under ``header``
    with one aligned row per key. A run whose ledger does not close
    raises instead (:meth:`~repro.cluster.fleet.FleetResult.check`)."""
    result.check(command)
    summary = result.as_dict()
    if as_json:
        print(json.dumps(summary, indent=2), file=out)
        return 0
    print(f"{command}: {header}", file=out)
    width = max(map(len, summary))
    for key, value in summary.items():
        print(f"  {key.ljust(width)}  {_format(value)}", file=out)
    print(f"[{command}: {time.time() - started:.1f}s]", file=out)
    return 0


def _run_cluster(args, out, parser) -> int:
    from .cluster import Cluster
    from .core import ClusterConfig

    started = time.time()
    with _usage_errors(parser):
        cluster = Cluster(ClusterConfig(
            replicas=args.replicas,
            policy=args.policy,
            system=args.system,
            fail_at=args.fail_at,
            fail_replica=args.fail_replica,
            recover_after=args.recover_after,
        ))
        requests = cluster.workload(args.rate, args.duration, tenants=args.tenants)
    return _print_summary(
        "cluster", f"rate={args.rate:g} req/s, {args.tenants} tenants",
        cluster.run(requests), started, out, args.json,
    )


def _run_disagg(args, out, parser) -> int:
    from .core import DisaggConfig
    from .disagg import DisaggCluster

    started = time.time()
    with _usage_errors(parser):
        cluster = DisaggCluster(DisaggConfig(
            prefill_workers=args.prefill,
            decode_workers=args.decode,
            system=args.system,
            decode_policy=args.policy,
            fail_at=args.fail_at,
            fail_kind=args.fail_kind,
            fail_index=args.fail_index,
            recover_after=args.recover_after,
        ), params=get_params(args.hw_pack))
        requests = cluster.workload(args.rate, args.duration, tenants=args.tenants)
    return _print_summary(
        "disagg",
        f"pack={args.hw_pack}, rate={args.rate:g} req/s, "
        f"{args.tenants} tenants",
        cluster.run(requests), started, out, args.json,
    )


def _run_serve(args, out, parser) -> int:
    from .bench.serve import serve_config
    from .serve import LoadSpec, run_serve
    from .workloads import ALPACA_SERVE, SHAREGPT_SERVE

    started = time.time()
    with _usage_errors(parser):
        config = serve_config(
            args.system, replicas=args.replicas, fail_at=args.fail_at,
            recover_after=args.recover_after,
        )
        load = LoadSpec(
            trace=SHAREGPT_SERVE if args.trace == "sharegpt" else ALPACA_SERVE,
            rate=args.rate, duration=args.duration, tenants=args.tenants,
        )
    return _print_summary(
        "serve", f"{args.replicas} replicas, {args.tenants} tenants",
        run_serve(config, load, admission=args.admission), started, out,
        args.json,
    )


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """Run one subcommand; ``--seed`` holds only for this call."""
    out = out or sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "max_events", None) is not None and args.max_events < 0:
        parser.error("--max-events must be >= 0")
    if not getattr(args, "interval_ms", 1.0) > 0:
        parser.error("--interval-ms must be > 0")
    seed = getattr(args, "seed", None)
    previous = set_default_seed(seed) if seed is not None else None
    try:
        return _dispatch(args, out, parser)
    finally:
        if seed is not None:
            set_default_seed(previous)


def _dispatch(args, out, parser: argparse.ArgumentParser) -> int:
    if args.command == "list":
        for name, fn in EXPERIMENTS.items():
            summary = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{name:<14} {summary}", file=out)
        return 0
    if args.command == "systems":
        print(_SYSTEMS_HELP, end="", file=out)
        return 0
    if args.command == "claims":
        from .bench.claims import render_outcomes, verify_claims

        outcomes = verify_claims(args.scale)
        if args.json:
            print(json.dumps([o.as_dict() for o in outcomes], indent=2), file=out)
        else:
            print(render_outcomes(outcomes), file=out)
        return 0 if all(o.passed for o in outcomes) else 1
    if args.command == "run":
        _run_one(args.experiment, args.scale, out, as_json=args.json)
        return 0
    if args.command == "all":
        for name in EXPERIMENTS:
            _run_one(name, args.scale, out)
            print(file=out)
        return 0
    if args.command == "trace":
        return _run_trace(args, out)
    if args.command == "cluster":
        return _run_cluster(args, out, parser)
    if args.command == "serve":
        return _run_serve(args, out, parser)
    if args.command == "disagg":
        return _run_disagg(args, out, parser)
    if args.command == "postmortem":
        return _run_postmortem(args, out)
    if args.command == "bench":
        return _run_bench(args, out)
    if args.command == "dash":
        return _run_dash(args, out)
    return 2


if __name__ == "__main__":
    sys.exit(main())
