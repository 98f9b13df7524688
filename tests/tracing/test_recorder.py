"""FlightRecorder rings/triggers, post-mortem bundles, determinism."""

import io
import json
from pathlib import Path

import pytest

from repro.sim import Simulator
from repro.telemetry.events import (
    AlertEvent,
    ClusterEvent,
    RecoveryEvent,
    TransferEvent,
)
from repro.telemetry.hub import TelemetryHub
from repro.tracing import (
    AlertEngine,
    FlightRecorder,
    TraceCollector,
    extract_traces,
    postmortem_bundle,
    render_critical_path_table,
    write_postmortem,
)


def _hub(label="m0"):
    hub = TelemetryHub(Simulator(), label=label)
    hub.enabled = True
    return hub


def test_ring_is_bounded_per_machine():
    recorder = FlightRecorder(ring_size=4)
    hub = _hub()
    recorder.watch(hub)
    for i in range(10):
        hub.emit(TransferEvent(time=i * 0.1, direction="h2d", size=1, addr=i))
    ring = recorder.rings["m0"]
    assert len(ring) == 4
    assert ring[0].addr == 6  # oldest events evicted first


def test_ring_size_must_be_positive():
    with pytest.raises(ValueError):
        FlightRecorder(ring_size=0)


@pytest.mark.parametrize("event,reason", [
    (ClusterEvent(time=1.0, action="crash", replica=2), "crash:replica-2"),
    (RecoveryEvent(time=1.0, action="auth-recover", request_id=3),
     "auth-failure"),
    (AlertEvent(time=1.0, rule="slo-burn", severity="page",
                burn_rate=4.0, window_s=2.0), "alert:slo-burn"),
])
def test_snapshot_triggers(event, reason):
    recorder = FlightRecorder(ring_size=8)
    hub = _hub()
    recorder.watch(hub)
    hub.emit(TransferEvent(time=0.5, direction="h2d", size=1, addr=0))
    hub.emit(event)
    assert len(recorder.snapshots) == 1
    snap = recorder.snapshots[0]
    assert snap["reason"] == reason
    assert snap["time"] == 1.0
    # The ring contents as of the trigger, including the trigger itself.
    assert [row["time"] for row in snap["rings"]["m0"]] == [0.5, 1.0]


def test_benign_events_do_not_trigger():
    recorder = FlightRecorder(ring_size=8)
    hub = _hub()
    recorder.watch(hub)
    hub.emit(TransferEvent(time=0.1, direction="h2d", size=1, addr=0))
    hub.emit(RecoveryEvent(time=0.2, action="retry", request_id=0))
    hub.emit(ClusterEvent(time=0.3, action="admit", replica=0))
    assert recorder.snapshots == []


def test_snapshot_covers_every_watched_machine():
    recorder = FlightRecorder(ring_size=8)
    a, b = _hub("a"), _hub("b")
    recorder.watch(a)
    recorder.watch(b)
    b.emit(TransferEvent(time=0.1, direction="d2h", size=1, addr=0))
    a.emit(ClusterEvent(time=0.2, action="crash", replica=0))
    snap = recorder.snapshots[0]
    assert sorted(snap["rings"]) == ["a", "b"]
    assert len(snap["rings"]["b"]) == 1


def test_bundle_schema_and_sections():
    col = TraceCollector()
    root = col.start_trace("t-1", "request", "request", "gw", 0.0)
    col.add(root, "encrypt", "encrypt", "cpu", 0.0, 0.6)
    col.end(root, 1.0)
    recorder = FlightRecorder(ring_size=4)
    hub = _hub()
    recorder.watch(hub)
    hub.emit(ClusterEvent(time=0.9, action="crash", replica=0))
    engine = AlertEngine()
    engine._fire("slo-burn", "page", 0.9, 4.0, 2.0, "test")
    bundle = postmortem_bundle(
        recorder=recorder, paths=extract_traces(col), alerts=engine,
        meta={"seed": 7},
    )
    assert bundle["schema"] == "repro.postmortem/v1"
    assert bundle["meta"] == {"seed": 7}
    assert len(bundle["snapshots"]) == 1
    assert bundle["alerts"][0]["rule"] == "slo-burn"
    assert bundle["traces"][0]["trace_id"] == "t-1"
    assert bundle["fleet"]["verdict"] == "encryption-bound"
    assert bundle["closure"] == {"traces_checked": 1, "problems": []}
    json.dumps(bundle)  # must be JSON-serializable as-is


def test_empty_bundle_still_a_bundle():
    bundle = postmortem_bundle()
    assert bundle["schema"] == "repro.postmortem/v1"
    assert bundle["snapshots"] == [] and bundle["traces"] == []
    assert bundle["closure"]["traces_checked"] == 0


def test_bundle_reports_closure_problems():
    col = TraceCollector()
    col.start_trace("t-1", "request", "request", "gw", 0.0)  # dangling
    bundle = postmortem_bundle(paths=extract_traces(col))
    assert bundle["closure"]["traces_checked"] == 1
    assert any("dangling" in p for p in bundle["closure"]["problems"])


def test_render_table_marks_broken_traces():
    col = TraceCollector()
    root = col.start_trace("ok-trace", "request", "request", "gw", 0.0)
    col.end(root, 1.0)
    col.start_trace("bad-trace", "request", "request", "gw", 0.0)
    table = render_critical_path_table(extract_traces(col))
    assert "ok-trace" in table
    assert "BROKEN" in table
    assert render_critical_path_table([]).endswith(
        "(no traces collected)"
    )


def test_write_postmortem_files(tmp_path):
    col = TraceCollector()
    root = col.start_trace("t-1", "request", "request", "gw", 0.0)
    col.end(root, 1.0)
    paths = extract_traces(col)
    written = write_postmortem(
        tmp_path, postmortem_bundle(paths=paths), hubs=[_hub()], paths=paths,
    )
    assert sorted(written) == ["critical_paths", "postmortem", "trace"]
    doc = json.loads(Path(written["postmortem"]).read_text())
    assert doc["schema"] == "repro.postmortem/v1"
    trace_doc = json.loads(Path(written["trace"]).read_text())
    assert "traceEvents" in trace_doc


def test_cli_postmortem_byte_identical_under_one_seed(tmp_path):
    """The acceptance check: two `repro postmortem` runs at one seed
    write byte-identical bundles, traces and tables."""
    from repro import cli

    dirs = [tmp_path / "a", tmp_path / "b"]
    for outdir in dirs:
        code = cli.main(
            [
                "postmortem", "--out", str(outdir), "--seed", "7",
                "--rate", "10", "--duration", "3", "--fail-at", "1.0",
            ],
            out=io.StringIO(),
        )
        assert code == 0, "closure problems must not appear"
    for name in ("postmortem.json", "trace.json", "critical_paths.txt"):
        a = (dirs[0] / name).read_bytes()
        b = (dirs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical-seed runs"
    bundle = json.loads((dirs[0] / "postmortem.json").read_text())
    # The scripted scenario crashes replica 0: the crash snapshot and
    # closed traces must be present.
    assert any(
        s["reason"].startswith("crash:") for s in bundle["snapshots"]
    )
    assert bundle["closure"]["problems"] == []
    assert bundle["closure"]["traces_checked"] > 0


def test_postmortem_ring_names_match_the_trace(tmp_path):
    """Each machine is named the same in the rings and in the trace,
    including the re-attested incarnation booted mid-run."""
    from repro.cli import main

    code = main(["postmortem", "--out", str(tmp_path), "--seed", "7", "--rate", "8",
                 "--duration", "2", "--fail-at", "0.5", "--recover-after", "0.5"],
                out=io.StringIO())
    assert code == 0
    bundle = json.loads((tmp_path / "postmortem.json").read_text())
    trace = json.loads((tmp_path / "trace.json").read_text())
    processes = {e["args"]["name"] for e in trace["traceEvents"] if e["name"] == "process_name"}
    assert "replica-0.e2" in processes
    rings = [set(snapshot["rings"]) for snapshot in bundle["snapshots"]]
    assert rings and {"replica-0.e1", "replica-1.e1", "gateway"} <= rings[0]
    # A snapshot lists every machine booted by then, under its trace name.
    assert all(names <= processes for names in rings)
