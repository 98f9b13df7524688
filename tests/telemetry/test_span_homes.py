"""One home per span: every lane span lives on the hub of the machine
(or fleet front door) whose resource it describes.

A replica's PCIe pipes, crypto workers and GPU record into that
replica's own machine hub; the gateway hub holds only front-door
signals (serve streams, cluster events, serve.* metrics). No two hubs
share a span store or a metric registry, so a fleet export lists every
span and metric exactly once.
"""

import math

import pytest

from repro.bench.disagg import disagg_config
from repro.bench.serve import serve_config
from repro.cluster import Cluster
from repro.core import ClusterConfig
from repro.disagg import DisaggCluster
from repro.observatory import profile_hub
from repro.serve import LoadSpec, ServeFrontend, generate_load, run_serve
from repro.telemetry import chrome_trace, flat_metrics, recording


def _hardware_lanes(hub):
    return {lane for lane in hub.tracer.lanes()
            if lane == "gpu" or lane.startswith(("enc[", "dec[", "pcie."))}


@pytest.fixture(scope="module")
def serve_session():
    with recording() as session:
        run_serve(serve_config("pipellm"), LoadSpec(rate=8.0, duration=1.0), seed=1)
    return session


def test_serve_session_hubs_are_one_per_machine_and_front_door(serve_session):
    labels = [hub.label for hub in serve_session.hubs]
    assert labels == ["replica-0.e1", "replica-1.e1", "gateway"]


def test_each_replica_hub_holds_its_own_hardware_lanes(serve_session):
    hubs = {hub.label: hub for hub in serve_session.hubs}
    for label in ("replica-0.e1", "replica-1.e1"):
        lanes = _hardware_lanes(hubs[label])
        assert "gpu" in lanes, label
        assert any(lane.startswith("enc[") for lane in lanes), label
        assert any(lane.startswith("pcie.") for lane in lanes), label
    gateway = hubs["gateway"]
    assert not _hardware_lanes(gateway)
    assert any(lane.startswith("serve.req-") for lane in gateway.tracer.lanes())


def test_cluster_run_keeps_lanes_on_replicas():
    config = ClusterConfig(replicas=2, system="pipellm", reserve_bytes=55 << 30)
    with recording() as session:
        cluster = Cluster(config)
        cluster.run(cluster.workload(2.0, 2.0, tenants=2))
    hubs = {hub.label: hub for hub in session.hubs}
    assert not hubs["gateway"].tracer.spans
    served = [r for r in cluster.replicas if r.machine.gpu.compute_seconds > 0]
    assert served
    for replica in served:
        hub = replica.machine.telemetry
        assert "gpu" in _hardware_lanes(hub), hub.label
        # The step lane is gone: the gpu lane already holds each step.
        assert not any(lane.startswith("cluster.") for lane in hub.tracer.lanes())


def test_no_two_hubs_share_a_store(serve_session):
    hubs = serve_session.hubs
    assert len({id(hub.tracer) for hub in hubs}) == len(hubs)
    assert len({id(hub.metrics) for hub in hubs}) == len(hubs)


def test_chrome_trace_emits_each_lane_span_once(serve_session):
    doc = chrome_trace(serve_session.hubs)
    spans = [e for e in doc["traceEvents"] if e.get("ph") == "X" and e["cat"] != "request"]
    assert spans
    # Two hubs holding one store would export its spans once per hub.
    stores = {id(hub.tracer): hub.tracer for hub in serve_session.hubs}
    assert len(spans) == sum(len(tracer.spans) for tracer in stores.values())


def test_flat_metrics_list_gateway_metrics_once(serve_session):
    dumps = flat_metrics(serve_session.hubs)
    owners = [d["label"] for d in dumps if "serve.completed" in d["metrics"]]
    assert owners == ["gateway"]


def test_every_disagg_worker_that_computed_has_a_gpu_lane():
    with recording():
        cluster = DisaggCluster(disagg_config("pipellm"))
        cluster.run(cluster.workload(6.0, 2.0))
    computed = [w for w in cluster.workers if w.machine.gpu.compute_seconds > 0]
    assert computed
    for worker in computed:
        hub = worker.machine.telemetry
        assert "gpu" in hub.tracer.lanes(), hub.label
        assert not any(lane.startswith("disagg.") for lane in hub.tracer.lanes())


def test_replica_profile_gpu_share_matches_the_gpu_model():
    with recording():
        cluster = Cluster(serve_config("pipellm"))
        requests = generate_load(LoadSpec(rate=10.0, duration=2.0), seed=5)
        result = ServeFrontend(cluster).run(requests, duration=2.0)
    assert result.completed
    for replica in cluster.replicas:
        machine = replica.machine
        profile = profile_hub(machine.telemetry)
        expected = machine.gpu.compute_seconds
        assert expected > 0
        assert math.isclose(profile.compute_s, expected, rel_tol=1e-12)
