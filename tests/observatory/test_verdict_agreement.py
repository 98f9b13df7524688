"""One serve run, one bottleneck call at every front door.

The per-machine profiler (``profile_hub``), the dashboard's critical
path line, ``trace --attrib``'s report and the post-mortem's fleet
critical path all read seconds per attribution class, so on a serve run
whose time goes to the GPUs they all say ``compute-bound``.
"""

from repro.bench.serve import serve_config
from repro.cluster import Cluster
from repro.observatory import profile_hub, render_profile
from repro.observatory.dashboard import Dashboard
from repro.serve import LoadSpec, ServeFrontend, generate_load
from repro.telemetry import recording
from repro.tracing import extract_traces, postmortem_bundle


def test_every_front_door_calls_serve_compute_bound():
    load = LoadSpec(rate=10.0, duration=4.0, seed=1)
    with recording() as session:
        cluster = Cluster(serve_config("pipellm"))
        ServeFrontend(cluster).run(generate_load(load), duration=load.duration)
        frames = [
            Dashboard(r.machine, runtime=r.runtime, gateway=cluster.gateway).frame()
            for r in cluster.replicas
        ]
    (collector,) = session.collectors
    bundle = postmortem_bundle(paths=extract_traces(collector))
    assert bundle["fleet"]["verdict"] == "compute-bound"
    assert len(frames) == len(cluster.replicas) == 2
    for replica, frame in zip(cluster.replicas, frames):
        profile = profile_hub(replica.machine.telemetry)
        assert profile.verdict == "compute-bound", profile.label
        critical_path = frame.splitlines()[-1]
        assert critical_path.startswith("critical path: compute-bound  ("), critical_path
        assert " compute " in critical_path
        report = render_profile(profile).splitlines()[1]
        assert report.startswith("verdict: compute-bound  ("), report
