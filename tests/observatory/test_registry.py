"""Metrics registry: families, exposition, snapshot, collectors."""

import pytest

from repro.bench import CC, pipellm, run_flexgen
from repro.cc import CcMode, build_machine
from repro.models import OPT_66B
from repro.observatory import MetricsRegistry, bind_machine
from repro.telemetry import recording
from repro.workloads import SyntheticShape


class TestFamilies:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        requests = registry.counter("requests_total", "served requests")
        requests.inc()
        requests.inc(2)
        assert requests.value == 3
        depth = registry.gauge("queue_depth")
        depth.set(7)
        assert depth.value == 7

    def test_register_is_idempotent_per_kind(self):
        registry = MetricsRegistry()
        first = registry.counter("hits")
        assert registry.counter("hits") is first
        with pytest.raises(ValueError):
            registry.gauge("hits")

    def test_labelled_children_are_distinct(self):
        registry = MetricsRegistry()
        family = registry.counter("bytes_total", labels=("direction",))
        family.labels("h2d").inc(10)
        family.labels(direction="d2h").inc(4)
        assert family.labels("h2d").value == 10
        assert family.labels("d2h").value == 4
        with pytest.raises(ValueError):
            family.labels("h2d", "extra")

    def test_histogram_buckets_cumulative(self):
        registry = MetricsRegistry()
        latency = registry.histogram(
            "latency_seconds", buckets=(0.001, 0.01, 0.1)
        )
        for value in (0.0005, 0.005, 0.05, 0.5):
            latency.observe(value)
        child = latency.labels()
        assert child.counts == [1, 2, 3]
        assert child.total == 4
        assert child.sum == pytest.approx(0.5555)
        with pytest.raises(ValueError):
            registry.histogram("no_buckets")


class TestExposition:
    def test_prometheus_text_format(self):
        registry = MetricsRegistry(namespace="repro")
        registry.counter("hits", "cache hits").inc(3)
        family = registry.gauge("util", labels=("resource",))
        family.labels("pcie").set(0.5)
        registry.histogram("lat", buckets=(0.1,)).observe(0.05)
        text = registry.exposition(horizon=1.0)
        assert "# HELP repro_hits cache hits" in text
        assert "# TYPE repro_hits counter" in text
        assert "repro_hits 3" in text
        assert 'repro_util{resource="pcie"} 0.5' in text
        assert 'repro_lat_bucket{le="0.1"} 1' in text
        assert 'repro_lat_bucket{le="+Inf"} 1' in text
        assert "repro_lat_sum 0.05" in text
        assert "repro_lat_count 1" in text
        assert text.endswith("\n")

    def test_label_value_escaping_conformance(self):
        """Prometheus exposition format: backslash, double-quote and
        line-feed are escaped in label values — and nothing else."""
        registry = MetricsRegistry(namespace="repro")
        family = registry.gauge("util", labels=("resource",))
        family.labels('back\\slash "quoted"\nnewline').set(1.0)
        family.labels("plain{}=,").set(2.0)
        text = registry.exposition(horizon=1.0)
        assert (
            'repro_util{resource="back\\\\slash \\"quoted\\"\\nnewline"} 1'
            in text
        )
        # Braces, equals and commas are legal inside quoted values and
        # must pass through untouched.
        assert 'repro_util{resource="plain{}=,"} 2' in text
        # The escaped exposition stays one-line-per-sample parseable.
        for line in text.splitlines():
            assert "\n" not in line

    def test_snapshot_mirrors_exposition(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        registry.histogram("lat", buckets=(0.1,)).observe(0.05)
        snap = registry.snapshot(horizon=1.0)
        assert snap["hits"]["kind"] == "counter"
        assert snap["hits"]["series"] == [{"labels": {}, "value": 3.0}]
        assert snap["lat"]["series"][0]["count"] == 1
        assert snap["lat"]["series"][0]["buckets"] == {"0.1": 1}


class TestCollectors:
    def test_collector_runs_at_scrape_with_horizon(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("sim_time")
        seen = []

        def collector(horizon):
            seen.append(horizon)
            gauge.set(horizon)

        registry.register_collector(collector)
        snap = registry.snapshot(horizon=2.5)
        assert seen == [2.5]
        assert snap["sim_time"]["series"][0]["value"] == 2.5
        registry.exposition(horizon=3.0)
        assert seen == [2.5, 3.0]


class TestBindMachine:
    def run_bound(self, system):
        with recording():
            result, runtime = run_flexgen(
                system, OPT_66B, SyntheticShape(32, 4), batch_size=8, n_requests=8
            )
            machine = runtime.machine
            registry = MetricsRegistry()
            bind_machine(registry, machine, runtime=runtime, label=system.name)
            return registry.snapshot(machine.sim.now)

    def test_cc_machine_exposes_stack_metrics(self):
        snap = self.run_bound(CC)
        resources = {
            s["labels"]["resource"]: s["value"]
            for s in snap["resource_utilization"]["series"]
        }
        assert set(resources) >= {"pcie", "crypto-engine", "gpu"}
        assert all(0.0 <= v <= 1.0 for v in resources.values())
        assert resources["crypto-engine"] > 0.0
        quantiles = {
            (s["labels"]["direction"], s["labels"]["quantile"])
            for s in snap["wire_latency_seconds"]["series"]
        }
        assert ("h2d", "p50") in quantiles and ("h2d", "p99") in quantiles

    def test_pipellm_machine_exposes_speculation(self):
        snap = self.run_bound(pipellm(8, 2))
        hit = snap["speculation_hit_rate"]["series"]
        assert hit and 0.0 < hit[0]["value"] <= 1.0
        mode = snap["pipeline_mode"]["series"]
        assert mode and mode[0]["value"] == 0.0  # SPECULATIVE
        counters = {
            s["labels"]["name"] for s in snap["machine_counter"]["series"]
        }
        assert any(name.startswith("runtime.") for name in counters)

    def test_exposition_is_valid_over_real_machine(self):
        with recording():
            result, runtime = run_flexgen(
                pipellm(8, 2), OPT_66B, SyntheticShape(32, 4),
                batch_size=4, n_requests=4,
            )
            machine = runtime.machine
            registry = MetricsRegistry()
            bind_machine(registry, machine, runtime=runtime)
            text = registry.exposition(machine.sim.now)
        for line in text.strip().splitlines():
            assert line.startswith("#") or " " in line
        assert "repro_resource_utilization" in text

    @pytest.mark.parametrize("mode", [CcMode.DISABLED, CcMode.ENABLED])
    def test_multi_gpu_machine_exposes_fabric_pipes(self, mode):
        machine = build_machine(mode, n_gpus=2)
        machine.interconnect.transfer(0, 1, b"activations", nbytes=1 << 20)
        machine.run()
        registry = MetricsRegistry()
        bind_machine(registry, machine, label="tp2")
        snap = registry.snapshot(machine.sim.now)
        resources = {
            s["labels"]["resource"]: s["value"]
            for s in snap["resource_utilization"]["series"]
        }
        fabric = {r: v for r, v in resources.items() if r.startswith("link.")}
        assert fabric and any(v > 0.0 for v in fabric.values())
        assert all(0.0 <= v <= 1.0 for v in fabric.values())
        assert "repro_resource_utilization" in registry.exposition(machine.sim.now)


class TestBindGatewayServing:
    def run_bound(self, rate=10.0, duration=3.0):
        from repro.cluster import Cluster
        from repro.core import ClusterConfig
        from repro.observatory import bind_gateway
        from repro.serve import LoadSpec, ServeFrontend, generate_load

        cluster = Cluster(ClusterConfig(
            replicas=2, system="pipellm", policy="least-loaded",
            reserve_bytes=55 << 30, max_outstanding=12,
        ))
        frontend = ServeFrontend(cluster)
        requests = generate_load(LoadSpec(rate=rate, duration=duration))
        result = frontend.run(requests, duration=duration)
        registry = MetricsRegistry()
        bind_gateway(registry, cluster.gateway)
        return cluster, result, registry

    def test_ttft_tpot_quantile_gauges(self):
        cluster, result, registry = self.run_bound()
        snap = registry.snapshot(cluster.sim.now)
        series = {
            (s["labels"]["metric"], s["labels"]["quantile"]): s["value"]
            for s in snap["serve_latency_seconds"]["series"]
        }
        for metric in ("ttft", "tpot"):
            assert series[(metric, "p50")] <= series[(metric, "p95")]
            assert series[(metric, "p95")] <= series[(metric, "p99")]
            assert series[(metric, "p50")] > 0.0
        ttft = cluster.gateway.metrics.latencies["serve.ttft_s"]
        assert series[("ttft", "p99")] == pytest.approx(ttft.p(99))

    def test_histogram_observes_each_sample_once(self):
        cluster, result, registry = self.run_bound()
        first = registry.snapshot(cluster.sim.now)
        second = registry.snapshot(cluster.sim.now)
        ttft = cluster.gateway.metrics.latencies["serve.ttft_s"]

        def hist_count(snap):
            for s in snap["serve_latency_hist_seconds"]["series"]:
                if s["labels"]["metric"] == "ttft":
                    return s["count"]
            raise AssertionError("no ttft histogram series")

        # Cumulative children + seen-offsets: re-scraping without new
        # samples must not double-count.
        assert hist_count(first) == ttft.count == result.completed
        assert hist_count(second) == ttft.count

    def test_serve_counters_mirrored(self):
        cluster, result, registry = self.run_bound()
        snap = registry.snapshot(cluster.sim.now)
        counters = {
            s["labels"]["name"]: s["value"]
            for s in snap["gateway_counter"]["series"]
        }
        assert counters["serve.completed"] == result.completed
