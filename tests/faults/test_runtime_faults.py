"""Runtime-level fault behaviour: recovery, degradation, restoration.

The acceptance scenario for the fault plane lives here: under a
sustained 30% misprediction/desync storm the pipeline must switch to
degraded in-order encryption, complete every request with zero IV
reuse, and return to speculative mode once the faults stop.
"""

import pytest

from repro.cc import CcMode, build_machine
from repro.cluster.tenant import ClusterIvAudit
from repro.core import PipeLLMConfig, PipeLLMRuntime
from repro.faults import FaultInjector, FaultPlan, FaultPolicy, PipelineMode
from repro.hw import MB

# Logical size; payloads stay tiny so pure-Python GCM is cheap. 1 MB
# keeps a 24-layer iteration near 1 ms of simulated time, so the 4 ms
# storm windows below span a few full iterations.
LAYER = 1 * MB


def build(plan, seed=7, policy=None, regions=8):
    injector = FaultInjector(plan, seed=seed)
    machine = build_machine(
        CcMode.ENABLED, enc_threads=8, dec_threads=2, faults=injector
    )
    config = PipeLLMConfig(fault_policy=policy) if policy else None
    runtime = PipeLLMRuntime(machine, config)
    runtime.hint_weight_chunk_size(LAYER)
    audit = ClusterIvAudit()
    machine.cpu_endpoint.attach_audit(audit)
    machine.gpu.endpoint.attach_audit(audit)
    layers = [
        machine.host_memory.allocate(LAYER, f"layer.{i}", f"w{i}".encode())
        for i in range(regions)
    ]
    return machine, runtime, injector, audit, layers


def sweep(machine, runtime, layers, iterations):
    def app():
        for _ in range(iterations):
            for layer in layers:
                handle = runtime.memcpy_h2d(machine.host_memory.chunk_at(layer.addr))
                yield handle.complete

    machine.sim.process(app())
    machine.sim.run()


def assert_bit_exact(machine, layers):
    for layer in layers:
        chunk = machine.host_memory.chunk_at(layer.addr)
        assert machine.gpu._contents[chunk.tag] == bytes(chunk.payload)


class TestAuthRecovery:
    def test_tag_corruption_recovered_by_reencryption(self):
        plan = FaultPlan(name="corrupt", tag_corrupt_rate=0.5)
        machine, runtime, injector, audit, layers = build(plan, regions=4)
        sweep(machine, runtime, layers, iterations=6)
        assert injector.counts["tag-corrupt"] > 0
        assert machine.gpu.auth_failures > 0      # the faults really landed
        assert runtime.auth_recoveries > 0        # ...and were all recovered
        assert injector.recoveries.get("auth-recover", 0) > 0
        assert_bit_exact(machine, layers)

    def test_iv_desync_recovered_with_fresh_ivs(self):
        plan = FaultPlan(name="desync", iv_desync_rate=0.5)
        machine, runtime, injector, audit, layers = build(plan, regions=4)
        sweep(machine, runtime, layers, iterations=6)
        assert injector.counts["iv-desync"] > 0
        # The audit raises on any (key, IV) repeat, so surviving the
        # sweep proves recovery always burned fresh IVs.
        assert audit.observed > 0
        assert_bit_exact(machine, layers)

    def test_rx_never_overtakes_tx(self):
        plan = FaultPlan.storm(0.4)
        machine, runtime, injector, audit, layers = build(plan, regions=4)
        sweep(machine, runtime, layers, iterations=6)
        assert (machine.gpu.endpoint.rx_iv.consumed
                <= machine.cpu_endpoint.tx_iv.consumed)


class TestDegradation:
    def test_storm_degrades_then_restores(self):
        # The ISSUE acceptance scenario: a bounded 30% storm forces
        # degraded in-order mode; once the window closes, the
        # controller probes its way back to speculation.
        plan = FaultPlan.storm(0.3, start=0.0, stop=0.004)
        machine, runtime, injector, audit, layers = build(plan, regions=24)
        sweep(machine, runtime, layers, iterations=40)

        entered = [mode for _, _, mode in runtime.fault_controller.transitions]
        assert PipelineMode.DEGRADED.value in entered
        assert runtime.fault_controller.mode is PipelineMode.SPECULATIVE
        assert runtime.stats()["degraded_seconds"] > 0
        # Every request completed, bit-exact, zero IV reuse (the audit
        # would have raised), despite the storm. Degraded commits
        # bypass the validator, so the two counters partition the run.
        stats = runtime.stats()
        assert stats["swap_requests"] + stats["degraded_commits"] == 24 * 40
        assert audit.observed > 0
        assert_bit_exact(machine, layers)

    def test_degraded_mode_still_completes_everything(self):
        # 100% mispredictions with no stop: the pipeline must park in
        # degraded mode (with periodic probes) and still deliver.
        plan = FaultPlan(name="always-wrong", mispredict_rate=1.0)
        machine, runtime, injector, audit, layers = build(plan, regions=6)
        sweep(machine, runtime, layers, iterations=10)
        entered = [mode for _, _, mode in runtime.fault_controller.transitions]
        assert PipelineMode.DEGRADED.value in entered
        assert runtime.stats()["degraded_commits"] > 0
        assert_bit_exact(machine, layers)

    def test_pinned_policy_never_changes_mode(self):
        plan = FaultPlan.storm(0.3, start=0.0, stop=0.004)
        pinned = FaultPolicy(enter_miss_rate=1.0)
        machine, runtime, injector, audit, layers = build(
            plan, policy=pinned, regions=24
        )
        sweep(machine, runtime, layers, iterations=40)
        assert runtime.fault_controller.transitions == []
        assert runtime.fault_controller.mode is PipelineMode.SPECULATIVE
        assert_bit_exact(machine, layers)

    def test_clean_run_never_degrades(self):
        plan = FaultPlan(name="clean")
        machine, runtime, injector, audit, layers = build(plan, regions=6)
        sweep(machine, runtime, layers, iterations=8)
        assert runtime.fault_controller.transitions == []
        assert machine.gpu.auth_failures == 0
        assert injector.injected_total == 0
        assert_bit_exact(machine, layers)


class TestRequestTimeout:
    def test_watchdog_counts_nothing_on_a_healthy_run(self):
        plan = FaultPlan(name="clean")
        policy = FaultPolicy(request_timeout_s=10.0)
        machine, runtime, injector, audit, layers = build(
            plan, policy=policy, regions=4
        )
        sweep(machine, runtime, layers, iterations=4)
        assert runtime.timeouts == 0
        assert_bit_exact(machine, layers)
