#!/usr/bin/env python3
"""Fault injection and graceful degradation, end to end.

Builds one PipeLLM machine with a seeded fault injector attacking the
whole stack at once — forced mispredictions, GCM tag corruption, IV
desynchronization, PCIe jitter/drops, and encryption-engine stalls —
and streams a weight-swap loop through the storm. Shows:

1. every authentication failure recovered by resync + re-encryption
   under fresh IVs (never a reused one — an attached IV audit raises
   on any repeat);
2. the runtime degrading to non-speculative in-order encryption when
   the miss rate crosses the threshold, then probing its way back to
   speculation once the storm window closes;
3. the degradation table the full campaign sweeps
   (``python -m repro run faults``).

Run:  python examples/fault_injection.py
"""

from repro import CcMode, PipeLLMRuntime, build_machine
from repro.bench.faults import fault_campaign
from repro.cluster.tenant import ClusterIvAudit
from repro.faults import FaultInjector, FaultPlan
from repro.hw import MB

LAYER_BYTES = 64 * MB
LAYERS = 24
ITERATIONS = 10


def storm_demo():
    # A storm confined to a window: 30% forced mispredictions, 7.5%
    # tag corruption and IV desync, plus PCIe and engine noise.
    plan = FaultPlan(
        name="demo-storm",
        start=0.05, stop=0.60,
        mispredict_rate=0.30,
        tag_corrupt_rate=0.075,
        iv_desync_rate=0.075,
        pcie_jitter_rate=0.05, pcie_drop_rate=0.01,
        engine_stall_rate=0.02,
    )
    injector = FaultInjector(plan, seed=7)
    machine = build_machine(
        CcMode.ENABLED, enc_threads=8, dec_threads=2, faults=injector
    )
    runtime = PipeLLMRuntime(machine)
    runtime.hint_weight_chunk_size(LAYER_BYTES)

    # The audit sees every IV both endpoints ever consume and raises
    # on any (key, IV) repeat — recovery must always burn fresh IVs.
    audit = ClusterIvAudit()
    machine.cpu_endpoint.attach_audit(audit)
    machine.gpu.endpoint.attach_audit(audit)

    layers = [
        machine.host_memory.allocate(LAYER_BYTES, f"layer.{i}", f"weights-{i}".encode())
        for i in range(LAYERS)
    ]

    def app(sim):
        for _ in range(ITERATIONS):
            for layer in layers:
                handle = runtime.memcpy_h2d(machine.host_memory.chunk_at(layer.addr))
                yield handle.complete

    machine.sim.process(app(machine.sim))
    machine.sim.run()

    stats = runtime.stats()
    print("injected faults:")
    for action, count in sorted(injector.counts.items()):
        print(f"  {action:<12} {count}")
    print("recovery actions:")
    for action, count in sorted(injector.recoveries.items()):
        print(f"  {action:<15} {count}")
    print(f"auth failures seen by the GPU : {machine.gpu.auth_failures}")
    print(f"  ... all recovered, requests completed: "
          f"{int(stats['swap_requests'])} swaps, "
          f"{int(stats['auth_recoveries'])} re-encrypted deliveries")
    print("degradation controller transitions:")
    for t, prev, mode in runtime.fault_controller.transitions:
        print(f"  {t * 1e3:9.3f} ms  {prev} -> {mode}")
    print(f"final mode: {runtime.fault_controller.mode.value} "
          f"(degraded for {stats['degraded_seconds'] * 1e3:.1f} ms)")
    print(f"IV audit: {audit.observed} IVs over {audit.keys_seen()} lanes, "
          "zero reuse")

    # Functional proof: every layer's plaintext landed bit-exact
    # despite the corruption along the way.
    for layer in layers:
        chunk = machine.host_memory.chunk_at(layer.addr)
        assert machine.gpu._contents[chunk.tag] == bytes(chunk.payload)
    print("every layer decrypted bit-exact on the GPU\n")


def main():
    print("=== storm demo: one machine through a fault window ===\n")
    storm_demo()
    print("=== degradation table (quick campaign) ===\n")
    print(fault_campaign("quick").render())


if __name__ == "__main__":
    main()
