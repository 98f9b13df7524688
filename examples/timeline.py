#!/usr/bin/env python3
"""Regenerating the paper's §4.1 pipelining illustration from a run.

The paper sketches, by hand, how NVIDIA CC serializes encrypt →
transfer → compute while PipeLLM overlaps them. This example runs the
same three-iteration swap loop on both systems with span tracing
enabled and renders the actual simulated timelines as ASCII Gantt
charts — lane `enc[0]` is the encryption thread, `pcie.h2d.cc` the
DMA path, `gpu` the compute engine.

For whole experiments the unified telemetry subsystem supersedes this
hand-rolled capture: ``python -m repro trace <experiment>`` (or
``examples/trace_export.py``) records every machine through
:mod:`repro.telemetry` and exports Chrome-trace / JSON / CSV / ASCII
views of the same lanes, plus speculation state and per-request
lifecycle records.

Run:  python examples/timeline.py
"""

from repro import CcMode, CudaContext, PipeLLMRuntime, build_machine
from repro.hw import MB
from repro.sim import render_gantt

LAYER = 128 * MB
ITERATIONS = 4


def run(label, machine, runtime):
    tracer = machine.telemetry.tracer  # the machine's own lane spans
    tracer.enabled = True
    layer = machine.host_memory.allocate(LAYER, "layer.0", b"weights")
    runtime.hint_weight_chunk_size(LAYER)

    def app(sim):
        for _ in range(ITERATIONS):
            handle = runtime.memcpy_h2d(machine.host_memory.chunk_at(layer.addr))
            yield handle.api_done
            yield handle.complete
            yield machine.gpu.compute(5e12, 1e9, layers=1)  # ~12 ms kernel

    machine.sim.process(app(machine.sim))
    machine.run()
    assert machine.gpu.auth_failures == 0

    lanes = [
        lane for lane in ("enc[0]", "enc[1]", "pcie.h2d.cc", "pcie.h2d", "gpu")
        if lane in tracer.lanes()
    ]
    print(f"--- {label} " + "-" * (60 - len(label)))
    print(render_gantt(tracer, width=70, lanes=lanes))
    print(f"total: {machine.sim.now * 1e3:.1f} ms  "
          f"(gpu busy {tracer.busy_time('gpu') * 1e3:.1f} ms)\n")
    return machine.sim.now


def main():
    machine = build_machine(CcMode.ENABLED)
    cc = run("CC: encryption serialized on the critical path",
             machine, CudaContext(machine))

    machine = build_machine(CcMode.ENABLED, enc_threads=2, dec_threads=1)
    pipe = run("PipeLLM: encryption pipelined off the critical path",
               machine, PipeLLMRuntime(machine))

    print(f"Same work, {cc / pipe:.1f}x faster once encryption overlaps "
          "transfer and compute — the paper's §4.1 picture, measured.")


if __name__ == "__main__":
    main()
