"""What-if oracle: the class a verdict names is the one whose speed-up
helps most.

Coz's virtual speed-ups (Curtsinger & Berger, SOSP 2015), made exact by
the simulator: each scenario runs once on the default hardware under
``recording()``, and the profiler's per-machine verdict names one
attribution class. Then each probed class's hardware knobs are doubled
in turn (``KNOBS``) and the scenario reruns. The named class must give
the largest end-to-end gain, within ``TIE_MARGIN``, and that gain must
itself exceed the margin: a verdict that names a resource the run does
not wait on fails here.

Classes not probed: ``bridge`` has no knob of its own (the TP-2 bounce
DMA legs run on ``cc_dma_bandwidth``, which the ``pcie`` what-if
doubles, and its inline AES legs are the ``aes`` class), and
``migration`` needs a disagg scenario. Every verdict in the matrix must
therefore be one of the three probed classes.
"""

from dataclasses import replace

import pytest

from repro.bench.serve import serve_config
from repro.bench.systems import CC, WITHOUT_CC, pipellm
from repro.cc import CcMode, build_machine
from repro.hw import GB, default_params
from repro.models import OPT_13B, OPT_30B, OPT_66B
from repro.observatory import profile_hub
from repro.parallel import LinkSpeculator, TensorParallelEngine
from repro.serve import LoadSpec, run_serve
from repro.serving import FlexGenConfig, FlexGenEngine, VllmConfig, VllmEngine
from repro.sim import SeededRng, default_seed
from repro.telemetry import recording
from repro.tracing import CLASS_VERDICTS
from repro.workloads import SHAREGPT, SyntheticShape, poisson_trace

#: A class's gain may trail the best gain by this fraction of the base
#: metric (one percentage point) and still count as the largest.
TIE_MARGIN = 0.01


def _doubled(params, *names):
    return replace(params, **{name: 2 * getattr(params, name) for name in names})


#: Attribution class -> the ``HardwareParams`` knobs its what-if doubles.
KNOBS = {
    "aes": lambda p: _doubled(p, "enc_bandwidth_per_thread", "dec_bandwidth_per_thread"),
    "pcie": lambda p: _doubled(p, "pcie_bandwidth", "cc_dma_bandwidth"),
    "compute": lambda p: replace(p, gpu=_doubled(p.gpu, "flops", "hbm_bandwidth")),
}

CLASS_OF = {call: cls for cls, call in CLASS_VERDICTS}


# Each scenario maps params -> its end-to-end metric (lower is better).

def _flexgen(system):
    def run(params):
        machine, runtime = system.build(params)
        config = FlexGenConfig(
            OPT_66B, SyntheticShape(32, 4), batch_size=8, n_requests=8
        )
        return FlexGenEngine(machine, runtime, config).run().elapsed
    return run


def _tp2(speculate):
    def run(params):
        machine = build_machine(
            CcMode.ENABLED, params, n_gpus=2, enc_threads=8, dec_threads=2
        )
        if speculate:
            machine.interconnect.attach_speculator(
                LinkSpeculator(lambda: machine.sim.now)
            )
        engine = TensorParallelEngine(machine, OPT_13B, batch=16)
        return engine.run(output_tokens=2).elapsed_s
    return run


def _serve(system, rate):
    def run(params):
        load = LoadSpec(rate=rate, duration=4.0, seed=1)
        return run_serve(serve_config(system), load, params=params).p50_ttft
    return run


def _vllm(system):
    """OPT-30B ShareGPT, n=4, at 2.2 rps over 20 s: KV-cache swapping."""
    def run(params):
        machine, runtime = system.build(params)
        requests = poisson_trace(
            SHAREGPT, 2.2, 20.0, SeededRng(default_seed(42)), parallel_n=4
        )
        config = VllmConfig(OPT_30B, requests, reserve_bytes=4 * GB)
        result = VllmEngine(machine, runtime, config).run()
        assert result.swap_in_count > 0  # the scenario is under KV pressure
        return result.mean_normalized_latency
    return run


SCENARIOS = {
    "flexgen-w/o CC": _flexgen(WITHOUT_CC),
    "flexgen-CC": _flexgen(CC),
    "flexgen-PipeLLM-8+2": _flexgen(pipellm(8, 2)),
    "flexgen-PipeLLM-1+1": _flexgen(pipellm(1, 1)),
    "tp2-CC": _tp2(False),
    "tp2-PipeLLM": _tp2(True),
    "serve-CC-10rps": _serve("cc", 10.0),
    "serve-PipeLLM-10rps": _serve("pipellm", 10.0),
    "serve-CC-24rps": _serve("cc", 24.0),
    "serve-PipeLLM-24rps": _serve("pipellm", 24.0),
    "vllm-w/o CC": _vllm(WITHOUT_CC),
    "vllm-CC": _vllm(CC),
    "vllm-PipeLLM": _vllm(pipellm(1, 1)),
}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_verdict_names_the_largest_what_if_gain(name):
    run = SCENARIOS[name]
    params = default_params()
    with recording() as session:
        base = run(params)
    # The machines that carried requests: one, or each serve replica.
    hubs = [hub for hub in session.hubs if hub.requests]
    assert base > 0 and hubs
    gains = {cls: 1.0 - run(knob(params)) / base for cls, knob in KNOBS.items()}
    best = max(gains.values())
    for hub in hubs:
        call = profile_hub(hub).verdict
        cls = CLASS_OF.get(call)
        assert cls in KNOBS, f"{hub.label}: {call} is not a probed class {gains}"
        assert gains[cls] > TIE_MARGIN, f"{hub.label}: {call} but {gains}"
        assert gains[cls] >= best - TIE_MARGIN, f"{hub.label}: {call} but {gains}"
