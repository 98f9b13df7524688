"""§8.3 made quantitative: TEE-I/O hardware vs PipeLLM software.

The paper's discussion: the next CVM generation adds dedicated
line-rate I/O-encryption hardware (Intel TDX Connect). But a standard
H100 server runs *eight* GPUs off two CPU sockets, "raising questions
about whether the TEE I/O hardware can sustain GPUs' throughputs",
while PipeLLM scales with ordinary CPU threads.

The model: TEE-I/O behaves like the CC baseline except encryption runs
at the hardware engine's rate — which is *shared* by every co-located
tenant GPU. PipeLLM keeps per-tenant CPU threads. The experiment runs
the FlexGen offloading workload per tenant count and shows where the
shared hardware becomes the bottleneck.
"""

from __future__ import annotations

from ..hw import default_params
from ..models import OPT_66B
from ..workloads import SyntheticShape
from .experiments import FLEXGEN_BATCH, OFFLOAD_DEC_THREADS, OFFLOAD_ENC_THREADS, get_scale, run_flexgen
from .systems import CC, SystemSpec, WITHOUT_CC, pipellm
from .tables import ExperimentResult

__all__ = ["TEEIO_LINE_RATE", "extension_teeio_scaling", "teeio_params"]

#: Aggregate throughput of the SoC's TEE-I/O encryption engine (B/s).
#: Sized to one full-duplex PCIe 5.0 x16 link — enough for ONE GPU at
#: line rate, the optimistic reading of "line-rate encryption".
TEEIO_LINE_RATE = 64e9
#: Co-located tenant GPUs swept, up to one eight-GPU server.
_TENANTS = (1, 2, 4, 8)


def teeio_params(tenants: int, line_rate: float = TEEIO_LINE_RATE):
    """Hardware parameters of a TEE-I/O machine shared by N tenants.

    Inline hardware encryption at ``line_rate / tenants`` per tenant,
    with a negligible control-plane cost (it is an SoC block, not a
    software round trip).
    """
    if tenants < 1:
        raise ValueError("tenants must be >= 1")
    per_tenant = line_rate / tenants
    return default_params().with_overrides(
        enc_bandwidth_per_thread=per_tenant,
        dec_bandwidth_per_thread=per_tenant,
        cc_control_latency=3e-6,
    )


def extension_teeio_scaling(scale="quick") -> ExperimentResult:
    """FlexGen OPT-66B throughput: TEE-I/O (shared) vs PipeLLM (per-tenant)."""
    scale = get_scale(scale)
    shape = SyntheticShape(32, scale.flexgen_output or 128)
    result = ExperimentResult(
        "ext-teeio",
        "§8.3: shared TEE-I/O hardware vs per-tenant PipeLLM (FlexGen OPT-66B)",
        columns=["system", "tenants", "throughput_tok_s", "overhead_pct"],
    )
    base, _ = run_flexgen(WITHOUT_CC, OPT_66B, shape, FLEXGEN_BATCH, scale.flexgen_requests)
    result.add_row(system="w/o CC", tenants=0, throughput_tok_s=base.throughput, overhead_pct=0.0)

    pipe = pipellm(OFFLOAD_ENC_THREADS, OFFLOAD_DEC_THREADS)
    pipe_res, _ = run_flexgen(pipe, OPT_66B, shape, FLEXGEN_BATCH, scale.flexgen_requests)
    result.add_row(
        system="PipeLLM",
        tenants=0,
        throughput_tok_s=pipe_res.throughput,
        overhead_pct=100.0 * (1.0 - pipe_res.throughput / base.throughput),
    )

    for tenants in _TENANTS:
        params = teeio_params(tenants)
        system = SystemSpec(f"TEE-I/O/{tenants}", CC.cc_mode)
        machine, runtime = system.build(params=params)
        from ..serving import FlexGenConfig, FlexGenEngine

        config = FlexGenConfig(OPT_66B, shape, batch_size=FLEXGEN_BATCH,
                               n_requests=scale.flexgen_requests)
        res = FlexGenEngine(machine, runtime, config).run()
        result.add_row(
            system="TEE-I/O",
            tenants=tenants,
            throughput_tok_s=res.throughput,
            overhead_pct=100.0 * (1.0 - res.throughput / base.throughput),
        )
    result.add_note(
        "TEE-I/O per-tenant encryption rate = line rate / tenants; the "
        "hardware matches PipeLLM alone but degrades with co-location, "
        "which is the paper's flexibility argument for a software fix"
    )
    return result
