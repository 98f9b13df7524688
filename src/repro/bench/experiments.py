"""One function per paper table/figure (§3, §7).

Each function builds fresh machines, runs the relevant serving
engines across the compared systems, and returns an
:class:`ExperimentResult` whose rows mirror what the paper plots.

Two scales are provided:

* ``quick`` (default) — minutes-scale subset used by the pytest
  benchmarks and CI: fewer requests / shorter traces, same knobs
  otherwise. Steady-state throughputs and latency *shapes* are
  preserved because every workload reaches its steady state quickly.
* ``full`` — closer to the paper's run lengths; used to produce
  EXPERIMENTS.md.

Calibration notes (also in EXPERIMENTS.md): GPU-memory reserves for
the vLLM Alpaca runs are chosen so that KV pressure — and therefore
swapping — occurs within each trace's request-rate range, mirroring
the paper's tuning of "maximum batch size to trigger memory swaps".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..cc import CcMode
from ..hw import GB, KB, MB, default_params
from ..models import ModelSpec, OPT_13B, OPT_30B, OPT_66B, OPT_175B_4BIT
from ..serving import (
    FlexGenConfig,
    FlexGenEngine,
    PeftConfig,
    PeftEngine,
    VllmConfig,
    VllmEngine,
)
from ..sim import SeededRng, default_seed
from ..workloads import (
    ALPACA,
    SHAREGPT,
    SyntheticShape,
    TraceSpec,
    poisson_trace,
    ultrachat_batches,
)
from .systems import CC, SystemSpec, WITHOUT_CC, cc_threads, pipellm, pipellm_zero
from .tables import ExperimentResult

__all__ = [
    "Scale",
    "QUICK",
    "FULL",
    "SCALES",
    "attribution_breakdown",
    "fig2_microbenchmark",
    "fig3a_flexgen_overhead",
    "fig3b_vllm_overhead",
    "fig3c_peft_overhead",
    "fig7_model_offloading",
    "fig8_kv_swapping",
    "fig9_threading",
    "fig10_success_rate",
    "run_flexgen",
    "run_peft",
    "run_vllm",
]


@dataclass(frozen=True)
class Scale:
    """Run-size knobs shared by all experiments."""

    name: str
    flexgen_requests: int
    flexgen_output: Optional[int]  # None = the shape's own output length
    vllm_duration: float
    peft_steps: int
    fig2_transfers: int


QUICK = Scale(
    name="quick",
    flexgen_requests=48,
    flexgen_output=8,
    vllm_duration=40.0,
    peft_steps=3,
    fig2_transfers=64,
)

FULL = Scale(
    name="full",
    flexgen_requests=192,
    flexgen_output=None,
    vllm_duration=120.0,
    peft_steps=6,
    fig2_transfers=256,
)


#: The named scales: the CLI's ``--scale`` choices, in order.
SCALES = {scale.name: scale for scale in (QUICK, FULL)}


def _scale(scale) -> Scale:
    return scale if isinstance(scale, Scale) else SCALES[scale]


def _require(condition: bool, message: str) -> None:
    """An experiment's acceptance check; raised even under ``python -O``."""
    if not condition:
        raise AssertionError(message)


# ---------------------------------------------------------------------------
# Shared runners
# ---------------------------------------------------------------------------

#: PipeLLM thread configuration for model offloading (§7.2: multiple
#: CPU threads so ciphertext generation outruns PCIe).
OFFLOAD_ENC_THREADS = 8
OFFLOAD_DEC_THREADS = 2


def run_flexgen(
    system: SystemSpec,
    spec: ModelSpec,
    shape: SyntheticShape,
    batch_size: int,
    n_requests: int,
):
    """Run one FlexGen configuration; returns (result, runtime)."""
    machine, runtime = system.build()
    config = FlexGenConfig(spec, shape, batch_size=batch_size, n_requests=n_requests)
    engine = FlexGenEngine(machine, runtime, config)
    return engine.run(), runtime


def run_peft(
    system: SystemSpec,
    spec: ModelSpec,
    batch_size: int,
    resident_layers: int,
    steps: int,
    seed: int = 7,
):
    """Run one PEFT fine-tuning configuration; returns (result, runtime)."""
    machine, runtime = system.build()
    batches = ultrachat_batches(steps, batch_size, SeededRng(default_seed(seed)))
    config = PeftConfig(spec, batches, resident_layers=resident_layers)
    engine = PeftEngine(machine, runtime, config)
    return engine.run(), runtime


def run_vllm(
    system: SystemSpec,
    spec: ModelSpec,
    trace: TraceSpec,
    rate: float,
    parallel_n: int,
    duration: float,
    reserve_bytes: int = 4 * GB,
    seed: int = 42,
):
    """Run one vLLM serving configuration; returns (result, runtime)."""
    machine, runtime = system.build()
    requests = poisson_trace(trace, rate, duration, SeededRng(default_seed(seed)), parallel_n=parallel_n)
    config = VllmConfig(spec, requests, reserve_bytes=reserve_bytes)
    engine = VllmEngine(machine, runtime, config)
    return engine.run(), runtime


def _drop(base: float, other: float) -> float:
    """Throughput drop of ``other`` relative to ``base`` in percent."""
    return 100.0 * (1.0 - other / base) if base else 0.0


# ---------------------------------------------------------------------------
# Figure 2 — I/O microbenchmark
# ---------------------------------------------------------------------------

FIG2_SIZES: Sequence[Tuple[str, int]] = (
    ("32B", 32),
    ("128KB", 128 * KB),
    ("1MB", 1 * MB),
    ("32MB", 32 * MB),
)


def fig2_microbenchmark(scale="quick") -> ExperimentResult:
    """Host-to-device memcpy latency and throughput, CC on/off.

    Latency is the single-transfer API-call latency; throughput is
    measured over a back-to-back transfer train in the simulator, as
    in the paper's 10K-transfer average.
    """
    scale = _scale(scale)
    params = default_params()
    result = ExperimentResult(
        "fig2",
        "H2D memcpy microbenchmark",
        columns=["size", "system", "latency_us", "throughput_gbps"],
    )
    for system in (WITHOUT_CC, CC):
        for label, size in FIG2_SIZES:
            machine, runtime = system.build()
            region = machine.host_memory.allocate(size, f"buf.{label}", b"x" * 16)
            latency_box = {}

            def app(sim=machine.sim, runtime=runtime, region=region, box=latency_box):
                # Single isolated transfer: API-call latency.
                handle = runtime.memcpy_h2d(region.chunk())
                t0 = sim.now
                yield handle.api_done
                box["latency"] = sim.now - t0
                yield runtime.synchronize()
                # Back-to-back train: sustained throughput.
                t0 = sim.now
                for _ in range(scale.fig2_transfers):
                    handle = runtime.memcpy_h2d(region.chunk())
                    yield handle.api_done
                yield runtime.synchronize()
                box["train"] = sim.now - t0

            machine.sim.process(app())
            machine.run()
            latency = (
                params.cc_api_latency(size)
                if machine.cc_enabled
                else params.ncc_api_latency(size)
            )
            throughput = scale.fig2_transfers * size / latency_box["train"]
            result.add_row(
                size=label,
                system=system.name,
                latency_us=latency * 1e6,
                throughput_gbps=throughput / 1e9,
            )
    result.add_note(
        "latency column uses the calibrated single-transfer model; "
        "throughput measured over a back-to-back train in the simulator"
    )
    return result


# ---------------------------------------------------------------------------
# Figure 3 — CC overhead study (CC vs w/o CC only)
# ---------------------------------------------------------------------------

FLEXGEN_BATCH = 48


def _flexgen_shapes(scale: Scale) -> List[SyntheticShape]:
    outputs = (128, 32)
    shapes = []
    for prompt, output in ((32, outputs[0]), (256, outputs[1])):
        if scale.flexgen_output is not None:
            output = scale.flexgen_output
        shapes.append(SyntheticShape(prompt, output))
    return shapes


def fig3a_flexgen_overhead(scale="quick") -> ExperimentResult:
    """FlexGen OPT-66B throughput, CC vs w/o CC (≈88 % drop)."""
    scale = _scale(scale)
    result = ExperimentResult(
        "fig3a",
        "FlexGen OPT-66B model offloading under CC",
        columns=["config", "system", "throughput_tok_s", "drop_pct"],
    )
    for shape in _flexgen_shapes(scale):
        base, _ = run_flexgen(WITHOUT_CC, OPT_66B, shape, FLEXGEN_BATCH, scale.flexgen_requests)
        cc, _ = run_flexgen(CC, OPT_66B, shape, FLEXGEN_BATCH, scale.flexgen_requests)
        for system, res in (("w/o CC", base), ("CC", cc)):
            result.add_row(
                config=shape.label,
                system=system,
                throughput_tok_s=res.throughput,
                drop_pct=_drop(base.throughput, res.throughput),
            )
    return result


def attribution_breakdown(scale="quick") -> ExperimentResult:
    """Per-stage critical-path attribution of the FlexGen weight
    stream (w/o CC / CC / PipeLLM), from the observatory profiler."""
    from ..observatory import profile_hub
    from ..telemetry import recording

    scale = _scale(scale)
    result = ExperimentResult(
        "attrib",
        "Critical-path attribution per stage (FlexGen OPT-66B)",
        columns=[
            "system", "verdict", "encrypt_pct", "wire_order_pct",
            "staging_pct", "control_pct", "pcie_pct", "interconnect_pct",
            "decrypt_pct", "other_pct", "hit_rate", "net_saved_s",
        ],
    )

    def _add_profile_row(name, profile, hit_rate=None, net_saved=None):
        result.add_row(
            system=name,
            verdict=profile.verdict,
            encrypt_pct=100 * profile.share("encrypt"),
            wire_order_pct=100 * profile.share("wire-order"),
            staging_pct=100 * profile.share("staging"),
            control_pct=100 * profile.share("control"),
            pcie_pct=100 * profile.share("pcie"),
            interconnect_pct=100 * profile.share("interconnect"),
            decrypt_pct=100 * profile.share("decrypt"),
            other_pct=100 * profile.share("other"),
            hit_rate=profile.speculation.hit_rate if hit_rate is None
            else hit_rate,
            net_saved_s=profile.speculation.net_saved_s if net_saved is None
            else net_saved,
        )

    shape = SyntheticShape(512, scale.flexgen_output or 8)
    systems = (WITHOUT_CC, CC, pipellm(OFFLOAD_ENC_THREADS, OFFLOAD_DEC_THREADS))
    for system in systems:
        with recording():
            _, runtime = run_flexgen(
                system, OPT_66B, shape, FLEXGEN_BATCH, scale.flexgen_requests
            )
            profile = profile_hub(runtime.machine.telemetry)
        _add_profile_row(system.name, profile)

    # Inter-GPU rows: the encrypted fabric's hop records attribute to
    # the "interconnect" stage, with the serialized bridge splitting
    # time into the inline decrypt/re-encrypt legs as well.
    from ..cc import build_machine
    from ..parallel import LinkSpeculator, TensorParallelEngine

    for name, speculate in (("CC TP-2", False), ("PipeLLM TP-2", True)):
        with recording():
            machine = build_machine(
                CcMode.ENABLED, n_gpus=2,
                enc_threads=OFFLOAD_ENC_THREADS,
                dec_threads=OFFLOAD_DEC_THREADS,
            )
            if speculate:
                machine.interconnect.attach_speculator(
                    LinkSpeculator(lambda: machine.sim.now)
                )
            engine = TensorParallelEngine(machine, OPT_13B, batch=16)
            engine.run(output_tokens=2)
            profile = profile_hub(machine.telemetry)
        _add_profile_row(
            name, profile,
            hit_rate=machine.interconnect.hit_rate(), net_saved=0.0,
        )

    result.add_note(
        "per-stage shares of total blocked wire time; each request's "
        "stages sum to its end-to-end latency exactly"
    )
    result.add_note(
        "TP-2 rows profile inter-GPU hop records on the encrypted "
        "fabric: interconnect_pct is the DMA legs of the host bounce, "
        "encrypt/decrypt the serialized bridge's inline AES"
    )
    result.add_note(
        "net_saved_s: critical-path AES seconds removed by staged hits "
        "minus AES work wasted on invalidated staging entries"
    )
    return result


#: vLLM test-point shared by fig3b and fig8 (OPT-30B, ShareGPT, n=6).
VLLM_30B_SHAREGPT_RATES = (0.4, 0.8, 1.2, 1.6, 2.0)


def fig3b_vllm_overhead(scale="quick") -> ExperimentResult:
    """vLLM OPT-30B normalized latency vs request rate, CC vs w/o CC."""
    scale = _scale(scale)
    result = ExperimentResult(
        "fig3b",
        "vLLM OPT-30B KV-cache swapping under CC (ShareGPT, parallel 6)",
        columns=["rate", "system", "norm_latency_s_tok", "swap_ins"],
    )
    for rate in VLLM_30B_SHAREGPT_RATES:
        for system in (WITHOUT_CC, CC):
            res, _ = run_vllm(system, OPT_30B, SHAREGPT, rate, 6, scale.vllm_duration)
            result.add_row(
                rate=rate,
                system=system.name,
                norm_latency_s_tok=res.mean_normalized_latency,
                swap_ins=res.swap_in_count,
            )
    return result


#: PEFT memory-pressure calibration: resident layer counts chosen so
#: the offloaded fraction reproduces the paper's measured CC drops
#: (36.2 % on OPT-30B, 14.0 % on OPT-13B) for these batch sizes.
PEFT_CONFIGS = (
    (OPT_30B, 12, 36),
    (OPT_13B, 16, 35),
)


def fig3c_peft_overhead(scale="quick") -> ExperimentResult:
    """PEFT LoRA fine-tuning throughput drop under CC."""
    scale = _scale(scale)
    result = ExperimentResult(
        "fig3c",
        "PEFT fine-tuning with DeepSpeed offloading under CC",
        columns=["model", "system", "throughput_tok_s", "drop_pct"],
    )
    for spec, batch, resident in PEFT_CONFIGS:
        base, _ = run_peft(WITHOUT_CC, spec, batch, resident, scale.peft_steps)
        cc, _ = run_peft(CC, spec, batch, resident, scale.peft_steps)
        for system, res in (("w/o CC", base), ("CC", cc)):
            result.add_row(
                model=spec.name,
                system=system,
                throughput_tok_s=res.throughput,
                drop_pct=_drop(base.throughput, res.throughput),
            )
    return result


# ---------------------------------------------------------------------------
# Figure 7 — model offloading end-to-end (w/o CC vs CC vs PipeLLM)
# ---------------------------------------------------------------------------

def fig7_model_offloading(scale="quick") -> ExperimentResult:
    """FlexGen (OPT-66B, OPT-175B-4bit) and PEFT (OPT-30B/13B):
    normalized throughput of w/o CC / CC / PipeLLM."""
    scale = _scale(scale)
    pipe = pipellm(OFFLOAD_ENC_THREADS, OFFLOAD_DEC_THREADS)
    result = ExperimentResult(
        "fig7",
        "Model offloading with PipeLLM",
        columns=["workload", "config", "system", "throughput_tok_s",
                 "normalized", "overhead_pct"],
    )
    for spec in (OPT_66B, OPT_175B_4BIT):
        for shape in _flexgen_shapes(scale):
            runs = {}
            for system in (WITHOUT_CC, CC, pipe):
                res, _ = run_flexgen(system, spec, shape, FLEXGEN_BATCH, scale.flexgen_requests)
                runs[system.name] = res
            base = runs["w/o CC"].throughput
            for name, res in runs.items():
                result.add_row(
                    workload=f"flexgen/{spec.name}",
                    config=shape.label,
                    system=name,
                    throughput_tok_s=res.throughput,
                    normalized=res.throughput / base,
                    overhead_pct=_drop(base, res.throughput),
                )
    for spec, batch, resident in PEFT_CONFIGS:
        runs = {}
        for system in (WITHOUT_CC, CC, pipe):
            res, _ = run_peft(system, spec, batch, resident, scale.peft_steps)
            runs[system.name] = res
        base = runs["w/o CC"].throughput
        for name, res in runs.items():
            result.add_row(
                workload=f"peft/{spec.name}",
                config=f"lora bs{batch}",
                system=name,
                throughput_tok_s=res.throughput,
                normalized=res.throughput / base,
                overhead_pct=_drop(base, res.throughput),
            )
    return result


# ---------------------------------------------------------------------------
# Figure 8 — KV-cache swapping end-to-end
# ---------------------------------------------------------------------------

#: Alpaca requests are short, so pressure requires a larger activation
#: reserve (the paper cranks batch limits until swapping triggers).
ALPACA_30B_RESERVE = 13 * GB
ALPACA_30B_RATES = (7.0, 10.0, 13.0)
SHAREGPT_13B_RESERVE = 30 * GB
SHAREGPT_13B_RATES = (1.2, 1.8, 2.4)


def fig8_kv_swapping(scale="quick") -> ExperimentResult:
    """vLLM normalized latency: w/o CC vs CC vs PipeLLM (1+1 threads)."""
    scale = _scale(scale)
    pipe = pipellm(1, 1)
    result = ExperimentResult(
        "fig8",
        "vLLM KV-cache swapping with PipeLLM",
        columns=["model", "dataset", "parallel", "rate", "system",
                 "norm_latency_s_tok", "p90_latency_s_tok",
                 "overhead_pct", "success_rate"],
    )
    cases = [
        # OPT-30B / ShareGPT across the paper's parallel-sampling
        # sweep (n = 2 / 4 / 6); the rate grids shift because smaller
        # n means less KV per request, so pressure needs more traffic.
        (OPT_30B, SHAREGPT, 2, (2.0, 3.0, 4.0), 4 * GB),
        (OPT_30B, SHAREGPT, 4, (1.0, 1.6, 2.2), 4 * GB),
        (OPT_30B, SHAREGPT, 6, VLLM_30B_SHAREGPT_RATES[1:], 4 * GB),
        (OPT_30B, ALPACA, 6, ALPACA_30B_RATES, ALPACA_30B_RESERVE),
        (OPT_13B, SHAREGPT, 6, SHAREGPT_13B_RATES, SHAREGPT_13B_RESERVE),
    ]
    for spec, trace, parallel, rates, reserve in cases:
        for rate in rates:
            runs = {}
            rates_stats = {}
            for system in (WITHOUT_CC, CC, pipe):
                res, runtime = run_vllm(
                    system, spec, trace, rate, parallel, scale.vllm_duration,
                    reserve_bytes=reserve,
                )
                runs[system.name] = res
                if system.uses_pipellm:
                    rates_stats[system.name] = runtime.stats().get("success_rate", 1.0)
            base = runs["w/o CC"].mean_normalized_latency
            for name, res in runs.items():
                lat = res.mean_normalized_latency
                result.add_row(
                    model=spec.name,
                    dataset=trace.name,
                    parallel=parallel,
                    rate=rate,
                    system=name,
                    norm_latency_s_tok=lat,
                    p90_latency_s_tok=res.latency_percentile(90),
                    overhead_pct=100.0 * (lat / base - 1.0) if base else 0.0,
                    success_rate=rates_stats.get(name, ""),
                )
    return result


# ---------------------------------------------------------------------------
# Figure 9 — trivial multi-threading vs pipelining
# ---------------------------------------------------------------------------

FIG9_RATE = 10.0


def fig9_threading(scale="quick") -> ExperimentResult:
    """CC with 4 crypto threads (no pipelining) vs PipeLLM with 2.

    vLLM, OPT-30B, Alpaca, parallel 6 — the Fig. 9 configuration.
    """
    scale = _scale(scale)
    result = ExperimentResult(
        "fig9",
        "Trivial multi-threading on vLLM OPT-30B (Alpaca, parallel 6)",
        columns=["system", "crypto_threads", "norm_latency_s_tok", "overhead_pct"],
    )
    systems = [
        (WITHOUT_CC, 0),
        (CC, 2),
        (cc_threads(4), 8),
        (pipellm(1, 1), 2),
    ]
    base = None
    for system, threads in systems:
        res, _ = run_vllm(
            system, OPT_30B, ALPACA, FIG9_RATE, 6, scale.vllm_duration,
            reserve_bytes=ALPACA_30B_RESERVE,
        )
        lat = res.mean_normalized_latency
        if base is None:
            base = lat
        result.add_row(
            system=system.name,
            crypto_threads=threads,
            norm_latency_s_tok=lat,
            overhead_pct=100.0 * (lat / base - 1.0),
        )
    return result


# ---------------------------------------------------------------------------
# Figure 10 — prediction success-rate ablation
# ---------------------------------------------------------------------------

FIG10_RATE = 20.0
FIG10_RESERVE = 16 * GB


def fig10_success_rate(scale="quick") -> ExperimentResult:
    """PipeLLM vs PipeLLM-0 (0 % sequence prediction success).

    vLLM, OPT-30B, Alpaca, parallel 2 — Fig. 10. The paper measures
    only a ~8.3 % drop for PipeLLM-0, driven by NOP overhead.
    """
    scale = _scale(scale)
    result = ExperimentResult(
        "fig10",
        "Ablation on sequence-prediction success rate",
        columns=["system", "norm_latency_s_tok", "vs_pipellm_pct",
                 "success_rate", "nops"],
    )
    rows = []
    for system in (WITHOUT_CC, CC, pipellm(1, 1), pipellm_zero(1, 1)):
        res, runtime = run_vllm(
            system, OPT_30B, ALPACA, FIG10_RATE, 2, scale.vllm_duration,
            reserve_bytes=FIG10_RESERVE,
        )
        stats = runtime.stats() if system.uses_pipellm else {}
        rows.append((system.name, res.mean_normalized_latency, stats))
    pipe_lat = next(lat for name, lat, _ in rows if name == "PipeLLM")
    for name, lat, stats in rows:
        result.add_row(
            system=name,
            norm_latency_s_tok=lat,
            vs_pipellm_pct=100.0 * (lat / pipe_lat - 1.0),
            success_rate=stats.get("success_rate", ""),
            nops=stats.get("nops_sent", ""),
        )
    return result
