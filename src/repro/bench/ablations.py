"""Ablations on PipeLLM's design choices (beyond the paper's figures).

The paper ablates only prediction success (Fig. 10). These sweeps
cover the remaining load-bearing choices DESIGN.md calls out:

* ``ablation_enc_threads`` — §7.2 states model offloading needs
  multiple encryption threads so ciphertext production outruns the
  staged-DMA path; this sweep shows the throughput knee.
* ``ablation_async_decrypt`` — §5.4's asynchronous decryption: what
  swap-out decryption on the critical path would cost.
* ``ablation_leeway`` — the adaptive IV-leeway controller (our
  extension) against fixed-leeway configurations.
* ``ablation_kv_depth`` — staging window depth for the LIFO KV
  workload (deep windows invert IV order against commit order).
"""

from __future__ import annotations

from ..core import PipeLLMConfig
from ..hw import GB
from ..models import OPT_30B, OPT_66B
from ..workloads import ALPACA, SHAREGPT, SyntheticShape
from .experiments import (
    ALPACA_30B_RESERVE,
    FLEXGEN_BATCH,
    OFFLOAD_DEC_THREADS,
    get_scale,
    run_flexgen,
    run_vllm,
)
from .systems import WITHOUT_CC, pipellm
from .tables import ExperimentResult

__all__ = [
    "ablation_async_decrypt",
    "ablation_enc_threads",
    "ablation_kv_depth",
    "ablation_leeway",
]

_VLLM_RATE = 1.6  # OPT-30B / ShareGPT pressure point.
_ENC_THREADS = (1, 2, 4, 8)
_KV_DEPTHS = (1, 3, 8)


def ablation_enc_threads(scale="quick") -> ExperimentResult:
    """FlexGen OPT-66B throughput vs PipeLLM encryption thread count."""
    scale = get_scale(scale)
    shape = SyntheticShape(32, scale.flexgen_output or 128)
    result = ExperimentResult(
        "abl-threads",
        "PipeLLM encryption threads for model offloading (FlexGen OPT-66B)",
        columns=["enc_threads", "throughput_tok_s", "overhead_pct", "success_rate"],
    )
    base, _ = run_flexgen(WITHOUT_CC, OPT_66B, shape, FLEXGEN_BATCH, scale.flexgen_requests)
    for count in _ENC_THREADS:
        system = pipellm(count, OFFLOAD_DEC_THREADS, name=f"PipeLLM-{count}t")
        res, runtime = run_flexgen(system, OPT_66B, shape, FLEXGEN_BATCH, scale.flexgen_requests)
        result.add_row(
            enc_threads=count,
            throughput_tok_s=res.throughput,
            overhead_pct=100.0 * (1.0 - res.throughput / base.throughput),
            success_rate=runtime.stats()["success_rate"],
        )
    result.add_note(
        "one AES thread (~6.4 GB/s) cannot feed the ~47 GB/s staged-DMA "
        "path; the knee sits where aggregate AES bandwidth crosses it"
    )
    return result


def ablation_async_decrypt(scale="quick") -> ExperimentResult:
    """vLLM OPT-30B with §5.4 asynchronous decryption on vs off."""
    scale = get_scale(scale)
    result = ExperimentResult(
        "abl-asyncdec",
        "Asynchronous decryption (vLLM OPT-30B, ShareGPT, parallel 6)",
        columns=["system", "norm_latency_s_tok", "sync_decrypts", "async_decrypts"],
    )
    base, _ = run_vllm(WITHOUT_CC, OPT_30B, SHAREGPT, _VLLM_RATE, 6, scale.vllm_duration)
    result.add_row(system="w/o CC", norm_latency_s_tok=base.mean_normalized_latency,
                   sync_decrypts=0, async_decrypts=0)
    for label, flag in (("PipeLLM", True), ("PipeLLM-syncdec", False)):
        system = pipellm(1, 1, config=PipeLLMConfig(async_decrypt=flag), name=label)
        res, runtime = run_vllm(system, OPT_30B, SHAREGPT, _VLLM_RATE, 6, scale.vllm_duration)
        stats = runtime.stats()
        result.add_row(
            system=label,
            norm_latency_s_tok=res.mean_normalized_latency,
            sync_decrypts=stats["sync_decrypts"],
            async_decrypts=stats["async_decrypts"],
        )
    return result


def ablation_leeway(scale="quick") -> ExperimentResult:
    """Adaptive IV-leeway controller vs fixed leeway settings."""
    scale = get_scale(scale)
    result = ExperimentResult(
        "abl-leeway",
        "IV leeway policy (vLLM OPT-30B, Alpaca, parallel 6)",
        columns=["policy", "norm_latency_s_tok", "nops", "stale_restages", "success_rate"],
    )
    configs = [
        ("adaptive", PipeLLMConfig()),
        ("fixed-0", PipeLLMConfig(adaptive_leeway=False, leeway=0)),
        ("fixed-16", PipeLLMConfig(adaptive_leeway=False, leeway=16)),
    ]
    for label, config in configs:
        system = pipellm(1, 1, config=config, name=f"PipeLLM-{label}")
        res, runtime = run_vllm(
            system, OPT_30B, ALPACA, 10.0, 6, scale.vllm_duration,
            reserve_bytes=ALPACA_30B_RESERVE,
        )
        stats = runtime.stats()
        result.add_row(
            policy=label,
            norm_latency_s_tok=res.mean_normalized_latency,
            nops=stats["nops_sent"],
            stale_restages=stats["staged_total"] - stats["hits"] - stats["future_hits"],
            success_rate=stats["success_rate"],
        )
    result.add_note(
        "a pad NOP costs ~15 µs; re-encrypting a stale GB-scale chunk "
        "costs hundreds of ms of the single AES thread — the adaptive "
        "controller trades the former for the latter"
    )
    return result


def ablation_kv_depth(scale="quick") -> ExperimentResult:
    """KV staging-window depth (LIFO inversion vs readiness)."""
    scale = get_scale(scale)
    result = ExperimentResult(
        "abl-kvdepth",
        "KV staging window depth (vLLM OPT-30B, ShareGPT, parallel 6)",
        columns=["kv_depth", "norm_latency_s_tok", "evicted", "iv_skipped", "success_rate"],
    )
    for depth in _KV_DEPTHS:
        system = pipellm(1, 1, config=PipeLLMConfig(kv_depth=depth),
                         name=f"PipeLLM-d{depth}")
        res, runtime = run_vllm(system, OPT_30B, SHAREGPT, _VLLM_RATE, 6, scale.vllm_duration)
        stats = runtime.stats()
        result.add_row(
            kv_depth=depth,
            norm_latency_s_tok=res.mean_normalized_latency,
            evicted=stats["evicted"],
            iv_skipped=stats["invalidated_by_iv_skip"],
            success_rate=stats["success_rate"],
        )
    return result
