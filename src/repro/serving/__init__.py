"""LLM system substrates: FlexGen-, vLLM-, PEFT- and ZeRO-like engines."""

from .flexgen import FlexGenConfig, FlexGenEngine, FlexGenResult
from .layerwise import LayerwiseConfig, LayerwiseKvEngine, LayerwiseResult
from .peft import PeftConfig, PeftEngine, PeftResult
from .vllm import VllmConfig, VllmEngine, VllmResult
from .zero import ZeroOffloadConfig, ZeroOffloadEngine

__all__ = [
    "FlexGenConfig",
    "FlexGenEngine",
    "FlexGenResult",
    "LayerwiseConfig",
    "LayerwiseKvEngine",
    "LayerwiseResult",
    "PeftConfig",
    "PeftEngine",
    "PeftResult",
    "VllmConfig",
    "VllmEngine",
    "VllmResult",
    "ZeroOffloadConfig",
    "ZeroOffloadEngine",
]
