"""Workload generators: synthetic shapes, trace stand-ins, fine-tuning."""

from .finetune import ultrachat_batches
from .requests import FineTuneBatch, Request
from .synthetic import (
    FLEXGEN_256_32,
    FLEXGEN_32_128,
    SyntheticShape,
)
from .traces import (
    ALPACA,
    ALPACA_SERVE,
    SHAREGPT,
    SHAREGPT_SERVE,
    TraceSpec,
    poisson_trace,
)

__all__ = [
    "ALPACA",
    "ALPACA_SERVE",
    "FLEXGEN_256_32",
    "FLEXGEN_32_128",
    "FineTuneBatch",
    "Request",
    "SHAREGPT",
    "SHAREGPT_SERVE",
    "SyntheticShape",
    "TraceSpec",
    "poisson_trace",
    "ultrachat_batches",
]
