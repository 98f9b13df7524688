"""Disaggregated prefill/decode serving with live encrypted KV migration.

The package splits LLM serving across dedicated prefill and decode
pools inside one simulator and moves every finished KV cache between
them as a speculatively pipelined AES-GCM chunk stream — PipeLLM's
§5.1 machinery applied to the one transfer disaggregation cannot
avoid. See :mod:`repro.disagg.cluster` for the orchestration entry
point (:func:`run_disagg`) and :mod:`repro.bench.disagg` for the
acceptance campaign behind ``python -m repro run disagg``.
"""

from .cluster import DisaggCluster, DisaggResult, run_disagg
from .migration import (
    MIGRATION_CHUNK_BYTES,
    MigrationFabric,
    MigrationRecord,
    MigrationSpeculator,
)
from .scheduler import DisaggScheduler
from .workers import DecodeWorker, DisaggRequest, PrefillWorker

__all__ = [
    "MIGRATION_CHUNK_BYTES",
    "DecodeWorker",
    "DisaggCluster",
    "DisaggRequest",
    "DisaggResult",
    "DisaggScheduler",
    "MigrationFabric",
    "MigrationRecord",
    "MigrationSpeculator",
    "PrefillWorker",
    "run_disagg",
]
