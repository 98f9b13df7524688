"""Live encrypted KV-cache migration between disaggregated workers.

Disaggregated serving moves every prefilled KV cache from a prefill
worker's GPU to a decode worker's GPU — tens of megabytes per request,
on the TTFT critical path. Under confidential computing that movement
is exactly the traffic PipeLLM was built for: a strictly ordered
stream of same-sized chunks whose (destination, size) schedule a §5.1
hypothesis racer learns after one observation.

:class:`MigrationFabric` owns the cluster's migration plane:

* **per-link sessions** — every directed (prefill incarnation →
  decode incarnation) pair gets its own AES-GCM key and IV streams,
  chained off the fleet root key via the same HKDF link machinery the
  multi-GPU interconnect uses (:func:`repro.crypto.handshake.
  derive_link_session`). A recovered worker is a new incarnation, so
  post-crash streams can never collide with pre-crash ones — which
  the cluster-wide :class:`~repro.cluster.tenant.ClusterIvAudit`
  attached to every endpoint proves.
* **speculative staging** — :class:`MigrationSpeculator` (the GPU
  fabric's :class:`~repro.core.speculate.StreamSpeculator` loop, per
  *source worker*) predicts each chunk's (destination, size); a hit
  ships pre-encrypted under the predicted IV (``SessionEndpoint.seal``)
  at the CC DMA rate with crypto off the critical path; a miss
  discards the staged ciphertext *before the wire* and serializes
  behind inline AES-GCM, so TX/RX streams never desynchronize.
* **degradation** — the speculator's degradation controller
  (:mod:`repro.faults.policies`) parks speculation under a mispredict
  storm; parked chunks take the serialized-but-safe path until the
  time-driven probe re-enables staging.

Per-chunk timing (two CC channel legs: source GPU → source CVM →
destination CVM → destination GPU; the host-to-host hop rides inside
the same occupancy, as §7.2 measures end to end):

==========  ==========================================================
system      seconds per chunk
==========  ==========================================================
native      ``2 × ncc_occupancy`` — cleartext DMA at line rate
cc          ``2 × cc_occupancy`` — inline single-thread AES serialized
            into every leg (the CC-as-shipped baseline)
pipellm     hit: ``2 × cc_dma_time`` (pre-staged ciphertext, crypto
            concurrent); miss: the serialized ``cc`` cost
==========  ==========================================================

Chunks are padded to :data:`MIGRATION_CHUNK_BYTES` so the predictor's
(destination, size) key is constant across a migration — the same
reason real transports pick one MTU and stick to it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.speculate import StreamSpeculator
from ..crypto import derive_link_session
from ..hw import MB, HardwareParams
from ..sim import Simulator

__all__ = [
    "MIGRATION_CHUNK_BYTES",
    "MigrationFabric",
    "MigrationRecord",
    "MigrationSpeculator",
]

#: Fixed migration transfer unit. One OPT-13B token is ~0.8 MB of KV,
#: so a 64-token prompt is ~50 chunks — long enough for the repetitive
#: hypothesis to win after its single cold miss.
MIGRATION_CHUNK_BYTES = 1 * MB

#: Functional payload bytes per chunk (payload tiering: the cipher
#: carries these; the chunk's logical size drives all timing).
_PAYLOAD_BYTES = 16


class MigrationSpeculator(StreamSpeculator):
    """Per-source-worker schedule prediction for migration chunks.

    The :class:`~repro.core.speculate.StreamSpeculator` loop keyed by
    prefill incarnation (a chunk to decode worker *d* of *n* bytes is
    "swap-in of (d, n)"), with one shared degradation controller
    parking speculation fabric-wide under a mispredict storm.
    """

    def lookup(self, src: str, dst: int, nbytes: int) -> bool:
        """One chunk is about to migrate: was its crypto pre-arranged?"""
        hit = self._predict(src, dst, nbytes)
        if hit and self.faults is not None and self.faults.migration_mispredict(
            f"{src}->d{dst}"
        ):
            hit = False
        return self._settle(src, hit)


@dataclass
class MigrationRecord:
    """One KV migration attempt, chunk by chunk."""

    rid: int
    src: str
    dst: str
    kv_bytes: int
    chunks: int
    start: float
    end: float = 0.0
    delivered: int = 0
    hits: int = 0
    misses: int = 0
    resends: int = 0
    #: "ok" | "src-crashed" | "dst-crashed"
    status: str = "ok"
    #: True when this attempt re-ships a retained prefill copy after a
    #: decode-side crash (no prefill recompute).
    resumed: bool = False

    @property
    def complete(self) -> bool:
        return self.status == "ok" and self.delivered == self.chunks


def chunk_payload(rid: int, index: int) -> bytes:
    """Deterministic functional bytes of one KV chunk.

    Both ends derive the expectation independently, so the receiver
    can assert bit-exact round-trips without trusting the wire.
    """
    return hashlib.sha256(f"kv:{rid}:chunk{index}".encode()).digest()[:_PAYLOAD_BYTES]


class _MigrationLink:
    """One directed encrypted channel between two worker incarnations."""

    def __init__(self, label: str, session, audit) -> None:
        self.label = label
        self.tx, self.rx = session.endpoints(
            cpu_name=f"{label}:tx", gpu_name=f"{label}:rx"
        )
        if audit is not None:
            self.tx.attach_audit(audit)
            self.rx.attach_audit(audit)
        #: Wire serialization point: chunks on one directed link go
        #: back to back, concurrent migrations on it queue.
        self.busy_until = 0.0


class MigrationFabric:
    """The cluster's KV migration plane: links, crypto, speculation."""

    def __init__(
        self,
        sim: Simulator,
        fleet_key: bytes,
        params: HardwareParams,
        system: str = "pipellm",
        audit=None,
        faults=None,
    ) -> None:
        if system not in ("native", "cc", "pipellm"):
            raise ValueError(f"unknown migration system {system!r}")
        self.sim = sim
        self.fleet_key = bytes(fleet_key)
        self.params = params
        self.system = system
        self.audit = audit
        self.faults = faults
        self.speculator: Optional[MigrationSpeculator] = None
        if system == "pipellm":
            self.speculator = MigrationSpeculator(clock=lambda: sim.now, faults=faults)
        self._links: Dict[Tuple[str, str], _MigrationLink] = {}
        self.records: List[MigrationRecord] = []
        self.bytes_moved = 0
        #: Pure wire occupancy (queueing excluded) — the denominator
        #: of the speculation-recovery acceptance math.
        self.wire_seconds = 0.0
        self.chunks_shipped = 0

    # -- links -----------------------------------------------------------

    def link(self, src, dst) -> _MigrationLink:
        """The directed link between two *incarnations* (cached).

        The label bakes in both epochs, so a crashed-and-recovered
        worker talks over a freshly keyed channel: HKDF with a new
        info string yields a new AES-GCM key and new starting IVs,
        and the old incarnation's lanes simply stop moving.
        """
        src_label = f"{src.label}.e{src.epoch}"
        dst_label = f"{dst.label}.e{dst.epoch}"
        key = (src_label, dst_label)
        if key not in self._links:
            label = f"migrate:{src_label}->{dst_label}"
            session = derive_link_session(self.fleet_key, label)
            self._links[key] = _MigrationLink(label, session, self.audit)
        return self._links[key]

    # -- per-chunk timing -------------------------------------------------

    def chunk_seconds(self, staged: bool) -> float:
        """Wire occupancy of one chunk (two CC channel legs)."""
        p, n = self.params, MIGRATION_CHUNK_BYTES
        if self.system == "native":
            return 2.0 * p.ncc_occupancy(n)
        if staged:
            return 2.0 * p.cc_dma_time(n)
        return 2.0 * p.cc_occupancy(n)

    # -- migration -------------------------------------------------------

    def migrate(self, creq, src, dst, resumed: bool = False):
        """Ship one request's KV cache ``src`` → ``dst`` (a process).

        Yields simulator timeouts; returns the :class:`MigrationRecord`
        (via ``yield from``). Aborts — without crashing the process —
        the moment either incarnation dies, leaving ``status`` set so
        the scheduler can pick resume vs replay.
        """
        chunks = max(1, -(-creq.kv_bytes // MIGRATION_CHUNK_BYTES))
        src_epoch, dst_epoch = src.epoch, dst.epoch
        src_label = f"{src.label}.e{src_epoch}"
        link = self.link(src, dst)
        record = MigrationRecord(
            rid=creq.rid, src=src_label, dst=f"{dst.label}.e{dst_epoch}",
            kv_bytes=creq.kv_bytes, chunks=chunks, start=self.sim.now,
            resumed=resumed,
        )
        self.records.append(record)
        span = None
        if creq.trace is not None:
            span = creq.trace.collector.begin(
                creq.trace, f"migrate:{src.label}->{dst.label}", "migration",
                "fabric", self.sim.now,
            )
        for index in range(chunks):
            if not (src.alive and src.epoch == src_epoch):
                record.status = "src-crashed"
                break
            if not (dst.alive and dst.epoch == dst_epoch):
                record.status = "dst-crashed"
                break
            staged = False
            if self.speculator is not None:
                staged = self.speculator.lookup(
                    src_label, dst.replica_id, MIGRATION_CHUNK_BYTES
                )
            payload = chunk_payload(creq.rid, index)
            message = None
            if self.system != "native":
                # A hit ships pre-encrypted under the predicted IV; a
                # miss encrypts inline under the true next IV, and any
                # discarded staged ciphertext never touched the wire.
                message = link.tx.seal(payload, staged, MIGRATION_CHUNK_BYTES)
            seconds = self.chunk_seconds(staged)
            if self.faults is not None and self.faults.migration_drop(link.label):
                # Wire loss: retransmit the SAME ciphertext — the IV
                # was consumed exactly once, only occupancy doubles.
                seconds += self.chunk_seconds(staged=False)
                record.resends += 1
            start = max(self.sim.now, link.busy_until)
            link.busy_until = start + seconds
            self.wire_seconds += seconds
            self.chunks_shipped += 1
            yield self.sim.timeout(link.busy_until - self.sim.now)
            if not (dst.alive and dst.epoch == dst_epoch):
                record.status = "dst-crashed"
                break
            if message is not None:
                if link.rx.decrypt_next(message) != payload:
                    raise AssertionError("migrated KV chunk corrupted")
            record.delivered += 1
            record.hits += int(staged)
            record.misses += int(message is not None and not staged)
            self.bytes_moved += MIGRATION_CHUNK_BYTES
        record.end = self.sim.now
        if span is not None:
            span.collector.end(
                span, self.sim.now,
                status="ok" if record.complete else record.status,
            )
        return record

    # -- stats -----------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        return self.speculator.hit_rate if self.speculator is not None else 0.0

    def stats(self) -> Dict[str, float]:
        done = [r for r in self.records if r.complete]
        return {
            "migrations": len(self.records),
            "completed": len(done),
            "resumed": sum(1 for r in self.records if r.resumed),
            "chunks": sum(r.delivered for r in self.records),
            "resends": sum(r.resends for r in self.records),
            "bytes": self.bytes_moved,
            "hit_rate": self.hit_rate,
            "links": len(self._links),
            "wire_seconds": self.wire_seconds,
            "chunks_shipped": self.chunks_shipped,
        }
