"""The migration-aware scheduler over disaggregated worker pools.

One :class:`DisaggScheduler` routes every request through the
three-stage disaggregated lifecycle:

1. **prefill placement** — least-loaded over the *raw* prefill pool
   (the routing policies' own liveness filter is what keeps a stale
   pool list from steering work at a dead incarnation);
2. **migration** — on prefill completion the scheduler picks the
   decode destination (tenant-affinity rendezvous by default, so a
   tenant's KV keeps landing near its past KV) and drives the
   encrypted chunk stream through the :class:`~repro.disagg.migration.
   MigrationFabric`, holding the request until its KV has fully
   arrived;
3. **decode hand-off** — only then does the request enter the decode
   worker's admission queue (which may hold it further under KV
   pressure — hold-until-KV-arrival on both sides of the wire).

Failover implements the resume-vs-replay decision rule:

* the **source** died (mid-migration or before) → the retained KV copy
  is gone → **replay**: re-run prefill on a surviving prefill worker;
* the **destination** died while the request was still **holding**
  (KV arrived, no decode step yet) and the source still retains the
  prefill copy → **resume**: re-migrate the retained copy to a new
  destination, no recompute;
* the destination died after **decode started** → the decode-side KV
  has outgrown the retained prefill copy → **replay** (the retained
  copy alone cannot reconstruct the lost generation state).

With an empty prefill pool the scheduler runs the **monolithic
baseline**: requests route least-loaded straight to decode workers,
which prefill inline — no migration, but every resident request's
next token waits behind each newcomer's prompt.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from ..cluster import make_policy
from ..sim import Simulator
from ..telemetry import trace_collector
from .migration import MigrationFabric
from .workers import DecodeWorker, DisaggRequest, PrefillWorker

__all__ = ["DisaggScheduler"]


class DisaggScheduler:
    """Routes, migrates, and fails over disaggregated requests."""

    def __init__(
        self,
        sim: Simulator,
        prefill_pool: List[PrefillWorker],
        decode_pool: List[DecodeWorker],
        fabric: MigrationFabric,
        decode_policy: str = "affinity",
    ) -> None:
        self.sim = sim
        self.prefill_pool = prefill_pool
        self.decode_pool = decode_pool
        self.fabric = fabric
        for worker in [*prefill_pool, *decode_pool]:
            worker.scheduler = self
        #: Prefill placement tracks instantaneous imbalance; decode
        #: placement chases KV locality (rendezvous by tenant).
        self.prefill_policy = make_policy("least-loaded")
        self.decode_policy = make_policy(decode_policy)
        self.mono_policy = make_policy("least-loaded")

        self.completed: List[DisaggRequest] = []
        self.failovers = 0
        self.replays = 0
        self.resumes = 0
        #: Requests with no live worker to route to (flushed on recovery).
        self._parked: List[DisaggRequest] = []
        #: (request, source) pairs whose migration awaits a live decode
        #: worker (flushed on recovery).
        self._parked_migrations: List[Tuple[DisaggRequest, PrefillWorker]] = []
        #: Mints one trace per request; None unless built while recording.
        self._collector = trace_collector(sim)

    @property
    def monolithic(self) -> bool:
        """No prefill pool: decode workers prefill inline (baseline)."""
        return not self.prefill_pool

    # -- intake ----------------------------------------------------------

    def submit(self, creq: DisaggRequest) -> None:
        """Accept one request into the disaggregated pipeline."""
        if self._collector is not None:
            creq.trace = self._collector.start_trace(
                f"disagg.req-{creq.rid}", "request", "request", "scheduler",
                creq.submit_time,
            )
            creq.trace_queue = self._collector.begin(
                creq.trace, "route", "queue", "scheduler", self.sim.now
            )
        self._dispatch(creq)

    def _dispatch(self, creq: DisaggRequest) -> None:
        creq.attempts += 1
        creq.prefill_done_time = math.nan
        creq.kv_ready_time = math.nan
        if self.monolithic:
            worker = self.mono_policy.choose(creq.tenant, self.decode_pool)
            if worker is None:
                self._parked.append(creq)
                return
            self._close_queue_span(creq)
            worker.submit_local(creq)
        else:
            worker = self.prefill_policy.choose(creq.tenant, self.prefill_pool)
            if worker is None:
                self._parked.append(creq)
                return
            self._close_queue_span(creq)
            worker.submit(creq)

    def _close_queue_span(self, creq: DisaggRequest) -> None:
        if creq.trace_queue is not None:
            creq.trace_queue.collector.end(creq.trace_queue, self.sim.now)
            creq.trace_queue = None

    # -- migration -------------------------------------------------------

    def on_prefill_done(self, creq: DisaggRequest, src: PrefillWorker) -> None:
        """Prefill finished on ``src``: ship the KV to a decode worker."""
        self._start_migration(creq, src, resumed=False)

    def _start_migration(
        self, creq: DisaggRequest, src: PrefillWorker, resumed: bool
    ) -> None:
        dst = self.decode_policy.choose(creq.tenant, self.decode_pool)
        if dst is None:
            self._parked_migrations.append((creq, src))
            return
        self.sim.process(self._migrate(creq, src, dst, resumed))

    def _migrate(self, creq, src: PrefillWorker, dst: DecodeWorker, resumed: bool):
        creq.state = "migrating"
        if resumed:
            creq.resumes += 1
            self.resumes += 1
        record = yield from self.fabric.migrate(creq, src, dst, resumed=resumed)
        if record.complete and dst.alive:
            # Hold-until-KV-arrival: only now does the request enter
            # the decode worker's admission queue.
            creq.kv_ready_time = self.sim.now
            dst.submit_ready(creq)
            return
        self.failovers += 1
        if not (src.alive and src.has_kv(creq.rid)):
            self._replay(creq)
        else:
            self._start_migration(creq, src, resumed=True)

    # -- failover --------------------------------------------------------

    def _replay(self, creq: DisaggRequest) -> None:
        """Re-run prefill from scratch (the retained copy cannot help)."""
        self.replays += 1
        for worker in self.prefill_pool:
            if worker.alive:
                worker.release(creq.rid)
        self._dispatch(creq)

    def _retaining_src(self, creq: DisaggRequest) -> Optional[PrefillWorker]:
        for worker in self.prefill_pool:
            if worker.has_kv(creq.rid):
                return worker
        return None

    def fail(self, worker: PrefillWorker | DecodeWorker) -> None:
        """Crash one worker; orphans fail over per the decision rule."""
        for creq in worker.crash():
            self.failovers += 1
            self._failover(creq, worker.kind)

    def _failover(self, creq: DisaggRequest, kind: str) -> None:
        if kind == "prefill":
            # Queued or in-flight prefill died with its worker.
            self._replay(creq)
            return
        # Resume-vs-replay: "holding" means the migrated KV arrived but
        # no decode step consumed it — the retained prefill copy is
        # still an exact image, so re-shipping it loses nothing. Once
        # decode started, the lost KV had outgrown the copy: replay.
        if creq.state == "holding" and not self.monolithic:
            src = self._retaining_src(creq)
            if src is not None:
                self._start_migration(creq, src, resumed=True)
                return
        self._replay(creq)

    def recover(self, worker: PrefillWorker | DecodeWorker) -> None:
        """Re-attest one worker and flush everything parked on it."""
        worker.recover()
        for creq in self._drain(self._parked):
            self._dispatch(creq)
        for creq, src in self._drain(self._parked_migrations):
            if src.alive and src.has_kv(creq.rid):
                self._start_migration(creq, src, resumed=True)
            else:
                self._replay(creq)

    @staticmethod
    def _drain(parked: list) -> list:
        items = list(parked)
        parked.clear()
        return items

    # -- worker callbacks ------------------------------------------------

    def on_token(self, creq: DisaggRequest, worker, generated: int) -> None:
        if math.isnan(creq.first_token_time):
            creq.first_token_time = self.sim.now

    def on_complete(self, creq: DisaggRequest, worker) -> None:
        creq.state = "done"
        creq.finish_time = self.sim.now
        for src in self.prefill_pool:
            if src.alive:
                src.release(creq.rid)
        self._close_root(creq, "ok")
        self.completed.append(creq)

    def on_reject(self, creq: DisaggRequest, worker, reason: str) -> None:
        creq.state = "shed"
        creq.finish_time = self.sim.now
        self._close_root(creq, f"shed:{reason}")

    def _close_root(self, creq: DisaggRequest, status: str) -> None:
        if creq.trace is not None:
            self._close_queue_span(creq)
            creq.trace.collector.end(creq.trace, self.sim.now, status=status)
            creq.trace = None
