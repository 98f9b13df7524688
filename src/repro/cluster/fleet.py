"""The fleet driver shared by every multi-machine topology.

A :class:`Fleet` puts a whole serving fleet inside **one shared
simulator**. It owns what every topology drives the same way:

* the :class:`~repro.sim.Simulator`, the fleet-wide
  :class:`~repro.cluster.tenant.ClusterIvAudit`, and the fleet
  :class:`~repro.faults.FaultInjector` (when the config carries a
  fault plan), which gives each machine its own deterministic child;
* the seeded workload draw: Poisson arrivals, then one tenant per
  request from a forked stream;
* the run's processes, created in a fixed order: arrivals, the
  scripted ``fail_at`` crash/recover, then the plan-paced random crash
  schedule over one flat machine list;
* the rule that a run lasts until its last request resolved.

Subclasses (:class:`~repro.cluster.cluster.Cluster`,
:class:`~repro.disagg.cluster.DisaggCluster`) build ``machines`` (a
list of :class:`~repro.cluster.incarnation.Incarnation`) and the
``front`` door requests enter through, and supply the request wrapper
(``_wrap``), the scripted crash's target (``_scripted_target``) and
the result fold (``_result``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..faults import FaultInjector
from ..sim import SeededRng, Simulator, default_seed
from ..workloads import Request, TraceSpec, poisson_trace
from .incarnation import Incarnation
from .tenant import ClusterIvAudit

__all__ = ["CLUSTER_TRACE", "Fleet", "FleetRequest"]

#: Short-conversation trace used by the fleet experiments: enough
#: decode steps to exercise batching and swapping, small enough that
#: multi-machine sweeps stay fast.
CLUSTER_TRACE = TraceSpec(
    name="cluster",
    mean_prompt=64.0, sigma_prompt=0.6, max_prompt=256,
    mean_output=24.0, sigma_output=0.5, max_output=64,
)


@dataclass
class FleetRequest:
    """One tenant request as it moves through a fleet; each topology
    subclasses it with its own lifecycle fields."""

    rid: int
    tenant: str
    request: Request
    submit_time: float
    state: str = "queued"
    finish_time: float = math.nan
    #: Dispatch (or prefill) attempts; 1 means no failover.
    attempts: int = 0
    #: Causal-trace linkage (set only when a collector is active): the
    #: request's trace context and its open queue span.
    trace: Optional[Any] = None
    trace_queue: Optional[Any] = None

    @property
    def latency(self) -> float:
        """End-to-end latency (nan until done)."""
        return self.finish_time - self.submit_time


class Fleet:
    """Shared simulator, audit, faults and run driver of one fleet."""

    #: Every machine, in crash-index order (set by the subclass).
    machines: List[Incarnation]
    #: The front door: ``submit(creq)``, ``fail(machine)``,
    #: ``recover(machine)`` and the ``completed``/``shed`` lists.
    front: Any

    def __init__(self, config) -> None:
        self.config = config
        self.sim = Simulator()
        self.audit = ClusterIvAudit()
        #: Fleet-level injector (None without a plan). Each machine gets
        #: its own deterministic child; the parent paces the random
        #: crash schedule.
        self.faults: Optional[FaultInjector] = None
        if config.fault_plan is not None:
            self.faults = FaultInjector(
                config.fault_plan, seed=default_seed(config.seed)
            ).bind(self.sim)

    def _spawn(self, cls, count: int, spec, params) -> List[Incarnation]:
        """Boot ``count`` machines of one kind, each with its fault child."""
        config = self.config
        return [
            cls(
                self.sim, i, spec, system=config.system,
                block_size=config.block_size, reserve_bytes=config.reserve_bytes,
                params=params,
                faults=None if self.faults is None else self.faults.child(f"{cls.kind[0]}{i}"),
            )
            for i in range(count)
        ]

    # -- workload --------------------------------------------------------

    def workload(
        self,
        rate: float,
        duration: float,
        tenants: int = 4,
        trace: TraceSpec = CLUSTER_TRACE,
        parallel_n: int = 1,
    ) -> List[FleetRequest]:
        """Poisson arrivals spread over ``tenants`` tenants.

        Seeded by the config's seed (overridable process-wide via the
        CLI ``--seed``), so runs are reproducible end to end.
        """
        rng = SeededRng(default_seed(self.config.seed))
        requests = poisson_trace(trace, rate, duration, rng, parallel_n=parallel_n)
        rng_t = rng.fork("tenants")
        return [
            self._wrap(request, f"tenant-{rng_t.randint(0, tenants - 1)}")
            for request in requests
        ]

    # -- execution -------------------------------------------------------

    def run(self, requests: List[FleetRequest], until: Optional[float] = None):
        """Drive ``requests`` through the fleet and summarize the run."""
        self.start(
            sorted(requests, key=lambda c: c.submit_time),
            lambda c: c.submit_time, self._submit,
        )
        self.sim.run(until=until)
        return self._result(requests)

    def start(
        self, items: Sequence, at: Callable[[Any], float],
        submit: Callable[[Any], None],
    ) -> None:
        """Create the run's processes: ``submit(item)`` at simulated time
        ``at(item)`` for each of the time-sorted ``items``, then the
        config's scripted crash, then the plan-paced crash schedule."""
        self.sim.process(self._arrivals(items, at, submit))
        if self.config.fail_at is not None:
            self.sim.process(self._scripted_fault())
        plan = self.config.fault_plan
        if self.faults is not None and plan is not None and plan.replica_crash_rate > 0:
            # Bound the crash schedule so the simulator can drain: the
            # plan's window if set, else the arrival span.
            horizon = plan.stop
            if horizon is None:
                horizon = max((at(item) for item in items), default=0.0)
            self.sim.process(self._fault_plane(horizon))

    def _arrivals(self, items: Sequence, at, submit):
        for item in items:
            delay = at(item) - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
            submit(item)

    def _submit(self, creq: FleetRequest) -> None:
        creq.submit_time = self.sim.now
        self.front.submit(creq)

    def _scripted_fault(self):
        yield self.sim.timeout(self.config.fail_at)
        target = self._scripted_target()
        self.front.fail(target)
        if self.config.recover_after > 0:
            yield from self._recover_later(target, self.config.recover_after)

    def _fault_plane(self, horizon: float):
        """Random machine crashes: exponential inter-arrivals from the
        fleet injector's cluster stream, each followed by an attested
        recovery after the plan's delay. Stops pacing at ``horizon``."""
        inj = self.faults
        plan = self.config.fault_plan
        while True:
            interval = inj.next_crash_interval()
            if interval is None or self.sim.now + interval > horizon:
                return
            yield self.sim.timeout(interval)
            if not plan.active(self.sim.now):
                continue
            index = inj.pick_replica(len(self.machines))
            victim = self.machines[index]
            if not victim.alive:
                continue
            inj.record_crash(index)
            self.front.fail(victim)
            if plan.replica_recover_after > 0:
                self.sim.process(
                    self._recover_later(victim, plan.replica_recover_after)
                )

    def _recover_later(self, machine: Incarnation, delay: float):
        yield self.sim.timeout(delay)
        self.front.recover(machine)

    def _settled(self, requests: List[FleetRequest]) -> Tuple[float, int]:
        """The run's duration and its count of unfinished requests.

        The duration runs to the last request resolution, not to the
        last timer: lingering watchdogs would otherwise pad the run and
        depress throughput and utilization.
        """
        unfinished = sum(c.state not in ("done", "shed") for c in requests)
        resolved = [
            c.finish_time
            for c in self.front.completed + self.front.shed
            if not math.isnan(c.finish_time)
        ]
        duration = max(resolved) if resolved and not unfinished else self.sim.now
        return duration, unfinished

    # -- subclass surface -------------------------------------------------

    def _wrap(self, request: Request, tenant: str) -> FleetRequest:
        raise NotImplementedError

    def _scripted_target(self) -> Incarnation:
        """The machine the config's ``fail_at`` crash hits."""
        raise NotImplementedError

    def _result(self, requests: List[FleetRequest]):
        raise NotImplementedError
