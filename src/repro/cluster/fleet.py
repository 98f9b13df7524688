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
the result fold (``_result``). Every fold, the serving front end's too,
starts from :meth:`Fleet._ledger` and adds the topology's own fields.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

from ..faults import FaultInjector
from ..sim import SeededRng, Simulator, default_seed, mean, percentile
from ..workloads import Request, TraceSpec, poisson_trace
from .incarnation import Incarnation
from .tenant import ClusterIvAudit

__all__ = ["CLUSTER_TRACE", "Fleet", "FleetRequest", "FleetResult"]

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
    #: First streamed token (nan until then), stamped once per request
    #: by the front door and kept across failover restarts.
    first_token_time: float = math.nan
    #: Dispatch (or prefill) attempts; 1 means no failover.
    attempts: int = 0
    #: Causal-trace linkage (set only while recording): the
    #: request's trace context and its open queue span.
    trace: Optional[Any] = None
    trace_queue: Optional[Any] = None

    @property
    def latency(self) -> float:
        """End-to-end latency (nan until done)."""
        return self.finish_time - self.submit_time

    @property
    def ttft(self) -> float:
        """Submit-to-first-token latency (nan until the first token)."""
        return self.first_token_time - self.submit_time


#: An ``as_dict`` key's unit suffix, dropped to name the attribute it reads.
_UNIT = re.compile(r"_(s|rps)$")


@dataclass
class FleetResult:
    """The ledger one fleet run folds into.

    :class:`~repro.cluster.cluster.ClusterResult`,
    :class:`~repro.disagg.cluster.DisaggResult` and
    :class:`~repro.serve.frontend.ServeResult` subclass it with their
    own counters and their ``KEYS``. Disagg and serve both report a
    ``goodput_rps``, but not the same goodput: disagg's counts
    completions per second (it is :attr:`throughput`), serve's counts
    SLO-attained completions per second of the offered-load window.
    """

    system: str
    #: Seconds the rates normalize over: the run to its last resolution
    #: (serve: the offered-load window).
    duration: float
    offered: int
    completed: int
    shed: int
    #: Requests neither completed nor shed when the run stopped.
    unfinished: int
    failovers: int
    crashes: int
    #: GCM tag-validation failures across every machine incarnation
    #: (must be 0 — the acceptance invariant).
    auth_failures: int
    #: Distinct (key, stream) IV lanes the fleet audit tracked / total IVs.
    iv_lanes: int
    iv_observed: int
    #: End-to-end latencies of completed requests (seconds).
    latencies: List[float]
    #: Time to first token of completed requests (seconds).
    ttfts: List[float]
    #: machine -> GPU-busy fraction of the run.
    utilization: Dict[Any, float]

    #: ``as_dict`` keys in order; each names the attribute it reads,
    #: less its unit suffix (``duration_s`` reads ``duration``).
    KEYS: ClassVar[Tuple[str, ...]] = ()

    @property
    def throughput(self) -> float:
        """Completed requests per simulated second."""
        return self.completed / self.duration if self.duration > 0 else 0.0

    @property
    def p50_latency(self) -> float:
        return percentile(self.latencies, 50)

    @property
    def p99_latency(self) -> float:
        return percentile(self.latencies, 99)

    @property
    def mean_latency(self) -> float:
        return mean(self.latencies)

    @property
    def p50_ttft(self) -> float:
        return percentile(self.ttfts, 50)

    @property
    def p99_ttft(self) -> float:
        return percentile(self.ttfts, 99)

    @property
    def mean_ttft(self) -> float:
        return mean(self.ttfts)

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for key in self.KEYS:
            value = getattr(self, _UNIT.sub("", key))
            out[key] = dict(value) if isinstance(value, dict) else value
        return out

    def check(self, where: str) -> None:
        """Raise unless the ledger closes — every offered request
        completed or shed, none left unfinished — and no GCM tag
        failed to validate."""
        if self.auth_failures:
            raise AssertionError(f"{where}: {self.auth_failures} auth failures")
        if self.unfinished:
            raise AssertionError(f"{where}: {self.unfinished} requests unfinished")
        if self.completed + self.shed != self.offered:
            raise AssertionError(
                f"{where}: {self.completed}+{self.shed} resolved of "
                f"{self.offered} offered"
            )


class Fleet:
    """Shared simulator, audit, faults and run driver of one fleet."""

    #: Every machine, in crash-index order (set by the subclass).
    machines: List[Incarnation]
    #: The front door: ``submit(creq)``, ``fail(machine)``,
    #: ``recover(machine)``, the ``completed`` list (in completion
    #: order) and the ``failovers`` count. A request's ``state`` says
    #: whether it was shed.
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
                reserve_bytes=config.reserve_bytes, params=params,
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
        if tenants < 1:
            raise ValueError("tenants must be >= 1")
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

    def _ledger(self, requests: List[FleetRequest]) -> Dict[str, Any]:
        """The shared :class:`FleetResult` fields of one run of ``requests``,
        read off each request's ``state`` and timestamps.

        The duration runs to the last request resolution, not to the
        last timer: lingering watchdogs would otherwise pad the run and
        depress throughput and utilization.
        """
        completed = self.front.completed
        shed = [c for c in requests if c.state == "shed"]
        unfinished = sum(c.state not in ("done", "shed") for c in requests)
        resolved = [
            c.finish_time
            for c in completed + shed
            if not math.isnan(c.finish_time)
        ]
        duration = max(resolved) if resolved and not unfinished else self.sim.now
        return dict(
            system=self.config.system,
            duration=duration,
            offered=len(requests),
            completed=len(completed),
            shed=len(shed),
            unfinished=unfinished,
            failovers=self.front.failovers,
            crashes=sum(m.crashes for m in self.machines),
            auth_failures=sum(m.auth_failures for m in self.machines),
            iv_lanes=self.audit.keys_seen(),
            iv_observed=self.audit.observed,
            latencies=[c.latency for c in completed if not math.isnan(c.latency)],
            ttfts=[c.ttft for c in completed if not math.isnan(c.ttft)],
            utilization={
                self._machine_key(m): (
                    m.busy_seconds / duration if duration > 0 else 0.0
                )
                for m in self.machines
            },
        )

    @staticmethod
    def _machine_key(machine: Incarnation) -> Any:
        """How ``utilization`` names a machine."""
        return machine.label

    # -- subclass surface -------------------------------------------------

    def _wrap(self, request: Request, tenant: str) -> FleetRequest:
        raise NotImplementedError

    def _scripted_target(self) -> Incarnation:
        """The machine the config's ``fail_at`` crash hits."""
        raise NotImplementedError

    def _result(self, requests: List[FleetRequest]) -> FleetResult:
        raise NotImplementedError
