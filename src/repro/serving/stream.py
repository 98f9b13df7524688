"""What the serving engines share: one run driver and one layer stream.

:class:`LayerStream` is the prefetch window of the offload engines
(FlexGen, PEFT, ZeRO-Offload): it overlaps the next layers' loads with
the current layer's compute over the repetitive swap pattern of
Figure 5a — the overlap CC's inline AES destroys (§3).
"""

from __future__ import annotations

from typing import Dict, Generic, List, Optional, TypeVar

from ..cc.api import DeviceRuntime, TransferHandle
from ..cc.machine import Machine
from ..hw.memory import Region
from ..models import TransformerCostModel

__all__ = ["Engine", "LayerStream"]

#: In-flight prefetched layer loads (FlexGen double buffering).
_PREFETCH_DEPTH = 2

ResultT = TypeVar("ResultT")


class Engine(Generic[ResultT]):
    """Runs the engine's ``_main`` generator as one simulator process;
    ``_main`` sets ``result``."""

    def __init__(self, machine: Machine, runtime: DeviceRuntime, config) -> None:
        self.machine = machine
        self.runtime = runtime
        self.config = config
        self.cost = TransformerCostModel(config.spec)
        self.swap_in_count = 0
        self.result: Optional[ResultT] = None

    def run(self) -> ResultT:
        """Execute the whole workload; returns the engine's summary."""
        self.machine.sim.process(self._main())
        self.machine.run()
        if self.result is None:
            raise RuntimeError(f"{type(self).__name__} run did not complete")
        return self.result


class LayerStream:
    """At most ``_PREFETCH_DEPTH`` layer loads in flight over ``order``.

    ``order`` is the consumption order, so the window head is always the
    next layer fetched and no load is ever issued synchronously. The one
    ordering rule: a stream must not run ahead across a host write to a
    region it loads, or that load ships the old bytes. Read-only weights
    may share one stream per run; rewritten ones need one per step.
    """

    def __init__(
        self, machine: Machine, runtime: DeviceRuntime,
        regions: Dict[int, Region], order: List[int],
    ) -> None:
        self.machine = machine
        self.runtime = runtime
        self._regions = regions
        self._order = order
        self._cursor = 0
        #: In-flight loads in issue order (the head is fetched next).
        self._window: Dict[int, TransferHandle] = {}

    def top_up(self):
        """Issue loads until the window is full; call while the GPU computes."""
        order, window = self._order, self._window
        while self._cursor < len(order) and len(window) < _PREFETCH_DEPTH:
            layer = order[self._cursor]
            if layer in window:
                break  # Same layer already in flight; wait for it.
            region = self._regions[layer]
            yield self.runtime.cpu_access(region.addr)
            handle = self.runtime.memcpy_h2d(self.machine.host_memory.chunk_at(region.addr))
            # The issuing thread blocks here under CC (inline AES);
            # this is precisely the overlap-killer of §3.
            yield handle.api_done
            window[layer] = handle
            self._cursor += 1

    def fetch(self, layer: int):
        """Top up, pop the window head (which must be ``layer``) and
        wait until its data has landed on the GPU."""
        yield from self.top_up()
        head = next(iter(self._window), None)
        if head != layer:
            raise RuntimeError(f"layer {layer} fetched out of order (next is {head})")
        # Wait on this load's own completion, not a device-wide
        # barrier, so the loads behind it keep streaming.
        yield self._window.pop(layer).complete
