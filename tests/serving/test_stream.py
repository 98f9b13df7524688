"""LayerStream: the offload engines' one prefetch window.

The generators are drained by hand (no simulator run): the window's
issue order and depth do not depend on when the loads land.
"""

import pytest

from repro.cc import CcMode, CudaContext, build_machine
from repro.serving.stream import LayerStream


def make_stream(order, layers=(0, 1, 2)):
    """A stream over ``order``; ``calls`` logs every runtime call."""
    machine = build_machine(CcMode.DISABLED)
    runtime = CudaContext(machine)
    regions = {
        layer: machine.host_memory.allocate(4096, tag=f"layer.{layer}", payload=b"w")
        for layer in layers
    }
    layer_at = {region.addr: layer for layer, region in regions.items()}
    calls = []
    cpu_access, memcpy_h2d = runtime.cpu_access, runtime.memcpy_h2d

    def logged_cpu_access(addr):
        calls.append(("cpu_access", layer_at[addr]))
        return cpu_access(addr)

    def logged_h2d(chunk):
        calls.append(("memcpy_h2d", layer_at[chunk.addr]))
        return memcpy_h2d(chunk)

    runtime.cpu_access = logged_cpu_access
    runtime.memcpy_h2d = logged_h2d
    return LayerStream(machine, runtime, regions, list(order)), calls


def issued(calls):
    return [layer for call, layer in calls if call == "memcpy_h2d"]


def drain(generator):
    for _ in generator:
        pass


def consume(stream, calls, order):
    """Fetch ``order`` with a top-up after each layer, as the engines
    do; returns the most loads ever issued and not yet consumed."""
    peak = 0
    for consumed, layer in enumerate(order):
        drain(stream.fetch(layer))
        peak = max(peak, len(issued(calls)) - consumed)
        drain(stream.top_up())
        peak = max(peak, len(issued(calls)) - consumed - 1)
    return peak


def test_loads_issued_in_the_given_order():
    order = [0, 1, 2, 0, 1, 2, 2, 1, 0]
    stream, calls = make_stream(order)
    consume(stream, calls, order)
    assert issued(calls) == order


def test_each_load_waits_on_cpu_access_first():
    order = [0, 1, 2]
    stream, calls = make_stream(order)
    consume(stream, calls, order)
    assert calls == [(call, layer) for layer in order for call in ("cpu_access", "memcpy_h2d")]


def test_at_most_two_loads_in_flight():
    order = [0, 1, 2] * 4
    stream, calls = make_stream(order)
    assert consume(stream, calls, order) == 2


def test_layer_in_flight_stops_issue_at_turnaround():
    # PEFT's forward/backward turnaround: ..., 2, 2, ...
    order = [0, 1, 2, 2, 1, 0]
    stream, calls = make_stream(order)
    for layer in (0, 1):
        drain(stream.fetch(layer))
        drain(stream.top_up())
    # Layer 2 is in flight, so its second load waits for the first.
    assert issued(calls) == [0, 1, 2]
    stream, calls = make_stream(order)
    assert consume(stream, calls, order) <= 2


def test_single_offloaded_layer_streams_one_load_at_a_time():
    order = [2, 2, 2, 2]
    stream, calls = make_stream(order, layers=(2,))
    assert consume(stream, calls, order) == 1
    assert issued(calls) == order


def test_fetch_out_of_order_raises_instead_of_loading():
    stream, calls = make_stream([0, 1])
    with pytest.raises(RuntimeError, match="out of order"):
        drain(stream.fetch(1))
    # The prefetches were issued; nothing was loaded synchronously.
    assert issued(calls) == [0, 1]


def test_fetch_past_the_end_raises():
    stream, calls = make_stream([0])
    drain(stream.fetch(0))
    with pytest.raises(RuntimeError, match="out of order"):
        drain(stream.fetch(0))
    assert issued(calls) == [0]
