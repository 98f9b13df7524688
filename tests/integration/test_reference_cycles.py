"""Reference-cycle guard: a finished simulation leaves no kernel events
in reference cycles.

Events, timeouts and processes are freed by reference counting the
moment the kernel drops them. One caught in a cycle — say a bound
method cached on its own instance — lives until the cyclic collector
runs, which multiplies gen-0 collections and raises peak memory. Each
simulation below runs with the collector disabled; a collection right
after ``run()``, while the machine is still referenced, must find no
``repro.sim`` event among the unreachable objects.
"""

import gc

import pytest

from repro.sim import Event


def flexgen_pipellm():
    from repro.bench.systems import pipellm
    from repro.models import OPT_66B
    from repro.serving import FlexGenConfig, FlexGenEngine
    from repro.workloads import SyntheticShape

    machine, runtime = pipellm(8, 2).build()
    FlexGenEngine(machine, runtime, FlexGenConfig(
        OPT_66B, SyntheticShape(32, 4), batch_size=8, n_requests=8, seed=1,
    )).run()
    return machine


def tp2_cc():
    from repro.cc.machine import CcMode, build_machine
    from repro.models import OPT_30B
    from repro.parallel import TensorParallelEngine

    machine = build_machine(CcMode.ENABLED, n_gpus=2)
    TensorParallelEngine(machine, OPT_30B, batch=8, label="CC").run(output_tokens=2)
    return machine


@pytest.mark.parametrize("simulate", [flexgen_pipellm, tp2_cc])
def test_no_event_is_left_in_a_cycle(simulate):
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        machine = simulate()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        cyclic = sorted({type(o).__name__ for o in gc.garbage if isinstance(o, Event)})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert machine.sim.now > 0
    assert cyclic == []
