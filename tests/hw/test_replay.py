"""Link-level replay: one bounded retry loop under PCIe and the GPU fabric.

Both channels hand a faulty transfer to :func:`repro.hw.pcie.replayed`:
a dropped attempt is replayed after backoff until it goes through, and
once the retry budget is spent the link delivers anyway. Every
transfer completes; only time and the injector's recovery counts show
the drops.
"""

import pytest

from repro.cc import CcMode, build_machine
from repro.faults import FaultInjector, FaultPlan

NBYTES = 1 << 20
TRANSFERS = 8


def pcie(drop_rate):
    """Host→device DMAs: one replayed leg per transfer."""
    injector = FaultInjector(FaultPlan(pcie_drop_rate=drop_rate), seed=5)
    machine = build_machine(CcMode.ENABLED, faults=injector)
    return machine, injector, lambda: machine.pcie.transfer_h2d(NBYTES), 1


def fabric(drop_rate):
    """Bounce-buffer hops: an up leg and a down leg per transfer."""
    injector = FaultInjector(FaultPlan(link_drop_rate=drop_rate), seed=5)
    machine = build_machine(CcMode.ENABLED, n_gpus=2, faults=injector)

    def send():
        return machine.interconnect.transfer(0, 1, b"x", nbytes=NBYTES)

    return machine, injector, send, 2


def drive(channel, drop_rate):
    machine, injector, send, legs = channel(drop_rate)
    done = [send() for _ in range(TRANSFERS)]
    machine.run()
    assert all(event.triggered for event in done)
    return machine.sim.now, injector, TRANSFERS * legs


@pytest.mark.parametrize("channel", [pcie, fabric])
def test_drops_replay_until_delivered(channel):
    clean, clean_injector, _ = drive(channel, 0.0)
    assert clean_injector.recoveries == {}

    lossy, injector, _ = drive(channel, 0.5)
    assert injector.recoveries.get("retry", 0) > 0
    assert lossy > clean

    # Every attempt drops: each leg spends the whole retry budget and
    # then the link's own replay delivers it.
    _, injector, legs = drive(channel, 1.0)
    attempts = injector.retry.max_attempts
    assert injector.recoveries == {
        "retry": legs * (attempts - 1),
        "retry-exhausted": legs,
    }
    assert injector.injected_total == legs * attempts
