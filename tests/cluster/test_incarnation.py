"""The attested incarnation lifecycle shared by replicas and workers.

Every fleet machine (a cluster ``Replica``, a disagg ``PrefillWorker``
or ``DecodeWorker``) boots epoch *n* from handshake seeds derived from
its label and *n*, carries its busy time and GCM auth failures across
crashes, and treats a second crash or a redundant recovery as a no-op.
"""

import pytest

from repro.cc import build_attested_machine
from repro.cluster import Replica
from repro.crypto import AuthenticationError, tamper_tag
from repro.disagg import DecodeWorker, PrefillWorker
from repro.hw import MemoryChunk
from repro.models import OPT_13B
from repro.sim import Simulator

KINDS = [(Replica, 0, "r0"), (PrefillWorker, 1, "p1"), (DecodeWorker, 2, "d2")]


@pytest.fixture(params=KINDS, ids=[label for _, _, label in KINDS])
def machine(request):
    cls, index, label = request.param
    incarnation = cls(Simulator(), index, OPT_13B)
    assert incarnation.label == label
    return incarnation


def _attested_key(label: str, epoch: int) -> bytes:
    suffix = f"{label}.e{epoch}".encode()
    reference = build_attested_machine(
        host_seed=b"cvm:" + suffix, device_seed=b"dev:" + suffix
    )
    return reference.session.key


def _burn_gpu(machine) -> None:
    def work():
        yield machine.machine.gpu.compute(1e12, 1e9, layers=1)

    machine.sim.process(work())
    machine.sim.run()


def _fail_one_tag(machine) -> None:
    message = machine.machine.cpu_endpoint.encrypt_next(b"\x07" * 16)
    with pytest.raises(AuthenticationError):
        machine.machine.gpu.receive_ciphertext(
            MemoryChunk(0, 16, b"\x07" * 16, "tampered"), tamper_tag(message)
        )


class TestIncarnation:
    def test_epoch_keys_derive_from_label_and_epoch(self, machine):
        assert machine.epoch == 1
        first = machine.machine.session.key
        assert first == _attested_key(machine.label, 1)
        machine.crash()
        machine.recover()
        assert machine.epoch == 2
        assert machine.machine.session.key == _attested_key(machine.label, 2)
        assert machine.machine.session.key != first

    def test_busy_seconds_and_auth_failures_survive_a_crash(self, machine):
        _burn_gpu(machine)
        _fail_one_tag(machine)
        busy = machine.busy_seconds
        assert busy > 0
        assert machine.auth_failures == 1
        machine.crash()
        assert machine.busy_seconds == busy
        assert machine.auth_failures == 1
        machine.recover()
        assert machine.busy_seconds == busy
        assert machine.auth_failures == 1

    def test_crashing_a_dead_incarnation_returns_nothing(self, machine):
        machine.crash()
        assert machine.crash() == []
        assert machine.crashes == 1
        assert not machine.alive

    def test_recovering_a_live_incarnation_is_a_noop(self, machine):
        before = machine.machine
        machine.recover()
        assert machine.epoch == 1
        assert machine.machine is before
        assert machine.alive
