"""Bus-snooper log unit tests (the §8.1 attacker's viewpoint)."""

import pytest

from repro.hw import BusRecord, default_params
from repro.hw.pcie import PcieLink
from repro.sim import Simulator


@pytest.fixture
def link():
    return PcieLink(Simulator(), default_params())


class TestBusLog:
    def test_records_both_directions(self, link):
        link.transfer_h2d(100)
        link.transfer_d2h(200, cc_path=True)
        link.sim.run()
        assert [(r.direction, r.nbytes) for r in link.bus_log] == [
            ("h2d", 100), ("d2h", 200),
        ]

    def test_records_are_timestamped(self, link):
        def proc():
            yield link.sim.timeout(1.0)
            link.transfer_h2d(100)

        link.sim.process(proc())
        link.sim.run()
        assert link.bus_log[0].time == pytest.approx(1.0)

    def test_observed_nops_counts_one_byte(self, link):
        link.transfer_h2d(1, cc_path=True)
        link.transfer_h2d(1, cc_path=True)
        link.transfer_h2d(4096, cc_path=True)
        link.sim.run()
        assert link.observed_nops() == 2

    def test_observed_nops_follow_the_params_nop_size(self):
        link = PcieLink(Simulator(), default_params().with_overrides(nop_bytes=2))
        for nbytes in (1, 2, 2, 4096):
            link.transfer_h2d(nbytes, cc_path=True)
        link.sim.run()
        assert link.observed_nops() == 2

    def test_record_is_metadata_only(self):
        record = BusRecord(0.0, "h2d", 42)
        assert not hasattr(record, "payload")
        assert not hasattr(record, "plaintext")
