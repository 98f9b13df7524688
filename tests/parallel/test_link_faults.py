"""Link storms: the interconnect under the fault plane.

A link storm forces mispredictions (plus jitter and drops) on the
fabric while a TP decode is running. The core assertions mirror the
paper's safety argument, applied per link: whatever the storm does,
no (key, IV) pair is ever reused, every collective completes with the
correct arithmetic result, and the degradation controller parks
speculation while the storm rages.
"""

import pytest

from repro.cc import CcMode, build_machine
from repro.cluster.tenant import ClusterIvAudit
from repro.faults import FaultInjector, FaultPlan, PipelineMode
from repro.models import OPT_13B
from repro.parallel import LinkSpeculator, TensorParallelEngine


def storm_run(rate, start=0.0, stop=None, tokens=3, warmup=8):
    injector = FaultInjector(FaultPlan.link_storm(rate, start=start, stop=stop),
                             seed=23)
    machine = build_machine(CcMode.ENABLED, n_gpus=2, enc_threads=8,
                            dec_threads=8, faults=injector)
    speculator = LinkSpeculator(lambda: machine.sim.now,
                                faults=injector, warmup=warmup)
    machine.interconnect.attach_speculator(speculator)
    audit = ClusterIvAudit()
    machine.interconnect.attach_audit(audit)
    engine = TensorParallelEngine(machine, OPT_13B, batch=16)
    result = engine.run(output_tokens=tokens)
    return machine, speculator, audit, injector, result


class TestLinkStorm:
    def test_storm_completes_with_zero_iv_reuse(self):
        # The audit raises IvReuseError on its own if any link lane
        # replays a counter; reaching the assertions below means the
        # full run survived with every stream monotone.
        machine, speculator, audit, injector, result = storm_run(0.8)
        assert result.tokens == 16 * 3
        assert audit.observed == 4 * result.hops
        assert injector.injected_total > 0

    def test_storm_parks_speculation(self):
        machine, speculator, audit, injector, result = storm_run(0.9)
        controller = speculator.controller
        entered = {mode for _, _, mode in controller.transitions}
        assert PipelineMode.DEGRADED.value in entered
        assert speculator.parked > 0

    def test_speculation_restored_after_the_storm(self):
        # Storm only in the first slice of the run: the controller must
        # degrade during it and probe its way back to speculative.
        _, clean_spec, _, _, clean = storm_run(0.0, tokens=4)
        t0 = clean.elapsed_s
        machine, speculator, audit, injector, result = storm_run(
            0.9, start=0.0, stop=0.25 * t0, tokens=4,
        )
        controller = speculator.controller
        entered = {mode for _, _, mode in controller.transitions}
        assert PipelineMode.DEGRADED.value in entered
        assert controller.mode is PipelineMode.SPECULATIVE
        assert result.tokens == clean.tokens

    def test_drops_exercise_the_replay_path(self):
        machine, speculator, audit, injector, result = storm_run(0.8)
        assert injector.recoveries.get("retry", 0) > 0
        assert result.tokens == 16 * 3

    def test_storm_slower_than_clean_but_correct(self):
        _, _, _, _, clean = storm_run(0.0)
        _, _, _, _, stormy = storm_run(0.8)
        assert stormy.elapsed_s > clean.elapsed_s
        # Same reduction arithmetic regardless of the storm.
        assert stormy.checksum == clean.checksum

    def test_interconnect_domain_isolated_from_pcie(self):
        injector = FaultInjector(FaultPlan.link_storm(0.8), seed=23)
        machine = build_machine(CcMode.ENABLED, n_gpus=2, faults=injector)
        machine.interconnect.transfer(0, 1, b"x", nbytes=1 << 20)
        machine.run()
        fired = set(injector.counts)
        assert not any(action.startswith("pcie") for action in fired)
