"""Pinned end-to-end digests of every serving engine (differential oracle).

Each engine runs a small workload under "w/o CC", CC and PipeLLM. The
digest covers the result's fields, the engine's ``swap_in_count``, the
plaintext every GPU tag ended up holding and, for PipeLLM, the
runtime's counters. A refactor of the engines must leave every digest
unchanged; an intended behaviour change re-pins them with

    PYTHONPATH=src python tests/serving/test_engine_golden.py
"""

import dataclasses
import hashlib

import pytest

from repro.cc import CcMode, CudaContext, build_machine
from repro.core import PipeLLMRuntime
from repro.models import OPT_13B, OPT_30B, OPT_66B
from repro.serving import (
    FlexGenConfig,
    FlexGenEngine,
    LayerwiseConfig,
    LayerwiseKvEngine,
    PeftConfig,
    PeftEngine,
    VllmConfig,
    VllmEngine,
    ZeroOffloadConfig,
    ZeroOffloadEngine,
)
from repro.sim import SeededRng
from repro.workloads import SHAREGPT, SyntheticShape, poisson_trace, ultrachat_batches

SYSTEMS = ("w/o CC", "CC", "PipeLLM")


def _build(system):
    if system == "w/o CC":
        machine = build_machine(CcMode.DISABLED)
        return machine, CudaContext(machine)
    machine = build_machine(CcMode.ENABLED, enc_threads=8, dec_threads=8)
    runtime = CudaContext(machine) if system == "CC" else PipeLLMRuntime(machine)
    return machine, runtime


ENGINES = {
    "flexgen": lambda m, r: FlexGenEngine(m, r, FlexGenConfig(
        OPT_66B, SyntheticShape(32, 4), batch_size=16, n_requests=32)),
    "peft": lambda m, r: PeftEngine(m, r, PeftConfig(
        OPT_30B, ultrachat_batches(3, 12, SeededRng(7)), resident_layers=36)),
    "zero": lambda m, r: ZeroOffloadEngine(m, r, ZeroOffloadConfig(
        OPT_13B, ultrachat_batches(3, 16, SeededRng(7)), resident_layers=30)),
    "layerwise": lambda m, r: LayerwiseKvEngine(m, r, LayerwiseConfig(
        OPT_30B, SyntheticShape(192, 3), batch_size=256)),
    "vllm": lambda m, r: VllmEngine(m, r, VllmConfig(
        OPT_30B, poisson_trace(SHAREGPT, 1.6, 25.0, SeededRng(42), parallel_n=6))),
}


def digest(engine_name, system):
    machine, runtime = _build(system)
    engine = ENGINES[engine_name](machine, runtime)
    result = engine.run()
    assert machine.gpu.auth_failures == 0
    h = hashlib.sha256()
    for field in dataclasses.fields(result):
        h.update(repr((field.name, getattr(result, field.name))).encode())
    h.update(repr(("swap_in_count", engine.swap_in_count)).encode())
    for tag, payload in sorted(machine.gpu._contents.items()):
        h.update(repr((tag, payload)).encode())
    if system == "PipeLLM":
        h.update(repr(sorted(runtime.stats().items())).encode())
    return h.hexdigest()


GOLDEN = {
    ("flexgen", "CC"): "69b6ccfe94347c86ae17f96087be2ff9d6a375c3e556c12e8b9723a53ccef99d",
    ("flexgen", "PipeLLM"): "e7604f9d204e825eb569494cca4701be7c9a47b8f967e15824bc22659199c236",
    ("flexgen", "w/o CC"): "6bab19a4bcf9bbe99c8e05361026a102ec6e783caed8562fe52872746a794005",
    ("layerwise", "CC"): "c8dbdd0c69a1130a9bcbfacdaea6336a440341aaa67dd45f06726aa8f434b04e",
    ("layerwise", "PipeLLM"): "3d78125dfe3d93fc3c6b135b939b8dc19b6e5f972f22d07206508757c98435b7",
    ("layerwise", "w/o CC"): "5f9ac0cb7ff5b1cdcb0672bc03c3bf9602ba59ea6d70a3a92f645d8c395afc91",
    ("peft", "CC"): "b05a23b87d4c31504a544f6d91f85392fdef719f897a2af126c8b44ec462740c",
    ("peft", "PipeLLM"): "3f2ff1205bd47e5b59bb30d89a4a1180623214a23ff17020c8a965b0ee3b76b5",
    ("peft", "w/o CC"): "7f9ac48d167f1c5ca1b455c10d288ea2a11594c1c8273f246e4a1846131417b0",
    ("vllm", "CC"): "3b75de879e2fec462d2053fe8edcba14375ee781f22791acc4bdcaf236851099",
    ("vllm", "PipeLLM"): "b601501e9e5dc8a5b359ba5cf68c39fc1dcefbd12c2078fca52278cfd9d96c67",
    ("vllm", "w/o CC"): "2b288ec81180dc7ff56854a252e8ad6d666eb5db1df190c2163d8b9660676458",
    ("zero", "CC"): "55ebcface0a5c0489c771635df9f5de475320365688c0c6a9e92292a0d1fd424",
    ("zero", "PipeLLM"): "44d84ad6c6253185b5ae6aaade33edcc2a3b0417614858a805db0c3c7f460544",
    ("zero", "w/o CC"): "392f9f2819c3219d2d08546331534cfa054bb31406eae6f22212ed32abba4a8d",
}


@pytest.mark.parametrize("engine_name,system", sorted(GOLDEN))
def test_engine_digest_pinned(engine_name, system):
    assert digest(engine_name, system) == GOLDEN[(engine_name, system)]


def test_every_engine_and_system_pinned():
    assert set(GOLDEN) == {(e, s) for e in ENGINES for s in SYSTEMS}


if __name__ == "__main__":
    for key in sorted((e, s) for e in ENGINES for s in SYSTEMS):
        print(f'    ("{key[0]}", "{key[1]}"): "{digest(*key)}",')
