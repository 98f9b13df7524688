"""Per-layer host-time attribution for the traced run.

The benchmark wraps each layer's public entry points, resolved by
dotted name (``module:Class.attr`` or ``module:function``), from its
own files; nothing under ``src/`` is edited. Every wrapped call
records a span: name, start, end, parent span and iteration. Spans
are aggregated on the fly into *self time*: a span's duration minus
the part of it its child spans cover. Because calls nest strictly on
one thread, the self times of all spans in an iteration add up to the
iteration's root span exactly (integer nanoseconds), and the root's
own self time is the host time no wrapper covered.

Generators are timed per resumption: generator-function targets are
wrapped in a proxy that times each ``send``/``throw``, and every
generator handed to ``Simulator.process`` gets the same proxy, with
its layer taken from the module that defines it. The three hottest
kernel calls (``Simulator.timeout``/``event``/``process``) are counted
but not timed.

A span's layer is the layer of the module that defines its target
(``MODULE_LAYERS``, longest prefix first). A target that no longer
exists is reported in ``Tracer.missing``; it never stops the run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "COUNTED",
    "LAYER_METRICS",
    "MODULE_LAYERS",
    "ROOT",
    "TIMED",
    "Tracer",
    "layer_of_module",
]

#: Name and layer of the root span the runner opens per iteration.
ROOT = "iteration"
BENCH_LAYER = "(unwrapped)"

#: Module prefix -> layer; the first matching prefix wins.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim", "sim"),
    ("repro.core.patterns", "core.patterns"),
    ("repro.core.predictor", "core.predictor"),
    ("repro.core.validator", "core.predictor"),
    ("repro.core.classify", "core.predictor"),
    ("repro.core.pipeline", "core.pipeline"),
    ("repro.core", "core.runtime"),
    ("repro.cc", "cc.api"),
    ("repro.crypto.handshake", "crypto.handshake"),
    ("repro.crypto", "crypto"),
    ("repro.hw", "hw"),
    ("repro.serving", "serving"),
    ("repro.models", "serving"),
    ("repro.workloads", "serving"),
    ("repro.parallel", "parallel"),
    ("repro.cluster", "cluster"),
    ("repro.serve", "serve"),
    ("repro.disagg", "disagg"),
    ("repro.faults", "faults"),
    ("repro.telemetry", "telemetry"),
    ("repro.tracing", "tracing"),
    ("repro.observatory", "observatory"),
    ("repro", "other"),
)


def layer_of_module(module: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return BENCH_LAYER


def _each(owner: str, attrs: Iterable[str]) -> List[str]:
    return [f"{owner}.{attr}" for attr in attrs]


_DETECTOR_METHODS = ("observe_swap_in", "observe_swap_out", "predict")
_GCM_METHODS = ("encrypt", "decrypt", "try_decrypt")
_INJECTOR_QUERIES = (
    "pcie_drop", "pcie_jitter", "engine_service_time", "corrupt_tag",
    "desync_iv", "mispredict", "link_drop", "link_jitter",
    "link_mispredict", "migration_mispredict", "migration_drop",
    "next_crash_interval", "pick_replica", "note_recovery",
)

#: Timed entry points of every layer.
TIMED: Tuple[str, ...] = (
    "repro.sim.core:Simulator.run",
    *[t for cls in ("RepetitiveDetector", "FifoDetector", "LifoDetector", "MarkovDetector")
      for t in _each(f"repro.core.patterns:{cls}", _DETECTOR_METHODS)],
    *_each("repro.core.predictor:SwapPredictor", (
        "observe_swap_out", "observe_swap_in", "best_detector", "predict",
        "predict_all", "scores",
    )),
    *_each("repro.core.pipeline:SpeculationPipeline",
           ("refill", "invalidate_overlapping", "drop_stale")),
    *_each("repro.core.runtime:PipeLLMRuntime", ("memcpy_h2d", "memcpy_d2h", "synchronize")),
    *_each("repro.cc.api:CudaContext", ("memcpy_h2d", "memcpy_d2h", "synchronize")),
    *_each("repro.crypto.gcm:AesGcm", _GCM_METHODS),
    *_each("repro.crypto.backend:NumpyGcm", _GCM_METHODS),
    *_each("repro.crypto.backend:CryptographyGcm", _GCM_METHODS),
    *_each("repro.crypto.session:SessionEndpoint",
           ("encrypt_next", "encrypt_with_iv", "commit_tx_iv", "decrypt_next")),
    "repro.crypto.handshake:DhKeyPair.generate",
    "repro.crypto.handshake:DhKeyPair.shared_secret",
    "repro.crypto.handshake:hkdf",
    "repro.crypto.handshake:derive_link_session",
    *_each("repro.hw.pcie:PcieLink", ("transfer_h2d", "transfer_d2h")),
    *_each("repro.hw.engine:CryptoEngine", (
        "submit_encrypt", "submit_encrypt_inline_cc", "submit_decrypt_inline_cc",
        "submit_encrypt_parallel", "submit_decrypt", "submit_decrypt_parallel",
    )),
    "repro.hw.dma:DmaStaging.stage",
    "repro.hw.interconnect:Interconnect.transfer",
    *_each("repro.hw.gpu:GpuEnclave", (
        "alloc", "free_alloc", "receive_ciphertext", "receive_plaintext",
        "send_ciphertext", "store_plaintext", "compute",
    )),
    "repro.serving.flexgen:FlexGenEngine.run",
    *_each("repro.serving.vllm.block_manager:BlockManager",
           ("allocate", "free_owner", "can_allocate")),
    "repro.serving.vllm.scheduler:SchedulerState.pick_victim",
    "repro.parallel.tp:TensorParallelEngine.run",
    "repro.parallel.speculate:LinkSpeculator.lookup",
    *_each("repro.parallel.collectives:Communicator", ("send", "all_reduce", "all_gather")),
    *_each("repro.cluster.gateway:Gateway",
           ("submit", "on_token", "on_complete", "fail", "recover")),
    *_each("repro.serve.frontend:ServeFrontend",
           ("submit", "on_token", "on_requeue", "on_complete", "on_shed", "run")),
    *_each("repro.serve.admission:SloAdmission", ("offer", "release", "expire", "on_done")),
    "repro.disagg.scheduler:DisaggScheduler.submit",
    "repro.disagg.migration:MigrationFabric.migrate",
    "repro.disagg.migration:MigrationSpeculator.lookup",
    *_each("repro.faults.injector:FaultInjector", _INJECTOR_QUERIES),
    "repro.faults.policies:DegradationController.observe",
    *_each("repro.telemetry.hub:TelemetryHub", ("emit", "begin_request", "mark_complete")),
    *_each("repro.tracing.context:TraceCollector",
           ("begin", "end", "add", "adopt_record", "start_trace")),
    *_each("repro.tracing.alerts:AlertEngine", ("observe_slo", "observe_event")),
    "repro.observatory.profiler:profile_hub",
)

#: The kernel's hottest calls: counted as ``sim.events``, never timed.
#: ``Simulator.process`` also proxies its generator so each resumption
#: is a span of the generator's own layer.
COUNTED: Tuple[str, ...] = (
    "repro.sim.core:Simulator.timeout",
    "repro.sim.core:Simulator.event",
    "repro.sim.core:Simulator.process",
)


# -- hooks: counts recorded where the work happens -----------------------

Hook = Callable[["Tracer", tuple, dict, Any], None]


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs.get(name)


def _count(counter: str, amount: Callable[[tuple, dict, Any], int] = lambda a, k, r: 1) -> Hook:
    def hook(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
        tracer.counts[counter] = tracer.counts.get(counter, 0) + amount(args, kwargs, result)
    return hook


def _collect(kind: str) -> Hook:
    def hook(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
        tracer.instances.setdefault(kind, {})[id(args[0])] = args[0]
    return hook


def _both(*hooks: Hook) -> Hook:
    def hook(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
        for h in hooks:
            h(tracer, args, kwargs, result)
    return hook


def _offer(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    key = "serve.shed" if str(result).startswith("shed") else f"serve.{result}"
    tracer.counts[key] = tracer.counts.get(key, 0) + 1


def _gcm_bytes(name: str) -> Hook:
    return _count("crypto.gcm.bytes", lambda a, k, r: len(_arg(a, k, 2, name) or b""))


_GCM_HOOKS: Dict[str, Hook] = {}
for _owner in ("repro.crypto.gcm:AesGcm", "repro.crypto.backend:NumpyGcm",
               "repro.crypto.backend:CryptographyGcm"):
    # try_decrypt wraps decrypt, so operations and bytes are counted
    # on encrypt/decrypt only.
    _GCM_HOOKS[f"{_owner}.encrypt"] = _both(_count("crypto.gcm.ops"), _gcm_bytes("plaintext"))
    _GCM_HOOKS[f"{_owner}.decrypt"] = _both(_count("crypto.gcm.ops"), _gcm_bytes("ciphertext"))

HOOKS: Dict[str, Hook] = {
    **_GCM_HOOKS,
    "repro.sim.core:Simulator.run": _collect("sims"),
    **{t: _collect("pipelines") for t in _each(
        "repro.core.pipeline:SpeculationPipeline",
        ("refill", "invalidate_overlapping", "drop_stale"))},
    **{t: _collect("runtimes") for t in _each(
        "repro.core.runtime:PipeLLMRuntime", ("memcpy_h2d", "memcpy_d2h", "synchronize"))},
    **{t: _count("hw.pcie.bytes", lambda a, k, r: int(_arg(a, k, 1, "nbytes")))
       for t in _each("repro.hw.pcie:PcieLink", ("transfer_h2d", "transfer_d2h"))},
    "repro.hw.interconnect:Interconnect.transfer": _both(
        _count("hw.interconnect.hops"), _collect("interconnects")),
    "repro.parallel.speculate:LinkSpeculator.lookup": _count(
        "parallel.hits", lambda a, k, r: int(bool(r))),
    "repro.cluster.gateway:Gateway.submit": _collect("gateways"),
    "repro.serve.admission:SloAdmission.offer": _offer,
    "repro.serve.admission:SloAdmission.expire": _count(
        "serve.shed", lambda a, k, r: len(r)),
    "repro.serve.frontend:ServeFrontend.on_shed": _count("serve.shed"),
    "repro.disagg.migration:MigrationFabric.migrate": _collect("fabrics"),
    "repro.disagg.migration:MigrationSpeculator.lookup": _both(
        _count("disagg.hits", lambda a, k, r: int(bool(r))), _collect("speculators")),
    **{f"repro.faults.injector:FaultInjector.{q}": _collect("injectors")
       for q in _INJECTOR_QUERIES},
    "repro.faults.policies:DegradationController.observe": _collect("controllers"),
}


def _auth_failure(tracer: "Tracer", args: tuple, kwargs: dict, exc: BaseException) -> None:
    if type(exc).__name__ == "AuthenticationError":
        tracer.counts["crypto.gcm.auth_failures"] = (
            tracer.counts.get("crypto.gcm.auth_failures", 0) + 1
        )


ERROR_HOOKS: Dict[str, Callable[["Tracer", tuple, dict, BaseException], None]] = {
    f"{owner}.decrypt": _auth_failure
    for owner in ("repro.crypto.gcm:AesGcm", "repro.crypto.backend:NumpyGcm",
                  "repro.crypto.backend:CryptographyGcm")
}


# -- the per-layer metrics ----------------------------------------------

#: (name, unit) of every per-layer metric, in report order.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("sim.host_s", "s"),
    ("sim.events", "count"),
    ("sim.host_us_per_event", "us"),
    ("sim.horizon", "sim_s"),
    ("core.patterns.calls", "count"),
    ("core.patterns.host_s", "s"),
    ("core.patterns.repetitive.host_s", "s"),
    ("core.predictor.calls", "count"),
    ("core.predictor.host_s", "s"),
    ("core.predictor.hit_ratio", "ratio"),
    ("core.pipeline.host_s", "s"),
    ("core.pipeline.staged", "count"),
    ("core.pipeline.invalidated", "count"),
    ("core.runtime.transfers", "count"),
    ("core.runtime.host_s", "s"),
    ("core.runtime.nops", "count"),
    ("core.runtime.auth_recoveries", "count"),
    ("cc.api.transfers", "count"),
    ("cc.api.host_s", "s"),
    ("crypto.host_s", "s"),
    ("crypto.gcm.calls", "count"),
    ("crypto.gcm.bytes", "bytes"),
    ("crypto.gcm.host_s", "s"),
    ("crypto.gcm.auth_failures", "count"),
    ("crypto.handshake.calls", "count"),
    ("crypto.handshake.host_s", "s"),
    ("hw.host_s", "s"),
    ("hw.pcie.bytes", "bytes"),
    ("hw.engine.jobs", "count"),
    ("hw.interconnect.hops", "count"),
    ("hw.crit.encrypt_share", "ratio"),
    ("hw.crit.pcie_share", "ratio"),
    ("serving.host_s", "s"),
    ("parallel.host_s", "s"),
    ("parallel.lookups", "count"),
    ("parallel.hit_ratio", "ratio"),
    ("parallel.bounce_bytes", "bytes"),
    ("cluster.host_s", "s"),
    ("cluster.submits", "count"),
    ("cluster.failovers", "count"),
    ("serve.host_s", "s"),
    ("serve.admit", "count"),
    ("serve.hold", "count"),
    ("serve.shed", "count"),
    ("serve.swap_outs", "count"),
    ("disagg.host_s", "s"),
    ("disagg.chunks", "count"),
    ("disagg.hit_ratio", "ratio"),
    ("disagg.resends", "count"),
    ("disagg.parked", "count"),
    ("faults.host_s", "s"),
    ("faults.injected", "count"),
    ("faults.recoveries", "count"),
    ("faults.mode_switches", "count"),
    ("telemetry.events", "count"),
    ("telemetry.host_s", "s"),
    ("tracing.spans", "count"),
    ("tracing.host_s", "s"),
    ("observatory.host_s", "s"),
    ("unwrapped.host_s", "s"),
    ("trace_overhead_pct", "%"),
)

#: Layers reported as ``<layer>.host_s`` (self time per iteration): the
#: ``*.host_s`` metrics named after a layer of ``MODULE_LAYERS``. The
#: rest (``core.patterns.repetitive``, ``crypto.gcm``, ``unwrapped``)
#: are parts of a layer or the remainder, not layers.
TIMED_LAYERS = tuple(
    name[: -len(".host_s")] for name, _ in LAYER_METRICS
    if name.endswith(".host_s") and name[: -len(".host_s")] in dict(MODULE_LAYERS).values()
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- the tracer ----------------------------------------------------------


class Tracer:
    """Installs the wrappers, records spans, and folds them per layer."""

    def __init__(self, keep_spans: int = 0) -> None:
        #: Open spans: [name, start_ns, child_ns, span_id].
        self._stack: List[list] = []
        self._next_id = 0
        #: Per span name, for the current iteration.
        self.self_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        self.instances: Dict[str, Dict[int, Any]] = {}
        #: Span name -> layer, for every name ever recorded.
        self.layer_of: Dict[str, str] = {ROOT: BENCH_LAYER}
        #: Retained spans (name, start_ns, end_ns, id, parent, iteration)
        #: for the Chrome export; the first ``keep_spans`` are kept.
        self.spans: List[Tuple[str, int, int, int, int, int]] = []
        self._keep = keep_spans
        self.iteration = -1
        #: Duration of the last closed root span.
        self.root_ns = 0
        #: Targets that could not be resolved, with the reason.
        self.missing: List[Tuple[str, str]] = []
        #: (owner, attribute, had its own attribute, original value).
        self._patches: List[Tuple[Any, str, bool, Any]] = []
        #: Generator code object -> span name of its resumptions.
        self._process_names: Dict[Any, str] = {}

    # -- spans -----------------------------------------------------------

    def _push(self, name: str) -> None:
        self._stack.append([name, time.perf_counter_ns(), 0, self._next_id])
        self._next_id += 1

    def _pop(self) -> int:
        end = time.perf_counter_ns()
        name, start, child, span_id = self._stack.pop()
        duration = end - start
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - child
        self.calls[name] = self.calls.get(name, 0) + 1
        parent = -1
        if self._stack:
            top = self._stack[-1]
            top[2] += duration
            parent = top[3]
        if self._keep:
            self._keep -= 1
            self.spans.append((name, start, end, span_id, parent, self.iteration))
        return duration

    def begin_iteration(self, index: int) -> None:
        """Clear the per-iteration tallies and open the root span."""
        self.self_ns, self.calls, self.counts, self.instances = {}, {}, {}, {}
        self.iteration = index
        self._push(ROOT)

    def end_iteration(self) -> None:
        """Close the root span; ``root_ns`` is then its duration."""
        self.root_ns = self._pop()
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open at iteration end")

    # -- wrappers --------------------------------------------------------

    def _traced_generator(self, name: str, gen):
        push, pop = self._push, self._pop
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            push(name)
            try:
                target = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                pop()
            error = None
            try:
                value = yield target
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # delivered into the wrapped generator
                error, value = exc, None

    def _timed(self, name: str, fn: Callable, hook: Optional[Hook], on_error) -> Callable:
        push, pop, tracer = self._push, self._pop, self

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, kwargs, None)
                return tracer._traced_generator(name, gen)
        else:
            def wrapper(*args, **kwargs):
                push(name)
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    if on_error is not None:
                        on_error(tracer, args, kwargs, exc)
                    raise
                finally:
                    pop()
                if hook is not None:
                    hook(tracer, args, kwargs, result)
                return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _counted(self, target: str, fn: Callable) -> Callable:
        tracer = self

        if target.endswith(".process"):
            proxy_code = self._traced_generator.__code__

            def wrapper(sim, generator, *args, **kwargs):
                tracer.counts["sim.events"] = tracer.counts.get("sim.events", 0) + 1
                frame = getattr(generator, "gi_frame", None)
                if frame is not None and generator.gi_code is not proxy_code:
                    name = tracer._process_names.get(generator.gi_code)
                    if name is None:
                        module = frame.f_globals.get("__name__", "")
                        name = f"{module}:{generator.__qualname__}"
                        tracer._process_names[generator.gi_code] = name
                        tracer.layer_of[name] = layer_of_module(module)
                    generator = tracer._traced_generator(name, generator)
                return fn(sim, generator, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                tracer.counts["sim.events"] = tracer.counts.get("sim.events", 0) + 1
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # -- install / uninstall ---------------------------------------------

    def install(self, timed: Iterable[str] = TIMED, counted: Iterable[str] = COUNTED) -> None:
        """Wrap every resolvable target; unresolvable ones go to ``missing``."""
        for target in timed:
            self._patch(target, counted=False)
        for target in counted:
            self._patch(target, counted=True)

    def _patch(self, target: str, counted: bool) -> None:
        module_name, _, path = target.partition(":")
        try:
            module = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            owner: Any = module
            for part in owners:
                owner = getattr(owner, part)
        except (ImportError, AttributeError) as exc:
            self.missing.append((target, f"{type(exc).__name__}: {exc}"))
            return
        if owner is module:
            self._patch_function(target, module, attr)
        else:
            self._patch_method(target, owner, attr, counted)

    def _patch_method(self, target: str, cls: type, attr: str, counted: bool) -> None:
        raw = None
        for klass in cls.__mro__:
            if attr in vars(klass):
                raw = vars(klass)[attr]
                break
        if raw is None:
            self.missing.append((target, f"AttributeError: no attribute {attr!r}"))
            return
        self.layer_of[target] = layer_of_module(getattr(raw, "__module__", None)
                                                or cls.__module__)
        if isinstance(raw, (classmethod, staticmethod)):
            fn = raw.__func__
            wrapped = type(raw)(self._timed(target, fn, HOOKS.get(target),
                                            ERROR_HOOKS.get(target)))
        elif counted:
            wrapped = self._counted(target, raw)
        else:
            wrapped = self._timed(target, raw, HOOKS.get(target), ERROR_HOOKS.get(target))
        self._patches.append((cls, attr, attr in vars(cls), vars(cls).get(attr)))
        setattr(cls, attr, wrapped)

    def _patch_function(self, target: str, module: Any, attr: str) -> None:
        original = vars(module).get(attr)
        if not callable(original):
            self.missing.append((target, f"AttributeError: no function {attr!r}"))
            return
        self.layer_of[target] = layer_of_module(original.__module__)
        wrapped = self._timed(target, original, HOOKS.get(target), ERROR_HOOKS.get(target))
        # Modules that imported the function by name hold their own
        # reference; patch every one of them.
        for holder in list(sys.modules.values()):
            if getattr(holder, "__dict__", {}).get(attr) is original:
                self._patches.append((holder, attr, True, original))
                setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        """Put every patched attribute back exactly as it was."""
        for owner, attr, had_own, original in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def layer_self_ns(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for name, ns in self.self_ns.items():
            layer = self.layer_of.get(name, BENCH_LAYER)
            out[layer] = out.get(layer, 0) + ns
        return out

    def layer_calls(self) -> Dict[str, int]:
        """Calls into explicit targets per layer (process resumptions excluded)."""
        out: Dict[str, int] = {}
        resumptions = set(self._process_names.values())
        for name, calls in self.calls.items():
            if name in resumptions or name == ROOT:
                continue
            layer = self.layer_of.get(name, BENCH_LAYER)
            out[layer] = out.get(layer, 0) + calls
        return out

    def _sum(self, kind: str, value: Callable[[Any], float]) -> float:
        return float(sum(value(obj) for obj in self.instances.get(kind, {}).values()))

    def metrics(self, layer_sim: Optional[Dict[str, float]] = None) -> Dict[str, float]:
        """Per-layer metrics of the iteration just finished (no overhead %)."""
        by_layer = self.layer_self_ns()
        calls = self.layer_calls()
        counts = self.counts
        out: Dict[str, float] = {}
        for layer in TIMED_LAYERS:
            out[f"{layer}.host_s"] = by_layer.get(layer, 0) / 1e9
        out["unwrapped.host_s"] = by_layer.get(BENCH_LAYER, 0) / 1e9
        events = counts.get("sim.events", 0)
        out["sim.events"] = float(events)
        out["sim.host_us_per_event"] = _ratio(out["sim.host_s"] * 1e6, events)
        out["sim.horizon"] = self._sum("sims", lambda s: s.now)
        out["core.patterns.calls"] = float(calls.get("core.patterns", 0))
        out["core.patterns.repetitive.host_s"] = sum(
            ns for name, ns in self.self_ns.items() if ":RepetitiveDetector." in name
        ) / 1e9
        out["core.predictor.calls"] = float(sum(
            n for name, n in self.calls.items() if ":SwapPredictor." in name
        ))
        runtimes = [rt.stats() for rt in self.instances.get("runtimes", {}).values()]
        out["core.predictor.hit_ratio"] = _ratio(
            sum(s["hits"] for s in runtimes), sum(s["swap_requests"] for s in runtimes)
        )
        out["core.pipeline.staged"] = self._sum("pipelines", lambda p: p.staged_total)
        out["core.pipeline.invalidated"] = self._sum(
            "pipelines", lambda p: p.invalidated_by_fault + p.invalidated_by_iv_skip
        )
        out["core.runtime.transfers"] = float(sum(
            n for name, n in self.calls.items()
            if ":PipeLLMRuntime.memcpy_" in name
        ))
        out["core.runtime.nops"] = float(sum(s["nops_sent"] for s in runtimes))
        out["core.runtime.auth_recoveries"] = float(sum(s["auth_recoveries"] for s in runtimes))
        out["cc.api.transfers"] = float(sum(
            n for name, n in self.calls.items() if ":CudaContext.memcpy_" in name
        ))
        out["crypto.gcm.calls"] = float(counts.get("crypto.gcm.ops", 0))
        out["crypto.gcm.bytes"] = float(counts.get("crypto.gcm.bytes", 0))
        out["crypto.gcm.host_s"] = sum(
            ns for name, ns in self.self_ns.items() if "Gcm." in name
        ) / 1e9
        out["crypto.gcm.auth_failures"] = float(counts.get("crypto.gcm.auth_failures", 0))
        out["crypto.handshake.calls"] = float(calls.get("crypto.handshake", 0))
        out["hw.pcie.bytes"] = float(counts.get("hw.pcie.bytes", 0))
        out["hw.engine.jobs"] = float(sum(
            n for name, n in self.calls.items() if ":CryptoEngine.submit_" in name
        ))
        out["hw.interconnect.hops"] = float(counts.get("hw.interconnect.hops", 0))
        lookups = self.calls.get("repro.parallel.speculate:LinkSpeculator.lookup", 0)
        out["parallel.lookups"] = float(lookups)
        out["parallel.hit_ratio"] = _ratio(counts.get("parallel.hits", 0), lookups)
        out["parallel.bounce_bytes"] = self._sum("interconnects", lambda i: i.bounce_bytes)
        out["cluster.submits"] = float(self.calls.get("repro.cluster.gateway:Gateway.submit", 0))
        out["cluster.failovers"] = self._sum("gateways", lambda g: g.failovers)
        for action in ("admit", "hold", "shed"):
            out[f"serve.{action}"] = float(counts.get(f"serve.{action}", 0))
        fabrics = [f.stats() for f in self.instances.get("fabrics", {}).values()]
        out["disagg.chunks"] = float(sum(s["chunks"] for s in fabrics))
        out["disagg.resends"] = float(sum(s["resends"] for s in fabrics))
        migration_lookups = self.calls.get(
            "repro.disagg.migration:MigrationSpeculator.lookup", 0
        )
        out["disagg.hit_ratio"] = _ratio(counts.get("disagg.hits", 0), migration_lookups)
        out["disagg.parked"] = self._sum("speculators", lambda s: s.parked)
        out["faults.injected"] = self._sum("injectors", lambda i: i.injected_total)
        out["faults.recoveries"] = self._sum("injectors", lambda i: i.recovery_total)
        out["faults.mode_switches"] = self._sum("controllers", lambda c: c.switches)
        out["telemetry.events"] = float(
            self.calls.get("repro.telemetry.hub:TelemetryHub.emit", 0)
        )
        out["tracing.spans"] = float(sum(
            self.calls.get(f"repro.tracing.context:TraceCollector.{m}", 0)
            for m in ("begin", "add", "start_trace")
        ))
        for name in ("hw.crit.encrypt_share", "hw.crit.pcie_share", "serve.swap_outs"):
            out[name] = float((layer_sim or {}).get(name, 0.0))
        return out

    def chrome_trace(self, meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """The retained spans as Chrome-trace ``X`` events (µs)."""
        origin = min((s[1] for s in self.spans), default=0)
        events = [
            {
                "name": name.split(":", 1)[-1],
                "cat": self.layer_of.get(name, BENCH_LAYER),
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent, "iteration": iteration,
                         "target": name},
            }
            for name, start, end, span_id, parent, iteration in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta or {}}

    def write_chrome_trace(self, path, meta: Optional[Dict[str, Any]] = None) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(meta), handle)
