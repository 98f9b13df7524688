#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md by running every paper experiment.

Usage:  python scripts/generate_experiments.py [quick|full]

Walks ``repro.bench.EXPERIMENTS`` in order and renders each
experiment's rows under its paper-vs-measured commentary. The output
holds no wall-clock figures, so a rerun at the same scale rewrites the
committed file byte for byte.
"""

import sys
import time

from repro.bench import EXPERIMENTS

HEADER = """\
# EXPERIMENTS — paper vs. measured

Generated by ``python scripts/generate_experiments.py {scale}``.
All numbers come from the deterministic simulator described in
DESIGN.md; seeds are fixed, so this file is exactly reproducible.

**How to read this file.** Absolute values are not expected to match
the paper — the substrate is a calibrated simulator, not the authors'
H100 testbed, and the run lengths are shorter. What must match, and
is asserted by ``python -m repro claims``, is every figure's *shape*: who
wins, by roughly what factor, and where behaviour changes.

Calibration sources: the hardware constants are fitted to the paper's
own Figure 2 microbenchmark (so fig2 matches near-exactly by
construction); the CC-mode staged-DMA ceiling (≈47 GB/s effective) is
inferred from the paper's end-to-end FlexGen numbers (§7.2 quotes a
40 GB/s copy limit, but <19.6 % overhead over a 56 GB/s-bound baseline
implies the pipelined path sustains more); PEFT resident-layer counts
are chosen to reproduce the paper's stated memory pressure; vLLM
Alpaca reserve sizes are chosen so swapping occurs inside the swept
rate range (the paper tunes "maximum batch size to trigger memory
swaps" the same way).

**Wall clock.** The simulator has one execution path. Its simulated
numbers equal those of the slower originals kept in `tests/` as
oracles (the pure-python AES-GCM and the single-heap event loop;
asserted by the differential tests), so speed-ups change only the
time this file takes to generate. History on the hand-built
standard bench suite at seed 1, which `repro bench` ran before it
projected registry experiments, measured while the originals were
still selectable as a `reference` profile:

| profile                      | wall clock | vs. seed |
|------------------------------|-----------:|---------:|
| reference (pre-fast-path seed) |     5.84 s |     1.0x |
| reference (current)          |     4.66 s |     1.3x |
| fast (default)               |     1.72 s |     3.4x |

On a bulk AES-GCM encrypt/decrypt loop (`tests/bench/test_wallclock.py`)
the test pins the auto-detected backend at a 5x floor over the
pure-python cipher.
"""

#: Paper-vs-measured commentary per experiment id; the keys must equal
#: the registry's.
COMMENTARY = {
    "fig2": """Paper: CC-disabled latency flat ≈1.2–1.4 µs with throughput rising
to 55.31 GB/s; CC-enabled latency 14.93 µs → 5252 µs with throughput
capped at 3.32–5.83 GB/s (single-thread CPU AES).
Measured: matches within the tolerances asserted in
the `micro-calibration` claim (the model is calibrated to
this table; the residual error is the piecewise-linear fit).""",
    "fig3a": """Paper: enabling CC drops FlexGen OPT-66B throughput by 82.8–88.2 %.
Measured: same collapse, driven by the identical mechanism — the
weight stream runs at single-thread AES speed (~6.4 GB/s) instead of
PCIe speed (~56 GB/s).""",
    "fig3b": """Paper: CC and w/o CC coincide at low request rates (no memory
pressure ⇒ no swapping ⇒ encryption of tokens is negligible); as the
rate grows, KV swapping starts and CC's normalized latency diverges
(33.3–52.8 % at the measured points).
Measured: identical knee behaviour; the `swap_ins` column shows the
divergence appearing exactly when swapping does.""",
    "fig3c": """Paper: CC drops fine-tuning throughput 36.2 % (OPT-30B) and 14.0 %
(OPT-13B) — smaller models suffer less because fewer layers offload.
Measured: ≈33 % and ≈13 % with the calibrated resident-layer counts,
same ordering and mechanism.""",
    "fig7": """Paper: across FlexGen OPT-66B / OPT-175B-4bit and PEFT OPT-30B/13B,
PipeLLM cuts the CC overhead from up to 88.2 % to below 19.6 %; the
residual cost is the reduced CC-mode copy bandwidth.
Measured: PipeLLM overhead 0.1–17 % across all eight configurations
(asserted < 19.6 % by the `pipellm-offload-bound` claim),
with near-perfect repetitive-pattern prediction after the cold pass.""",
    "fig8": """Paper: with one encryption + one decryption thread, PipeLLM reduces
vLLM OPT-30B overhead from 33.3–52.8 % (CC) to 5.2–14.2 %; prediction
success is near 100 % (LIFO swap policy); OPT-13B suffers less than
OPT-30B throughout.
Measured: same ordering at every pressured point (w/o CC < PipeLLM <
CC) across parallel sampling n = 2/4/6 and both datasets, with
prediction success 88–99 % wherever swapping occurs. Our residual
PipeLLM overhead is larger than the paper's (≈19–38 % on ShareGPT vs
5.2–14.2 %): these 120-second traces are denser relative to compute
than the paper's 30-minute ones, so swap volume pushes the single
encryption thread toward saturation, and restaging after LIFO
inversions (newer swap-outs preempting staged entries' IV order)
costs real throughput. PipeLLM still removes one half to two thirds
of CC's added latency everywhere — the qualitative claim, pipelining
recovers most of the CC loss with 1+1 threads, reproduces.""",
    "fig9": """Paper: giving the CC baseline 4 crypto threads ("CC-4t") narrows the
gap, but PipeLLM with only 2 threads still outperforms it — the win
is pipelining, not parallelism.
Measured: identical ordering (CC > CC-4t > PipeLLM > w/o CC) with
PipeLLM using 2 threads against CC-4t's 8.""",
    "fig10": """Paper: "PipeLLM-0" (0 % sequence-prediction success) loses only
8.3 %, because wrongly-ordered staged ciphertext is still usable via
request re-ordering and NOP padding.
Measured: the PipeLLM-0 penalty is small (<15 %, typically a few
percent — our batch-level re-ordering recovers even more than the
paper's) and both PipeLLM variants stay far below CC.""",
    "abl-threads": """Ablation (ours): PipeLLM needs enough encryption threads for the
ciphertext supply to outrun the staged DMA path (§7.2 notes PipeLLM
"would utilize multiple CPU threads" for model offloading). With one
thread it is indistinguishable from the CC baseline.""",
    "abl-asyncdec": """Ablation (ours): §5.4's asynchronous decryption. Turning it off
puts every swap-out's CPU decryption back on the scheduler's critical
path.""",
    "abl-leeway": """Ablation (ours): the adaptive IV-leeway controller against fixed
settings. Too little leeway re-encrypts stale chunks (expensive); too
much pads long NOP trains (cheap but not free).""",
    "abl-kvdepth": """Ablation (ours): KV staging-window depth. Deep windows stage
entries that newer LIFO swap-outs then preempt in IV order (killed by
IV-skip); shallow windows evict more and restage later.""",
    "ext-teeio": """Extension (ours): §8.3 quantified. A line-rate TEE-I/O hardware
engine matches PipeLLM for a single tenant but is shared by all GPUs
of a server; at 8 tenants its per-tenant rate collapses below even a
few CPU threads — the paper's flexibility argument for a software
solution.""",
    "ext-layerwise": """Extension (ours): the layer-wise (FIFO) KV swapping granularity of
Figure 5, with the realistic twist that each layer's KV is rewritten
every decode step. CC collapses (crypto on both directions of every
layer); PipeLLM recovers most of it despite the mandatory
re-encryption after each write-back.""",
    "ext-zero": """Extension (ours): ZeRO-Offload FULL fine-tuning — the weight
stream is read-write (a CPU Adam step rewrites every streamed layer
each step), the adversarial case for weight speculation. The
validator's page-protection invalidations (counted) keep it correct;
prediction still wins because the rewrite happens a full step before
the next swap-in.""",
    "cluster": """Extension (ours): multi-replica confidential serving — N attested
replicas behind an encrypted-session gateway (per-tenant handshakes,
admission control, round-robin / least-loaded / affinity routing,
crash+failover). Throughput scales with replicas, tail latency grows
with offered load, and the failover run completes with zero GCM tag
failures and strictly monotone per-key IVs.""",
    "serve": """Extension (ours): the online question §7 leaves open — what do
CC's overheads do to a latency-SLO'd service? An OpenAI-style front
end (`repro.serve`) drives the confidential cluster with open-loop
Poisson arrivals over serving-shaped ShareGPT traces and sweeps
systems × admission policies × offered rates with the KV budget
squeezed so swap pressure appears inside the sweep. At low rates all
systems attain their SLOs; at the swap knee — the first rate where
CC must swap KV through the encrypted bridge — PipeLLM's goodput
frontier separates from CC-serialized (asserted at the knee and in
frontier aggregate; past saturation per-rate goodput is noisy by
construction). SLO-aware admission sheds deadline-doomed work early
and beats FIFO's blind backpressure on goodput at overload. Every
point closes its ledger: completed + shed == offered, exactly.""",
    "disagg": """Extension (ours): disaggregated prefill/decode serving (the
DistServe/Splitwise split) under confidential computing — every
prefilled KV cache must now *migrate* between attested machines over
the CC-serialized bridge, and §5.1 speculation is what takes that
migration off the TTFT path. At high offered load the split fleet
beats the monolithic CC baseline on p50 TTFT (dedicated prefill
removes inline-prefill head-of-line blocking) while matching its
goodput; per delivered chunk, speculation recovers most of the
CC migration penalty (serialized ≈358 µs → staged ≈50–80 µs vs
≈43 µs native) at its learned hit rate, under a fleet-wide IV audit
that observes every migration endpoint ever derived. The hot-tenant
stress trace flips the causal-trace verdict from migration-bound
(cc) to compute-bound (pipellm); a decode crash mid-migration
fails over by re-shipping retained prefill copies (resume, no
recompute) and completes every admitted request with ledger closure;
a mispredict storm parks speculation via the degradation controller
and drains clean with bit-identical IV consumption. All of these are
asserted inline — the table failing to print is the campaign
failing.""",
    "faults": """Extension (ours): the deterministic fault plane (`repro.faults`)
swept across storm rates × survival policies on FlexGen OPT-66B.
Under every storm the adaptive policy degrades to non-speculative
in-order encryption and restores speculation after the window closes
(`final_mode` stays `speculative`), every request completes, and the
IV audit on both endpoints observes zero (key, IV) reuse. Degrading
*beats* pinned speculation under sustained faults: failed speculation
wastes staged encryption work, in-order encryption doesn't.""",
    "parallel": """Extension (ours): the serialized bridge measured on *inter-GPU*
traffic. Under CC, P2P is forbidden and every collective hop bounces
through CPU AES-GCM on per-link HKDF-derived sessions
(`repro.hw.interconnect`). Tensor parallelism (two ring all-reduces
per layer) collapses below a single GPU under CC-serialized crypto,
while the link speculator — the §5 predictor applied to each source
GPU's deterministic hop schedule — pre-arranges the bounce crypto and
recovers ≥ 75 % of the gap at 2 GPUs (hit rate ≈ 99.7 %); the
recovery ceiling shrinks with GPU count as fixed per-hop DMA
overheads dominate the shrinking ring segments. Pipeline parallelism
ships one activation per microbatch per boundary and barely notices
CC — the compute-bound contrast. Every CC row runs under a per-link
IV audit; the table's orderings are asserted inline.""",
    "attrib": """Extension (ours): the Fig. 2 story measured end-to-end, not at the
memcpy. The observatory profiler attributes every request's wire
latency to exact per-stage blocking intervals (each row's stage
percentages cover 100 % of blocked time; per request the stages sum
to the end-to-end latency exactly). w/o CC is pure PCIe; CC spends
~88 % of its blocked time waiting on single-thread AES
(encryption-bound); PipeLLM's AES share collapses to a few percent
(pcie-bound) because staged hits move encryption off the critical
path — `net_saved_s` counts the AES seconds removed, minus the work
wasted on invalidated staging entries. The TP-2 rows profile the
encrypted inter-GPU fabric: CC's serialized bridge waits on inline
AES for both legs; with the link speculator the AES legs all but
vanish and ~98 % of blocked time is the bounce DMA (the regime "The
Serialized Bridge" names). Both TP-2 runs are still compute-bound:
the verdict reads seconds per class, the GPUs' busy seconds included,
and the two GPUs outweigh the hops' waits — doubling GPU speed cuts
each run more than doubling AES or PCIe does. Verdicts use the same
stage classes and ordered rule as the fleet critical path, and
`trace --attrib`, `dash` and the bench verdicts read the same
seconds.""",
}


def main() -> None:
    scale = sys.argv[1] if len(sys.argv) > 1 else "full"
    if COMMENTARY.keys() != EXPERIMENTS.keys():
        raise SystemExit(
            f"commentary and registry differ: {sorted(COMMENTARY.keys() ^ EXPERIMENTS.keys())}"
        )
    parts = [HEADER.format(scale=scale)]
    for name, run in EXPERIMENTS.items():
        start = time.time()
        result = run(scale)
        print(f"{name} done in {time.time() - start:.0f}s", flush=True)
        parts.append(f"\n## {result.experiment_id} — {result.title}\n")
        parts.append(COMMENTARY[name].strip() + "\n")
        parts.append("```")
        parts.append(result.render())
        parts.append("```\n")
    with open("EXPERIMENTS.md", "w") as handle:
        handle.write("\n".join(parts))
    print("wrote EXPERIMENTS.md")


if __name__ == "__main__":
    main()
