#!/usr/bin/env python3
"""Capturing a unified telemetry trace of one experiment.

Everything the stack does — PCIe DMA, crypto-engine threads, GPU
kernels, speculation staging/validation, per-memcpy lifecycle — flows
through each machine's :class:`repro.telemetry.TelemetryHub`. This
example records the Fig. 2 microbenchmark, prints a per-machine
summary and an ASCII Gantt excerpt, and writes a Chrome ``trace_event``
JSON you can drop into https://ui.perfetto.dev (or chrome://tracing).

The same capture is available from the CLI:

    python -m repro trace fig2 --scale quick --out trace.json
    python -m repro trace fig8 --format ascii
    python -m repro trace fig10 --format csv

Run:  python examples/trace_export.py
"""

import json

from repro.bench.experiments import fig2_microbenchmark
from repro.telemetry import ascii_gantt, chrome_trace, recording

OUT = "trace.json"


def main():
    # Every Machine built inside the block gets an enabled hub.
    with recording() as session:
        fig2_microbenchmark("quick")

    doc = chrome_trace(session.hubs)
    with open(OUT, "w") as fh:
        json.dump(doc, fh)

    for machine in doc["otherData"]["machines"]:
        print(f"{machine['label']:<10} spans={machine['spans']:<6} "
              f"events={machine['events']:<6} requests={machine['requests']}")
    print(f"\n{len(doc['traceEvents'])} trace events -> {OUT} "
          "(load it in https://ui.perfetto.dev)\n")

    # The same event stream, as ASCII — here only the PCIe lanes of
    # the last machine (the CC baseline at the largest transfer size).
    print(ascii_gantt(session.hubs[-1:], width=70, lane_prefix="pcie"))


if __name__ == "__main__":
    main()
