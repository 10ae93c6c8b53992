"""One fresh interpreter running one workload; started by ``run.py``.

Modes:

* ``prepare`` writes a stream workload's input files;
* ``setup`` runs the workload's set-up and exits when it is ready;
* ``measure`` runs set-up, the measured phase and the output checks.

The result goes to ``--out`` as JSON (standard output is left to the
program).  ``--trace 1`` wraps the layer calls with spans (see
``layers.py``) and adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import sys
import time
from pathlib import Path


def _peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest finished child
    (the process backend's shard)."""
    from repro.telemetry.memory import peak_rss_bytes

    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (peak_rss_bytes() + children_kib * 1024) / 2**20


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("prepare", "setup", "measure"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--perturb", action="store_true")
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    # one home vCPU for this process and every thread it starts, so that
    # host-speed readings are taken where the work runs (hostspeed.py)
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})

    t_import = time.perf_counter()
    import workloads  # imports the program: the set-up's import layer

    import_s = time.perf_counter() - t_import
    if args.mode == "prepare":
        workloads.prepare(args.seed, args.smoke, args.inputs)
        args.out.write_text("{}")
        return 0
    # the convex strategy logs every SLSQP fallback; the counts are
    # what matters here
    logging.getLogger("repro").setLevel(logging.ERROR)

    import numpy
    from repro.telemetry import trace

    from layers import PREFIX, TRACE_CAPACITY, LayerTracer, layer_metrics

    tracer = LayerTracer() if args.trace else None
    if tracer is not None:
        trace.enable(TRACE_CAPACITY)
        trace.record(
            PREFIX + "setup.import", int(t_import * 1e9), int(import_s * 1e9)
        )
        tracer.install()
    workload = workloads.make(
        args.workload, args.seed, args.seconds, args.smoke, args.inputs, args.perturb, cpus
    )
    try:
        workload.run(measure=args.mode == "measure")
    finally:
        if tracer is not None:
            tracer.uninstall()
            trace.disable()
    result = {
        "t_ready": workload.t_ready,
        "import_s": import_s,
        "numpy": numpy.__version__,
    }
    if args.mode == "measure":
        workload.verify()
        checks: dict[str, list[int]] = {}
        for name, ok in workload.checks:
            passed_total = checks.setdefault(name, [0, 0])
            passed_total[0] += ok
            passed_total[1] += 1
        result.update(
            e2e={
                "peak_rss_mb": _peak_rss_mb(),
                "latency_p50_ms": workload.latency_p50_ms,
                "throughput_per_s": workload.throughput_per_s,
            },
            native=dict(
                workload.native, host_reference_ms=(workload.host.median_ms(), "ms")
            ),
            ops=workload.ops,
            failed_ops=workload.failed_ops,
            checks=checks,
            work=workload.work,
            digest=workload.ranking_digest,
        )
        if tracer is not None:
            spans = trace.spans()
            if len(spans) >= TRACE_CAPACITY:
                raise RuntimeError("trace ring full: per-layer metrics would be partial")
            windows = [(int(lo * 1e9), int(hi * 1e9)) for lo, hi in workload.windows]
            layers = layer_metrics(spans, int(workload.t_ready * 1e9), windows)
            layers["setup.import_s"] = import_s
            layers.update(workload.layer_values)
            for name, (value, _exact) in workload.work.items():
                layers[f"work.{name}"] = value
            result["layers"] = layers
            from repro.telemetry.export import write_trace

            write_trace(
                [s for s in spans if s.name.startswith(PREFIX)],
                args.out.with_name("trace.json"),
            )
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
