"""Run benchmark instances in this process and print their numbers as JSON.

Started by run.py, one fresh process per pass, so every pass gets its own
hash seed and its own peak RSS.  Usage:

    python3 perfbench/worker.py --workload W --seed N --instances 0,1,2 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from layers import WORK_COUNTERS, Recorder
from meter import CHUNK, Meter, kernel_seconds
from workloads import WORKLOADS


def run_instances(workload: str, seed: int, instances, trace: bool, spans_out=None) -> dict:
    """Generate, set up, run and check each instance in turn."""
    spec = WORKLOADS[workload]
    recorder = Recorder() if trace else None
    results = []
    for index in instances:
        inputs = spec.generate(seed, index)
        # Collect the previous instance's garbage now, not inside this timing.
        gc.collect()
        kernel_before = kernel_seconds()
        start = perf_counter()
        system = spec.setup(inputs)
        setup_s = perf_counter() - start
        kernels = [kernel_before, kernel_seconds()]
        if recorder is not None:
            recorder.install(index)
        meter = Meter(chunk=None if recorder is not None else CHUNK)
        meter.start()
        try:
            spec.run(system, meter)
        finally:
            meter.stop()
            if recorder is not None:
                recorder.uninstall()
        outcome = spec.finish(inputs, system)
        result = {
            "index": index,
            "setup_s": setup_s,
            "setup_kernel_s": kernels,
            "run_s": meter.wall_s,
            "stretch_s": meter.stretches,
            "kernel_s": meter.kernels,
            "call_s": meter.calls,
            "rits_s": outcome.rits,
            "fcts_s": outcome.fcts,
            "eligible": outcome.eligible,
            "missed": outcome.missed,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "problems": outcome.problems[:20],
            "digest": outcome.digest,
        }
        if recorder is not None:
            result["layers"] = recorder.summary(meter.wall_s)
        results.append(result)
        del system, inputs
    report = {
        "instances": results,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        report["absent"] = recorder.absent
        report["work_counters"] = list(WORK_COUNTERS)
        if spans_out is not None:
            recorder.write(spans_out)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--instances", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args(argv)
    instances = [int(part) for part in args.instances.split(",")]
    report = run_instances(
        args.workload, args.seed, instances, bool(args.trace), args.spans_out
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
