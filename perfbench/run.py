"""Hermes reproduction benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload isp_geant --seed 1 --seconds 24 --trace 0

Run from the root of the repository.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics of a traced run.  The
last line of standard output is the JSON result; the lines before it give
every metric with its unit and sample count, the correctness checks, the
determinism diagnostic and, for ``--trace 1``, the tracing overhead.

Each pass runs every instance of the workload in a fresh worker process
(see worker.py).  At least MIN_PASSES passes run, and more while
``--seconds`` allow, so each instance is timed in different processes and
at different moments; the simulated outputs of every pass must match (the
determinism diagnostic).  Simulated-time numbers come from the first pass,
host-time numbers from all of them.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from layers import layer_metrics
from meter import CHUNK, KERNEL_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKER_TIMEOUT_S = 170

# Instances per run: enough that pooled percentiles and the summed run time
# hold still from seed to seed (README.md, "Steadiness").
INSTANCES = {
    "isp_geant": 4,
    "dc_fattree": 1,
    "bgp_fib": 3,
    "microbench_overlap": 4,
}
# Host time is measured in reference seconds (see meter.py), over at least
# MIN_PASSES passes made at different moments.
MIN_PASSES = 2


class WorkerError(RuntimeError):
    """A worker process failed or printed no result."""


def run_pass(workload: str, seed: int, instances, trace: bool, spans_out=None) -> dict:
    """Run ``instances`` in one fresh worker process and return its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--instances", ",".join(str(index) for index in instances),
        "--trace", str(int(trace)),
    ]
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as error:
        raise WorkerError(f"worker timed out after {error.timeout} s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise WorkerError(
            f"worker exited with {done.returncode}:\n{done.stderr.strip()[-4000:]}"
        )
    return json.loads(lines[-1])


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else float("nan")


def metric(name: str, value: float, unit: str, samples: str) -> dict:
    print(f"  {name:<22} {value:>14.6g} {unit:<6} ({samples})")
    return {"value": value, "unit": unit}


def determinism(workload: str, passes) -> None:
    """Compare each instance's digest across the fresh processes that ran it."""
    digests = {}
    for report in passes:
        for result in report["instances"]:
            digests.setdefault(result["index"], []).append(result["digest"])
    differ = sorted(index for index, seen in digests.items() if len(set(seen)) > 1)
    print(
        f"determinism: {'DIFFER' if differ else 'agree'} - simulated-output digests "
        f"of {len(digests)} instances over {len(passes)} fresh processes"
        + (f"; instances {differ} differ" if differ else "")
    )
    if differ:
        print(
            f"  FLAG: {workload} simulated outputs depend on the process "
            "(hash randomization); see perfbench/README.md"
        )


def tally(passes) -> tuple:
    """(attempted, failed, problems) over every instance of every pass."""
    attempted = failed = 0
    problems = []
    for report in passes:
        for result in report["instances"]:
            attempted += result["attempted"]
            failed += result["failed"]
            problems += [f"instance {result['index']}: {text}" for text in result["problems"]]
    return attempted, failed, problems


def scale(kernels) -> np.ndarray:
    """Reference seconds per wall second for each stretch between kernels."""
    kernels = np.asarray(kernels)
    return KERNEL_REF_S / ((kernels[:-1] + kernels[1:]) / 2)


def reference_times(result) -> tuple:
    """(run, per-call) reference seconds of one instance in one pass."""
    factor = scale(result["kernel_s"])
    calls = np.asarray(result["call_s"])
    per_call = calls * factor[np.minimum(np.arange(len(calls)) // CHUNK, len(factor) - 1)]
    return float(np.dot(result["stretch_s"], factor)), per_call


def end_to_end(passes) -> dict:
    main = passes[0]["instances"]
    every = [result for report in passes for result in report["instances"]]
    timed = {id(result): reference_times(result) for result in every}
    runs = [sum(timed[id(result)][0] for result in report["instances"]) for report in passes]
    setups = [result["setup_s"] * scale(result["setup_kernel_s"])[0] for result in every]
    submits = np.concatenate([per_call for _, per_call in timed.values()])
    rits = [value * 1e3 for result in main for value in result["rits_s"]]
    fcts = [value for result in main for value in result["fcts_s"]]
    eligible = sum(result["eligible"] for result in main)
    missed = sum(result["missed"] for result in main)

    print(
        f"end-to-end metrics ({len(main)} instances x {len(passes)} passes; "
        "host time in reference seconds, see perfbench/meter.py):"
    )
    metrics = {
        "setup_s": metric("setup_s", statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "run_s": metric(
            "run_s", statistics.median(runs), "s",
            f"median over {len(passes)} passes of the sum over {len(main)} instances",
        ),
        "peak_rss_mib": metric(
            "peak_rss_mib", max(report["peak_rss_mib"] for report in passes), "MiB",
            f"max over {len(passes)} processes",
        ),
        "flowmod_cpu_mean_us": metric(
            "flowmod_cpu_mean_us", float(np.mean(submits)) * 1e6, "us",
            f"n={len(submits)} agent calls over {len(passes)} passes",
        ),
        "flowmod_cpu_p99_us": metric(
            "flowmod_cpu_p99_us", percentile(submits, 99) * 1e6, "us",
            f"n={len(submits)} agent calls over {len(passes)} passes",
        ),
    }
    wall = statistics.median(sum(r["run_s"] for r in report["instances"]) for report in passes)
    kernel = statistics.median(k for result in every for k in result["kernel_s"])
    print(f"  wall-clock run per pass {wall:.4f} s (median); reference kernel {kernel * 1e3:.4f} ms (median)")
    print("simulated time, first pass (reported, not bounded; see README.md):")
    metric("rit_p50_ms", percentile(rits, 50), "ms", f"n={len(rits)} ADDs")
    metric("rit_p99_ms", percentile(rits, 99), "ms", f"n={len(rits)} ADDs")
    miss = 100.0 * missed / eligible if eligible else float("nan")
    metric("guarantee_miss_pct", miss, "%", f"{missed} of {eligible} eligible ADDs")
    if fcts:
        metric("fct_p50_s", percentile(fcts, 50), "s", f"n={len(fcts)} flows")
        metric("fct_p95_s", percentile(fcts, 95), "s", f"n={len(fcts)} flows")
    return metrics


def per_layer(workload: str, traced, untraced) -> dict:
    raw = {}
    for result in traced[0]["instances"]:
        for name, value in result["layers"].items():
            raw[name] = raw.get(name, 0) + value
    absent = traced[0]["absent"]
    metrics_raw = layer_metrics(raw, absent)
    traced_s = sum(reference_times(result)[0] for result in traced[0]["instances"])
    untraced_s = sum(reference_times(result)[0] for result in untraced[0]["instances"])
    metrics_raw["trace.overhead_ratio"] = traced_s / untraced_s

    count = len(traced[0]["instances"])
    print("per-layer metrics (first traced pass; counts and self times summed over instances):")
    metrics = {}
    for name in sorted(metrics_raw):
        unit = (
            "s" if name.endswith("_s") else "ms" if name.endswith("_ms")
            else "ratio" if name.endswith("ratio") or name.endswith("per_insert") else "count"
        )
        metrics[name] = metric(name, float(metrics_raw[name]), unit, f"{count} instances")
    for layer, path in sorted(absent.items()):
        print(f"  {layer:<22} absent ({path} not found)")
    print(
        f"tracing overhead: run_s traced {traced_s:.4f} vs untraced {untraced_s:.4f} "
        f"reference s (x{traced_s / untraced_s:.3f})"
    )
    counters = traced[0]["work_counters"]
    moved = sorted({
        name
        for first, repeat in zip(traced[0]["instances"], traced[1]["instances"])
        for name in counters
        if first["layers"].get(name, 0) != repeat["layers"].get(name, 0)
    })
    note = " (bgp_fib is exempt until its hash-seed defect is fixed)" if workload == "bgp_fib" else ""
    print(
        f"work counters over {len(traced)} traced processes: "
        + ("repeat exactly" if not moved else f"DIFFER in {', '.join(moved)}{note}")
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(INSTANCES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"benchmark: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = perf_counter()
    instances = range(INSTANCES[args.workload])
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    try:
        if args.trace:
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"{args.workload}-seed{args.seed}-spans.npz"
            traced = [run_pass(args.workload, args.seed, instances, True, spans)]
            untraced = [run_pass(args.workload, args.seed, instances, False)]
            traced.append(run_pass(args.workload, args.seed, instances, True))
            passes = traced + untraced
        else:
            passes = [run_pass(args.workload, args.seed, instances, False)]
            # Past MIN_PASSES, start a pass only if it should end within --seconds.
            while len(passes) < MIN_PASSES or (
                (perf_counter() - start) * (len(passes) + 1) / len(passes) <= args.seconds
            ):
                passes.append(run_pass(args.workload, args.seed, instances, False))
    except WorkerError as error:
        print(f"benchmark: {error}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer(args.workload, traced, untraced)
        print(f"spans written to {spans.relative_to(ROOT)}")
    else:
        metrics = end_to_end(passes)
    determinism(args.workload, passes)
    attempted, failed, problems = tally(passes)
    print(f"correctness: {failed} failed of {attempted} operations")
    for text in problems[:20]:
        print(f"  {text}")
    print(f"wall time {perf_counter() - start:.1f} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
