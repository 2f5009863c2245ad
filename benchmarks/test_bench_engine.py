"""Benchmark: the simulator's scheduled completions, the process-parallel
sweep runner, and the flow store's rate-recompute scaling curve.

Four measurements land in one JSON artifact (``BENCH_engine.json``):

* **dispatch micro-benchmark** — a real :class:`~repro.simulator.Simulation`
  is loaded with ≥10k active flows and the cost of ``K`` dispatches is
  measured two ways: rescanning every flow's ETA per dispatch
  (``FlowStore.next_completion``, a vectorized O(active-flows) argmin)
  against the simulator's strategy of arming one kernel completion event
  per rate epoch and paying a heap peek per dispatch.
* **end-to-end run** — a moderate arrival/completion workload runs to
  completion; every flow must finish and the wall time is recorded.
* **sweep speedup** — the sensitivity sweep runs serially and in parallel
  (workers capped at the detected core count).  Sweep cells ship to
  workers in chunks (see :class:`~repro.engine.sweep.SweepRunner`) so
  process startup is amortized.  On multi-core CI runners the parallel
  run must be ≥2× faster; that assertion fires only when
  ``BENCH_ENGINE_REQUIRE_SPEEDUP=1`` (the CI engine job sets it) AND the
  runner has at least 2 cores — a 1-core runner physically cannot speed
  up, and asserting there only records lies (an earlier artifact pinned a
  0.91× "speedup" from exactly that).  The artifact always records the
  honest timings and ``os.cpu_count()``.
* **flow-state scaling curve** — :meth:`~repro.simulator.flowstate.
  FlowStore.recompute` against the dict fill (``max_min_fair_rates``, the
  test oracle in ``tests/simulator/reference_fill.py``) over the same
  paths, 1k → 1M flows, plus a full run with batched same-instant
  arrivals and a ``max_time`` cut that proves each size actually *runs*
  end to end.  The dict fill is measured up to
  ``BENCH_ENGINE_SCALE_DICT_CAP`` flows and linearly projected beyond (a
  1M-flow dict fill would take minutes and say nothing new).  Where both
  are measured they are timed as 7 interleaved (store, dict) pairs, so
  machine drift hits both sides of a pair alike; the artifact keeps every
  pair's ratio.  At 100k flows the median pair ratio must be ≥10×, and
  the largest size must complete a run with every flow concurrently
  active.

Environment knobs:
    ``BENCH_ENGINE_FLOWS``            active flows in the dispatch
                                      micro-benchmark (default 10000).
    ``BENCH_ENGINE_DISPATCHES``       dispatches measured per strategy
                                      (default 2000).
    ``BENCH_ENGINE_SWEEP_WORKERS``    parallel worker count (default 4).
    ``BENCH_ENGINE_REQUIRE_SPEEDUP``  set to 1 to assert the ≥2× sweep
                                      speedup (CI, multi-core only).
    ``BENCH_ENGINE_SCALE_MAX``        largest flow count on the scaling
                                      curve (default 1000000; CI's scale
                                      job caps it at 100000).
    ``BENCH_ENGINE_SCALE_DICT_CAP``   largest flow count at which the
                                      dict fill is measured rather than
                                      projected (default 100000).
    ``BENCH_ENGINE_OUT``              artifact path (default
                                      ``results/BENCH_engine.json``).
"""

import os
import statistics
import time

import numpy as np

from repro.baselines import make_installer
from repro.experiments.sensitivity import SensitivityConfig
from repro.experiments.sensitivity import run as run_sensitivity
from repro.simulator import Simulation, SimulationConfig, TeAppConfig
from repro.tcam import get_switch_model
from repro.obs.perf.bench import write_bench_artifact
from repro.topology import FatTreeSpec, build_fat_tree, hosts
from repro.topology.routing import path_links_cached
from repro.traffic.flows import FlowSpec

from tests.simulator.reference_fill import max_min_fair_rates


def _synthetic_flows(count, seed=11, size=5e6):
    graph = build_fat_tree(FatTreeSpec(k=4, link_capacity=1e9))
    endpoints = hosts(graph)
    rng = np.random.default_rng(seed)
    flows = []
    for index in range(count):
        source = endpoints[index % len(endpoints)]
        destination = endpoints[(index * 7 + 3) % len(endpoints)]
        if source == destination:
            destination = endpoints[(index * 7 + 4) % len(endpoints)]
        flows.append(
            FlowSpec(
                source=source,
                destination=destination,
                size=size + float(rng.integers(0, 1e6)),
                start_time=0.001 * (index % 50),
                flow_id=index + 1,
            )
        )
    return graph, flows


def _naive_factory():
    timing = get_switch_model("pica8-p3290")
    return lambda name, injector: make_installer("naive", timing, injector=injector)


def _loaded_simulation(graph, flows, config):
    """A Simulation whose flow store holds every flow on its first ECMP path.

    The flows are injected directly (their arrivals never dispatch), so
    the measurements below isolate completion selection and rate
    recomputes from arrival physics.
    """
    simulation = Simulation(graph, flows[:1], _naive_factory(), config)
    for spec in flows:
        path = simulation.provider.ecmp_paths(spec.source, spec.destination)[0]
        simulation._store.add(spec, path)
    return simulation


def dispatch_microbench(flow_count, dispatches):
    """Per-dispatch completion-selection cost, ETA rescan vs armed event.

    A rescan strategy pays ``FlowStore.next_completion`` — an argmin over
    every active flow's ETA — on each of K dispatches.  The simulator arms
    the argmin once per rate epoch and pays one heap peek per dispatch.
    """
    graph, flows = _synthetic_flows(flow_count)
    simulation = _loaded_simulation(
        graph,
        flows,
        SimulationConfig(te=TeAppConfig(epoch=1e6), baseline_occupancy=0),
    )
    store = simulation._store
    rows = store.active_rows()
    store.rate[rows] = 1e6 + (np.arange(rows.size) % 97) * 1e3

    start = time.perf_counter()
    for _ in range(dispatches):
        scan_pick = store.next_completion(simulation.now)
    scan_seconds = time.perf_counter() - start

    simulation._schedule_completion()  # one arm per rate epoch
    scheduler = simulation._scheduler
    start = time.perf_counter()
    for _ in range(dispatches):
        event_pick = scheduler.peek()
    event_seconds = time.perf_counter() - start

    assert scan_pick[1] is not None
    assert event_pick is not None
    # det: allow(float-eq) -- both strategies must pick the same argmin ETA
    assert event_pick.time == scan_pick[0]
    return {
        "flows": flow_count,
        "dispatches": dispatches,
        "scan_seconds": scan_seconds,
        "event_seconds": event_seconds,
        "speedup": scan_seconds / max(event_seconds, 1e-9),
    }


def end_to_end_run(flow_count=300):
    graph, flows = _synthetic_flows(flow_count, size=1e6)
    config = SimulationConfig(te=TeAppConfig(epoch=1e6), baseline_occupancy=0)
    simulation = Simulation(graph, flows, _naive_factory(), config)
    start = time.perf_counter()
    metrics = simulation.run()
    seconds = time.perf_counter() - start
    assert len(metrics.fcts()) == flow_count
    return {"flows": flow_count, "event_seconds": seconds}


SCALE_SIZES = (1_000, 10_000, 100_000, 1_000_000)
SCALE_INSTANTS = 10
SCALE_PAIRS = 7  # interleaved (store, dict) timing pairs per measured size


def _scaling_flows(count, instants=SCALE_INSTANTS, seed=23):
    """``count`` flows in ``instants`` same-instant batches on a k=4 pod.

    Sizes are large (≈1 GB) so no flow can complete before the run's
    ``max_time`` cut — the curve measures arrival/recompute scaling, not
    completion dynamics.
    """
    graph = build_fat_tree(FatTreeSpec(k=4, link_capacity=1e9))
    endpoints = hosts(graph)
    rng = np.random.default_rng(seed)
    per_instant = max(1, count // instants)
    flows = []
    for index in range(count):
        source = endpoints[index % len(endpoints)]
        destination = endpoints[(index * 7 + 3) % len(endpoints)]
        if source == destination:
            destination = endpoints[(index * 7 + 4) % len(endpoints)]
        flows.append(
            FlowSpec(
                source=source,
                destination=destination,
                size=1e9 + float(rng.integers(0, 1e6)),
                start_time=0.01 * min(index // per_instant, instants - 1),
                flow_id=index + 1,
            )
        )
    return graph, flows


def _scale_config():
    return SimulationConfig(
        te=TeAppConfig(epoch=1e6), baseline_occupancy=0, max_time=0.5
    )


def _seconds(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _best_of(repeats, fn):
    return min(_seconds(fn) for _ in range(repeats))


def _timed_run(graph, flows):
    simulation = Simulation(graph, flows, _naive_factory(), _scale_config())
    start = time.perf_counter()
    metrics = simulation.run()
    seconds = time.perf_counter() - start
    return seconds, metrics.peak_active


def flow_state_scaling(scale_max, dict_cap):
    """The 1k → 1M curve: store recompute vs dict fill at each size."""
    sizes = [size for size in SCALE_SIZES if size <= scale_max]
    if not sizes:
        sizes = [min(SCALE_SIZES)]
    recompute_rows = []
    run_rows = []
    dict_anchor = None  # (flows, measured seconds) for projection
    for size in sizes:
        graph, flows = _scaling_flows(size)
        simulation = _loaded_simulation(graph, flows, _scale_config())
        store = simulation._store
        row = {
            "flows": size,
            "store_recompute_seconds": None,
            "dict_fill_seconds": None,
            "dict_projected": False,
            "pair_ratios": [],
            "speedup": None,
        }
        if size <= dict_cap:
            paths = {
                spec.flow_id: path_links_cached(store.path(spec.flow_id))
                for spec in flows
            }
            capacities = simulation._capacities
            store_samples, dict_samples = [], []
            for _ in range(SCALE_PAIRS):
                store_samples.append(_seconds(store.recompute))
                dict_samples.append(
                    _seconds(lambda: max_min_fair_rates(paths, capacities))
                )
            row["store_recompute_seconds"] = min(store_samples)
            row["dict_fill_seconds"] = min(dict_samples)
            row["pair_ratios"] = [
                dict_seconds / max(store_seconds, 1e-9)
                for store_seconds, dict_seconds in zip(store_samples, dict_samples)
            ]
            row["speedup"] = statistics.median(row["pair_ratios"])
            dict_anchor = (size, row["dict_fill_seconds"])
            del paths
        else:
            row["store_recompute_seconds"] = _best_of(2, store.recompute)
            if dict_anchor is not None:
                anchor_flows, anchor_seconds = dict_anchor
                row["dict_fill_seconds"] = anchor_seconds * size / anchor_flows
                row["dict_projected"] = True
                row["speedup"] = row["dict_fill_seconds"] / max(
                    row["store_recompute_seconds"], 1e-9
                )
        del simulation, store
        recompute_rows.append(row)

        run_seconds, peak = _timed_run(graph, flows)
        assert peak == size, (
            f"run at {size} flows peaked at {peak} concurrent flows"
        )
        run_rows.append({"flows": size, "seconds": run_seconds})
    return {
        "sizes": sizes,
        "instants": SCALE_INSTANTS,
        "dict_measure_cap": dict_cap,
        "recompute": recompute_rows,
        "runs": run_rows,
    }


def sweep_speedup(workers):
    config = SensitivityConfig(duration=1.0)
    start = time.perf_counter()
    serial = run_sensitivity(config, workers=1)
    serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_sensitivity(config, workers=workers)
    parallel_seconds = time.perf_counter() - start
    assert parallel.rows == serial.rows
    return {
        "cells": len(serial.rows),
        "workers": workers,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": serial_seconds / max(parallel_seconds, 1e-9),
    }


def run_bench():
    flow_count = int(os.environ.get("BENCH_ENGINE_FLOWS", "10000"))
    dispatches = int(os.environ.get("BENCH_ENGINE_DISPATCHES", "2000"))
    cpu_count = os.cpu_count() or 1
    # More workers than cores just multiplies process startup; cap at the
    # detected core count so the recorded speedup is honest.
    workers = min(
        int(os.environ.get("BENCH_ENGINE_SWEEP_WORKERS", "4")),
        max(cpu_count, 1),
    )
    scale_max = int(os.environ.get("BENCH_ENGINE_SCALE_MAX", "1000000"))
    dict_cap = int(os.environ.get("BENCH_ENGINE_SCALE_DICT_CAP", "100000"))
    return {
        "cpu_count": cpu_count,
        "dispatch": dispatch_microbench(flow_count, dispatches),
        "end_to_end": end_to_end_run(),
        "sweep": sweep_speedup(max(workers, 1)),
        "flow_scaling": flow_state_scaling(scale_max, dict_cap),
    }


def test_bench_engine(benchmark):
    payload = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    scaling = payload["flow_scaling"]
    write_bench_artifact(
        "engine",
        headline={
            "dispatch_speedup": payload["dispatch"]["speedup"],
            "dispatch_event_seconds": payload["dispatch"]["event_seconds"],
            "end_to_end_event_seconds": payload["end_to_end"]["event_seconds"],
            "sweep_speedup": payload["sweep"]["speedup"],
            "flow_scaling_max_flows": scaling["sizes"][-1],
            "flow_scaling_recompute_speedup": max(
                row["speedup"] or 0.0
                for row in scaling["recompute"]
                if not row["dict_projected"]
            ),
            "flow_scaling_columnar_run_seconds": scaling["runs"][-1]["seconds"],
        },
        payload=payload,
        out=os.environ.get("BENCH_ENGINE_OUT"),
    )

    dispatch = payload["dispatch"]
    sweep = payload["sweep"]
    print()
    print(
        f"dispatch ({dispatch['flows']} flows x {dispatch['dispatches']}): "
        f"rescan={dispatch['scan_seconds']:.3f}s "
        f"armed={dispatch['event_seconds']:.3f}s "
        f"({dispatch['speedup']:.0f}x)"
    )
    print(
        f"end-to-end ({payload['end_to_end']['flows']} flows): "
        f"{payload['end_to_end']['event_seconds']:.2f}s"
    )
    print(
        f"sweep ({sweep['cells']} cells, {sweep['workers']} workers, "
        f"{payload['cpu_count']} cpus): serial={sweep['serial_seconds']:.2f}s "
        f"parallel={sweep['parallel_seconds']:.2f}s "
        f"({sweep['speedup']:.2f}x)"
    )

    for row in scaling["recompute"]:
        dict_note = "-"
        if row["dict_fill_seconds"] is not None:
            if row["dict_projected"]:
                ratio = f"{row['speedup']:.1f}x, projected"
            else:
                pairs = ", ".join(f"{r:.1f}" for r in row["pair_ratios"])
                ratio = f"median {row['speedup']:.1f}x of pairs {pairs}"
            dict_note = f"{row['dict_fill_seconds']:.4f}s ({ratio})"
        print(
            f"recompute @ {row['flows']:>7} flows: "
            f"store={row['store_recompute_seconds']:.4f}s dict={dict_note}"
        )
    for row in scaling["runs"]:
        print(f"run @ {row['flows']:>7} flows: {row['seconds']:.2f}s")

    # The headline: scheduled completions beat a per-dispatch ETA rescan
    # by orders of magnitude once the active set is large.
    assert dispatch["flows"] >= 10_000
    assert dispatch["speedup"] >= 10, dispatch

    # The flow-store contract: ≥10× faster rate recompute than the dict
    # fill at 100k flows (the median of interleaved head-to-head pairs,
    # not projected) and a
    # completed run at the curve's largest size with every flow
    # concurrently active (the per-size assert in flow_state_scaling
    # already checked the peaks).
    measured = {
        row["flows"]: row
        for row in scaling["recompute"]
        if row["dict_fill_seconds"] is not None and not row["dict_projected"]
    }
    if 100_000 in measured:
        assert measured[100_000]["speedup"] >= 10, measured[100_000]
    assert scaling["runs"][-1]["flows"] == scaling["sizes"][-1]

    if payload["cpu_count"] < 2:
        # A 1-core runner cannot parallelize; the artifact records the
        # honest timings but a speedup assertion there is meaningless.
        print("sweep speedup gate skipped: fewer than 2 cores detected")
    elif os.environ.get("BENCH_ENGINE_REQUIRE_SPEEDUP"):
        assert sweep["speedup"] >= 2.0, sweep
