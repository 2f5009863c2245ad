#!/usr/bin/env python3
"""Data-center traffic engineering: the paper's motivating scenario.

A MapReduce workload (Facebook-style job mix) runs on a fat-tree data
center whose proactive TE application periodically moves congested flows to
colder paths.  Every reroute costs TCAM rule installations on the switches
of the new path — and those installations are what separate a raw switch
from Hermes.

The example runs the same workload three times (zero-latency control plane,
raw Pica8 P-3290, Hermes on the same Pica8) and reports rule-installation
and job-completion statistics.

Run: ``python examples/datacenter_te.py``  (about a minute)
"""

import numpy as np

from repro import Simulation, SimulationConfig, TeAppConfig, make_installer
from repro.tcam import get_switch_model
from repro.topology import FatTreeSpec, build_fat_tree, hosts
from repro.traffic import flows_of, generate_jobs, is_short_job


def run_once(graph, flows, scheme: str, switch: str):
    config = SimulationConfig(
        te=TeAppConfig(epoch=0.2, utilization_threshold=0.5, max_moves_per_epoch=24),
        baseline_occupancy=500,
        initial_path_policy="static",
        max_time=1200.0,
    )
    factory = lambda name, injector: make_installer(
        scheme, get_switch_model(switch), injector=injector
    )
    simulation = Simulation(graph, list(flows), factory, config)
    return simulation.run()


def describe(label: str, metrics, short_ids) -> None:
    rits = metrics.rits()
    jcts = metrics.jcts()
    short_jcts = [v for k, v in jcts.items() if k in short_ids]
    print(f"{label}:")
    if rits:
        print(
            f"  rule installation: median {np.median(rits) * 1e3:8.2f} ms, "
            f"p99 {np.percentile(rits, 99) * 1e3:8.2f} ms ({len(rits)} installs)"
        )
    print(
        f"  job completion:    median {np.median(list(jcts.values())):6.2f} s, "
        f"short-job median {np.median(short_jcts):6.2f} s"
    )


def main() -> None:
    graph = build_fat_tree(FatTreeSpec(k=4, link_capacity=1e9))
    jobs = generate_jobs(
        hosts(graph), job_count=40, arrival_rate=4.0, rng=np.random.default_rng(0)
    )
    short_ids = {job.job_id for job in jobs if is_short_job(job)}
    flows = flows_of(jobs)
    print(
        f"Workload: {len(jobs)} MapReduce jobs, {len(flows)} flows, "
        f"{sum(f.size for f in flows) / 1e9:.1f} GB total on a k=4 fat tree\n"
    )

    describe("Zero-latency control plane", run_once(graph, flows, "naive", "ideal"), short_ids)
    describe("Raw Pica8 P-3290", run_once(graph, flows, "naive", "pica8-p3290"), short_ids)
    describe("Hermes on the Pica8 (5 ms)", run_once(graph, flows, "hermes", "pica8-p3290"), short_ids)


if __name__ == "__main__":
    main()
