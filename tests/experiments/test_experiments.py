"""Tests for the experiment harness (registry, fast experiments, helpers).

The heavyweight simulation experiments are exercised by the benchmarks;
here we test the registry, the fast experiments end-to-end, and the shared
helpers with tiny parameters.
"""

import pytest

from repro.analysis import ExperimentResult
from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments import (
    ablation,
    bgp_section,
    failover,
    fig11_timeseries,
    fig12_simple,
    fig13_slack,
    fig14_overhead,
    fig15_cpu,
    table1,
)
from repro.experiments.common import (
    QUICK_SCALE,
    WorkloadScale,
    facebook_workload,
    installer_factory,
    isp_workload,
    replay_trace,
    run_te_cell,
    te_workload,
)
from repro.faults import FaultInjector
from repro.traffic import MicrobenchConfig, generate_trace, seed_rules


class TestRegistry:
    def test_all_paper_artifacts_present(self):
        expected = {
            "table1",
            "fig1",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "bgp",
            "sensitivity",
            "ablation",
            "autotune",
            "failover",
            "chaos",
        }
        assert expected == set(EXPERIMENTS)

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")


class TestFastExperiments:
    def test_table1(self):
        result = table1.run(table1.Table1Config(probe_inserts=3))
        assert isinstance(result, ExperimentResult)
        assert len(result.rows) == 8
        assert all(0.9 < row[4] < 1.1 for row in result.rows)

    def test_fig14(self):
        result = fig14_overhead.run()
        assert len(result.rows) == 9
        overheads = result.column("overhead (%)")
        assert all(0 < value <= 100 for value in overheads)

    def test_fig15_shapes(self):
        result = fig15_cpu.run(fig15_cpu.Fig15Config(rule_counts=(50, 200)))
        migration = result.column("migration (ms total)")
        assert migration[1] > migration[0]

    def test_fig11_stream_flavours(self):
        config = fig11_timeseries.Fig11Config(rule_count=40, batch_size=10)
        facebook = fig11_timeseries.build_stream("facebook", config)
        geant = fig11_timeseries.build_stream("geant", config)
        assert len(facebook) == 40 and len(geant) == 40
        with pytest.raises(ValueError):
            fig11_timeseries.build_stream("bogus", config)

    def test_fig12_single_point(self):
        trace = MicrobenchConfig(arrival_rate=400, overlap_rate=1.0, duration=0.25)
        violations, migrations = fig12_simple.run_one("pica8-p3290", 0.0, trace)
        assert violations < 5.0
        assert migrations > 0

    def test_fig13_single_point(self):
        mean_ms, p99_ms, violations = fig13_slack.run_point(
            "dell-8132f", 200.0, 0.0, 1.0, duration=0.25
        )
        assert 0 < mean_ms < p99_ms
        assert violations >= 0

    def test_ablation_variant(self):
        config = ablation.AblationConfig(arrival_rate=300, duration=0.5)
        stats = ablation.run_variant({}, config)
        assert stats["migrations"] >= 1
        assert stats["gap_ms"] == 0.0

    def test_bgp_trace_builder(self):
        config = bgp_section.BgpConfig(duration=3.0)
        trace = bgp_section.fib_trace("nwax", config)
        assert trace
        times = [timed.time for timed in trace]
        assert times == sorted(times)


class TestOrderIndependence:
    def test_failover_rows_repeat_in_one_process(self):
        # The schemes reroute the same flows: each run numbers its own
        # workload, so neither the scheme order nor an earlier run can
        # shift flow ids (and with them rule priorities and ECMP paths).
        first = failover.run()
        second = failover.run()
        assert second.rows == first.rows
        assert len({row[-1] for row in first.rows}) == 1


class TestCommonHelpers:
    def test_facebook_workload_shapes(self):
        scale = WorkloadScale(job_count=5)
        graph, flows, short_ids, long_ids = facebook_workload(scale)
        assert flows
        assert short_ids or long_ids
        assert not short_ids & long_ids

    def test_isp_workload(self):
        scale = WorkloadScale(isp_flow_duration=1.0)
        graph, flows = isp_workload("abilene", scale)
        assert graph.number_of_nodes() == 11
        assert flows

    def test_te_workload_by_name(self):
        scale = WorkloadScale(job_count=5, isp_flow_duration=1.0)
        graph, flows, config, short_ids = te_workload("facebook", scale)
        assert [flow.flow_id for flow in flows] == [
            flow.flow_id for flow in facebook_workload(scale)[1]
        ]
        assert short_ids == facebook_workload(scale)[2]
        _, isp_flows, wan, isp_short = te_workload("abilene", scale)
        assert isp_flows and not isp_short
        assert wan.control_rtt == 10e-3 > config.control_rtt

    def test_te_cell_repeats_in_one_process(self):
        scale = WorkloadScale(job_count=4)
        first = run_te_cell("facebook", "hermes", "pica8-p3290", scale)
        second = run_te_cell("facebook", "hermes", "pica8-p3290", scale)
        assert second.rits() == first.rits()
        assert second.fcts() == first.fcts()

    def test_isp_workload_tomogravity_path(self):
        scale = WorkloadScale(isp_flow_duration=0.5)
        _, flows = isp_workload("abilene", scale, tomogravity=True)
        assert flows

    def test_heterogeneous_factory_assigns_by_role(self):
        from repro.experiments.common import heterogeneous_installer_factory

        factory = heterogeneous_installer_factory(
            "naive",
            {"edge": "dell-8132f", "core": "pica8-p3290"},
            default_switch="hp-5406zl",
        )
        injector = FaultInjector()
        assert factory("edge-0-1", injector).table.timing.name == "Dell 8132F"
        assert factory("core-3", injector).table.timing.name == "Pica8 P-3290"
        assert factory("agg-1-0", injector).table.timing.name == "HP 5406zl"

    def test_heterogeneous_factory_in_simulation(self):
        import numpy as np

        from repro.experiments.common import heterogeneous_installer_factory
        from repro.simulator import Simulation, SimulationConfig, TeAppConfig
        from repro.topology import FatTreeSpec, build_fat_tree, hosts
        from repro.traffic import flows_of, generate_jobs

        graph = build_fat_tree(FatTreeSpec(k=4, link_capacity=1e9))
        flows = flows_of(
            generate_jobs(hosts(graph), job_count=4, rng=np.random.default_rng(0))
        )
        factory = heterogeneous_installer_factory(
            "hermes", {"edge": "dell-8132f"}, default_switch="pica8-p3290"
        )
        sim = Simulation(
            graph,
            flows,
            factory,
            SimulationConfig(
                te=TeAppConfig(epoch=0.5), baseline_occupancy=100, max_time=1e3
            ),
        )
        metrics = sim.run()
        assert len(metrics.fcts()) == len(flows)
        edge_agent = sim.controller.agents["edge-0-0"]
        core_agent = sim.controller.agents["core-0"]
        assert edge_agent.installer.timing.name == "Dell 8132F"
        assert core_agent.installer.timing.name == "Pica8 P-3290"

    def test_installer_factory_fresh_instances(self):
        factory = installer_factory("naive", "pica8-p3290", seed=1)
        injector = FaultInjector()
        first, second = factory("s1", injector), factory("s2", injector)
        assert first is not second
        # The factory wires each installer to the run's injector.
        assert first.injector is injector and second.injector is injector

    def test_replay_trace_without_batching(self):
        trace_config = MicrobenchConfig(arrival_rate=100, duration=0.2)
        outcome = replay_trace(
            generate_trace(trace_config),
            "naive",
            "pica8-p3290",
            prefill_rules=seed_rules(trace_config),
        )
        assert len(outcome.response_times) == len(outcome.execution_latencies)
        assert all(
            response >= execution - 1e-12
            for response, execution in zip(
                outcome.response_times, outcome.execution_latencies
            )
        )

    def test_replay_trace_with_batching(self):
        trace_config = MicrobenchConfig(arrival_rate=100, duration=0.2)
        outcome = replay_trace(
            generate_trace(trace_config),
            "espres",
            "pica8-p3290",
            batch_window=0.05,
        )
        assert len(outcome.response_times) == 20
