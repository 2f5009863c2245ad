"""The indexed TE planner against its scan oracle, on a k=4 fat tree.

``ProactiveTeApp.plan`` lists each congested link's flows once and memoizes
path costs and move decisions until a move changes the utilization.  The
differential below draws epochs built to stress exactly what that could get
wrong: tied rates (the sort must keep admission order), utilizations on and
around the threshold, move caps including 0, and several flows per OD pair
sharing one current path (the decision memo).  The reroutes must equal
those of :func:`reference_plan`, the planner as a plain scan.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import RecordingTracer, trace_lines, use_tracer
from repro.simulator import ProactiveTeApp, TeAppConfig
from repro.topology import FatTreeSpec, build_fat_tree, hosts
from repro.topology.routing import PathProvider, path_links_cached
from repro.traffic.flows import FlowSpec

from tests.simulator.reference_plan import reference_plan

CAPACITY = 1e9
GRAPH = build_fat_tree(FatTreeSpec(k=4, link_capacity=CAPACITY))
PROVIDER = PathProvider(GRAPH, k_paths=4)
HOSTS = hosts(GRAPH)
LINKS = sorted(tuple(sorted(edge)) for edge in GRAPH.edges)


@st.composite
def epochs(draw):
    """One TE epoch's inputs: flows, their paths, rates and link loads."""
    threshold = draw(st.sampled_from([0.5, 0.7, 0.9]))
    config = TeAppConfig(
        utilization_threshold=threshold,
        max_moves_per_epoch=draw(st.sampled_from([0, 1, 2, 3, 5, 16])),
    )
    # A few OD pairs, so most pairs carry several flows.
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(HOSTS), st.sampled_from(HOSTS)).filter(
                lambda pair: pair[0] != pair[1]
            ),
            min_size=1,
            max_size=6,
        )
    )
    flow_count = draw(st.integers(min_value=1, max_value=30))
    flows, paths, rates = {}, {}, {}
    # Admission order is not flow-id order.
    for flow_id in draw(st.permutations(range(100, 100 + flow_count))):
        source, destination = draw(st.sampled_from(pairs))
        options = PROVIDER.paths(source, destination)
        flows[flow_id] = FlowSpec(source, destination, 1.0, 0.0, flow_id=flow_id)
        paths[flow_id] = options[draw(st.integers(0, len(options) - 1))]
        if draw(st.booleans()) or flow_id % 7:
            # Few distinct rates, so ties are common.
            rates[flow_id] = draw(
                st.one_of(
                    st.sampled_from([0.0, 1e8, 2.5e8, 5e8]),
                    st.floats(min_value=0.0, max_value=CAPACITY),
                )
            )
    near = [threshold - 0.05, threshold - 1e-9, threshold, threshold + 1e-9, threshold + 0.05]
    utilization = {}
    for link in LINKS:
        if draw(st.integers(0, 5)):  # some links carry no entry at all
            utilization[link] = draw(
                st.one_of(st.sampled_from(near), st.floats(min_value=0.0, max_value=1.5))
            )
    capacities = {
        link: draw(st.sampled_from([CAPACITY, CAPACITY, 0.0])) for link in LINKS
    }
    return config, flows, paths, rates, utilization, capacities


class TestPlanMatchesScanOracle:
    @settings(max_examples=300, deadline=None)
    @given(epoch=epochs())
    def test_reroutes_equal_the_scan(self, epoch):
        config, flows, paths, rates, utilization, capacities = epoch
        app = ProactiveTeApp(PROVIDER, config)
        expected = reference_plan(app, flows, paths, rates, utilization, capacities)
        assert app.plan(flows, paths, rates, utilization, capacities) == expected

    def test_inputs_are_left_untouched(self):
        source, destination = HOSTS[0], HOSTS[-1]
        path = PROVIDER.paths(source, destination)[0]
        flows = {1: FlowSpec(source, destination, 1.0, 0.0, flow_id=1)}
        utilization = {link: 0.95 for link in LINKS}
        before = dict(utilization)
        ProactiveTeApp(PROVIDER).plan(
            flows, {1: path}, {1: 5e8}, utilization, dict.fromkeys(LINKS, CAPACITY)
        )
        assert utilization == before


class TestPlanWorkCounters:
    def _epoch(self):
        source, destination = HOSTS[0], HOSTS[-1]
        options = PROVIDER.paths(source, destination)
        flows = {
            flow_id: FlowSpec(source, destination, 1.0, 0.0, flow_id=flow_id)
            for flow_id in range(4)
        }
        paths = dict.fromkeys(flows, options[0])
        rates = dict.fromkeys(flows, 2e8)
        # The path's switch-to-switch links run hot; every detour is cold.
        hot = set(path_links_cached(options[0])[1:-1])
        utilization = {link: 0.95 if link in hot else 0.1 for link in LINKS}
        return flows, paths, rates, utilization, dict.fromkeys(LINKS, CAPACITY)

    def test_counters_land_in_the_registry_not_the_trace(self):
        flows, paths, rates, utilization, capacities = self._epoch()
        app = ProactiveTeApp(PROVIDER, TeAppConfig(max_moves_per_epoch=2))
        plain = RecordingTracer()
        with use_tracer(plain):
            moves = app.plan(flows, paths, rates, utilization, capacities)
        assert len(moves) == 2
        candidates = plain.metrics.counter("hermes_te_candidates_total").value()
        costed = plain.metrics.counter("hermes_te_costed_total").value()
        assert candidates >= len(moves)
        # Four flows on one path: the memo costs each of the OD pair's
        # paths once per move, never once per flow.
        options = len(PROVIDER.paths(flows[0].source, flows[0].destination))
        assert 0 < costed <= options * (len(moves) + 1)
        # The te.plan event itself carries only its usual attributes.
        (event,) = [r for r in plain.records if r["name"] == "te.plan"]
        assert sorted(event["attrs"]) == ["congested", "moves"]
        assert all("hermes_te" not in line for line in trace_lines(plain))

    def test_untraced_plan_is_the_same_plan(self):
        flows, paths, rates, utilization, capacities = self._epoch()
        app = ProactiveTeApp(PROVIDER, TeAppConfig(max_moves_per_epoch=2))
        untraced = app.plan(flows, paths, rates, utilization, capacities)
        with use_tracer(RecordingTracer()):
            traced = app.plan(flows, paths, rates, utilization, capacities)
        assert traced == untraced
