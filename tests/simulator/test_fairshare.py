"""Max-min fair rates as ``FlowStore.recompute`` fills them.

Every fill here runs twice, once with the list fill forced and once with
the vectorized fill forced, and the two must agree bit for bit
(``reference_fill.rates_by_fill``).  Flow paths are node paths; link
``("a", "b")`` is the hop between nodes ``a`` and ``b``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import UNCONSTRAINED_RATE, FlowStore
from repro.traffic.flows import FlowSpec

from tests.simulator.reference_fill import link_utilization, rates_by_fill


L1 = ("a", "b")
L2 = ("b", "c")


def spec(flow_id):
    return FlowSpec(
        source="h0", destination="h1", size=1e6, start_time=0.0,
        flow_id=flow_id,
    )


def store_of(flow_paths, capacities):
    """A store holding one flow per ``flow_id -> node path`` entry."""
    store = FlowStore(capacities)
    for flow_id, path in flow_paths.items():
        store.add(spec(flow_id), path)
    return store


def fair_rates(flow_paths, capacities):
    return rates_by_fill(store_of(flow_paths, capacities))


def links_of(path):
    return [tuple(sorted(hop)) for hop in zip(path, path[1:])]


# Simple paths of one to three hops on the square a-b-c-d-a.
SQUARE_PATHS = [
    ("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"),
    ("a", "b", "c"), ("b", "c", "d"), ("c", "d", "a"), ("d", "a", "b"),
    ("c", "b", "a"), ("a", "b", "c", "d"), ("d", "c", "b"),
]


class TestMaxMinFairness:
    def test_single_flow_gets_full_capacity(self):
        rates = fair_rates({1: ("a", "b")}, {L1: 10.0})
        assert rates[1] == pytest.approx(10.0)

    def test_equal_split_on_shared_link(self):
        rates = fair_rates({1: ("a", "b"), 2: ("a", "b")}, {L1: 10.0})
        assert rates[1] == pytest.approx(5.0)
        assert rates[2] == pytest.approx(5.0)

    def test_classic_three_flow_example(self):
        # Flow 1 uses L1+L2, flow 2 uses L1, flow 3 uses L2; capacities 10
        # each.  Max-min: 5 each.
        rates = fair_rates(
            {1: ("a", "b", "c"), 2: ("a", "b"), 3: ("b", "c")},
            {L1: 10.0, L2: 10.0},
        )
        assert rates[1] == pytest.approx(5.0)
        assert rates[2] == pytest.approx(5.0)
        assert rates[3] == pytest.approx(5.0)

    def test_bottleneck_frees_capacity_elsewhere(self):
        # Flow 1 on the thin link shares it; flow 2 alone enjoys the fat
        # link's rest.
        rates = fair_rates(
            {1: ("a", "b", "c"), 2: ("b", "c")}, {L1: 2.0, L2: 10.0}
        )
        assert rates[1] == pytest.approx(2.0)
        assert rates[2] == pytest.approx(8.0)

    def test_empty_path_means_unconstrained(self):
        rates = fair_rates({1: ("a",)}, {})
        assert rates[1] == UNCONSTRAINED_RATE

    def test_unknown_link_raises(self):
        store = FlowStore({L1: 1.0})
        with pytest.raises(KeyError):
            store.add(spec(1), ("x", "y"))
        assert len(store) == 0

    def test_no_flows(self):
        assert fair_rates({}, {L1: 1.0}) == {}

    @settings(max_examples=50, deadline=None)
    @given(
        st.dictionaries(
            st.integers(min_value=1, max_value=20),
            st.sampled_from(SQUARE_PATHS),
            min_size=1,
            max_size=10,
        )
    )
    def test_allocation_is_feasible_and_positive(self, flow_paths):
        capacities = {
            ("a", "b"): 10.0,
            ("b", "c"): 7.0,
            ("c", "d"): 5.0,
            ("a", "d"): 3.0,
        }
        rates = fair_rates(flow_paths, capacities)
        assert set(rates) == set(flow_paths)
        assert all(rate >= 0 for rate in rates.values())
        # No link is oversubscribed (small float tolerance).
        load = {}
        for flow_id, path in flow_paths.items():
            for link in links_of(path):
                load[link] = load.get(link, 0.0) + rates[flow_id]
        for link, total in load.items():
            assert total <= capacities[link] * (1 + 1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        st.dictionaries(
            st.integers(min_value=1, max_value=10),
            st.sampled_from(
                [("a", "b"), ("b", "c"), ("a", "b", "c"), ("c", "b", "a")]
            ),
            min_size=2,
            max_size=8,
        )
    )
    def test_max_min_property(self, flow_paths):
        """No flow's rate can rise without lowering a poorer flow's rate:
        every flow is bottlenecked at a saturated link where it has the
        maximal share."""
        capacities = {("a", "b"): 10.0, ("b", "c"): 6.0}
        rates = fair_rates(flow_paths, capacities)
        links = {flow_id: links_of(path) for flow_id, path in flow_paths.items()}
        load = {}
        for flow_id, flow_links in links.items():
            for link in flow_links:
                load[link] = load.get(link, 0.0) + rates[flow_id]
        for flow_id, flow_links in links.items():
            bottlenecked = False
            for link in flow_links:
                saturated = load[link] >= capacities[link] * (1 - 1e-9)
                share_is_max = all(
                    rates[flow_id] >= rates[other] - 1e-9
                    for other, other_links in links.items()
                    if link in other_links
                )
                if saturated and share_is_max:
                    bottlenecked = True
            assert bottlenecked, f"flow {flow_id} has no bottleneck link"


class TestLinkUtilization:
    """``FlowStore.utilization`` equals the oracle's ``link_utilization``,
    values and key order."""

    @staticmethod
    def utilization_and_reference(flow_paths, rates, capacities):
        store = store_of(flow_paths, capacities)
        for flow_id, rate in rates.items():
            store.rate[store.row(flow_id)] = rate
        reference = link_utilization(
            {flow_id: links_of(path) for flow_id, path in flow_paths.items()},
            rates,
            capacities,
        )
        utilization = store.utilization()
        assert list(utilization.items()) == list(reference.items())
        return utilization

    def test_utilization_computed_per_link(self):
        utilization = self.utilization_and_reference(
            {1: ("b", "c"), 2: ("a", "b", "c")},
            {1: 4.0, 2: 2.0},
            {L1: 10.0, L2: 10.0},
        )
        assert list(utilization) == [L2, L1]
        assert utilization[L2] == pytest.approx(0.6)
        assert utilization[L1] == pytest.approx(0.2)

    def test_zero_capacity_links_skipped(self):
        utilization = self.utilization_and_reference(
            {1: ("a", "b", "c")}, {1: 1.0}, {L1: 0.0, L2: 4.0}
        )
        assert L1 not in utilization
        assert utilization == {L2: 0.25}
