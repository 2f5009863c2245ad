"""Tests for the columnar flow-state engine.

Four layers of evidence that the columnar flow state is exact:

* a hypothesis differential that drives a :class:`FlowStore` through
  add/remove/``set_path``/``fail_link`` churn and compaction and, after
  every step, pins both of its fills (list and vectorized, each forced)
  *bit-identical* (no tolerance) to the dict-fill oracle in
  ``reference_fill.py``, and its utilization to the oracle's;
* FlowStore unit tests for the row lifecycle (stable compaction, path
  churn, flags, link failure);
* whole-simulation pins: digests of the per-flow records, RITs and
  blackhole time, captured from the per-flow-object simulator with its
  per-iteration completion scan, on arrival/completion workloads, under
  TE, under a link failure, and across same-instant arrival bursts (the
  batched-recompute fast path), plus a second TE workload pinned from
  the event-driven completion mode;
* the seed's chaos parity digests, reproduced with each fill forced for
  every recompute.
"""

import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import UNCONSTRAINED_RATE, FlowStore
from repro.simulator.flowstate import LIST_FILL_MAX_PAIRS
from repro.topology.routing import path_links_cached
from repro.traffic.flows import FlowSpec

from tests.engine.test_parity import (
    CHAOS_RESULT_DIGEST,
    CHAOS_TRACE_DIGEST,
    _SCENARIO_SCRIPT,
    _run_script,
)
from tests.simulator.reference_fill import (
    link_utilization,
    max_min_fair_rates,
    rate_bits,
    rates_by_fill,
)


def spec(flow_id, size=1e6, start=0.0, src="h0", dst="h1"):
    return FlowSpec(
        source=src, destination=dst, size=size, start_time=start,
        flow_id=flow_id,
    )


NODES = ("a", "b", "c", "d", "e")
ALL_LINKS = list(itertools.combinations(NODES, 2))
# Capacities drawn from a short list so ties are common, and 0.0 is in it.
CAPACITY = st.one_of(
    st.sampled_from([0.0, 1.0, 2.5, 10.0, 1e9]),
    st.floats(min_value=1e-3, max_value=1e12),
)


def simple_paths(links, max_hops=3):
    """Every simple node path of 1..max_hops hops over ``links``, plus the
    linkless path ``("a",)``."""
    adjacent = {node: [] for node in NODES}
    for u, v in links:
        adjacent[u].append(v)
        adjacent[v].append(u)
    paths = [("a",)]
    frontier = [(node,) for node in NODES]
    for _hop in range(max_hops):
        frontier = [
            path + (nxt,)
            for path in frontier
            for nxt in adjacent[path[-1]]
            if nxt not in path
        ]
        paths.extend(frontier)
    return paths


def assert_store_matches_oracle(store, capacities):
    """Both forced fills, and the utilization, equal the dict-fill oracle
    bit for bit, row by row in admission order."""
    flow_paths = {
        flow_id: path_links_cached(store.path(flow_id))
        for flow_id in store.flow_ids()
    }
    reference = max_min_fair_rates(flow_paths, capacities)
    rates = rates_by_fill(store)
    assert rate_bits(rates) == rate_bits(
        {flow_id: reference[flow_id] for flow_id in flow_paths}
    )
    assert list(store.utilization().items()) == list(
        link_utilization(flow_paths, reference, capacities).items()
    )


class TestColumnarFairShareDifferential:
    """The store's list and vectorized fills equal the dict-fill oracle."""

    @settings(max_examples=120, deadline=None)
    @given(
        links=st.lists(
            st.sampled_from(ALL_LINKS), min_size=1, max_size=len(ALL_LINKS),
            unique=True,
        ),
        data=st.data(),
    )
    def test_bit_identical_on_random_workloads(self, links, data):
        capacities = {link: data.draw(CAPACITY) for link in links}
        paths = simple_paths(links)
        path = st.sampled_from(paths)
        store = FlowStore(capacities, capacity=16)
        next_id = 0
        compacted = False
        steps = data.draw(
            st.lists(
                st.sampled_from(
                    ["add", "add", "add", "remove", "set_path", "fail_link",
                     "compact"]
                ),
                min_size=1,
                max_size=40,
            )
        )
        for step in steps:
            active = store.flow_ids()
            high_water = store.size
            if step == "add":
                for new_path in data.draw(st.lists(path, min_size=1, max_size=6)):
                    store.add(spec(next_id), new_path)
                    next_id += 1
                    high_water += 1
            elif step == "remove" and active:
                for flow_id in data.draw(
                    st.lists(st.sampled_from(active), unique=True, max_size=8)
                ):
                    store.remove(flow_id)
            elif step == "set_path" and active:
                store.set_path(data.draw(st.sampled_from(active)), data.draw(path))
            elif step == "fail_link":
                failed = data.draw(st.sampled_from(links))
                store.fail_link(failed)
                capacities[failed] = 0.0
            elif step == "compact":
                store.compact()
            compacted |= store.size < high_water
            assert_store_matches_oracle(store, capacities)
        # Long runs cross the 64-row compaction point inside ``add``;
        # compact the rest so every example checks a compacted store.
        if not compacted:
            store.compact()
            assert_store_matches_oracle(store, capacities)

    def test_ties_break_toward_first_encountered_link(self):
        # (a,b), (b,c) and (b,d) all start at share 1/3.  Freezing (a,b),
        # the first-encountered tied link, first leaves flows 3 and 4 one
        # ulp above 1/3; freezing (b,d) first would put the extra ulp on
        # flows 0 and 1 instead.
        capacities = {
            ("a", "b"): 1.0, ("b", "c"): 1.0, ("b", "d"): 1.0, ("d", "e"): 1.0,
        }
        store = FlowStore(capacities)
        for flow_id, path in enumerate(
            [("a", "b", "c"), ("a", "b", "c"), ("a", "b", "d"),
             ("b", "d", "e"), ("c", "b", "d")]
        ):
            store.add(spec(flow_id), path)
        assert_store_matches_oracle(store, capacities)
        third = 1.0 / 3.0
        assert rates_by_fill(store) == {
            0: third, 1: third, 2: third,
            3: math.nextafter(third, 1.0), 4: math.nextafter(third, 1.0),
        }

    def test_zero_capacity_bottleneck(self):
        capacities = {("a", "b"): 0.0, ("b", "c"): 10.0}
        store = FlowStore(capacities)
        store.add(spec(1), ("a", "b", "c"))
        store.add(spec(2), ("b", "c"))
        assert_store_matches_oracle(store, capacities)
        assert rates_by_fill(store) == {1: 0.0, 2: 10.0}

    def test_empty_paths_get_sentinel_rate(self):
        capacities = {("a", "b"): 4.0}
        store = FlowStore(capacities)
        store.add(spec(1), ("a",))
        store.add(spec(2), ("a", "b"))
        assert_store_matches_oracle(store, capacities)
        assert rates_by_fill(store) == {1: UNCONSTRAINED_RATE, 2: 4.0}

    def test_unknown_link_raises_keyerror(self):
        capacities = {("a", "b"): 1.0}
        store = FlowStore(capacities)
        store.add(spec(1), ("a", "b"))
        with pytest.raises(KeyError):
            store.set_path(1, ("a", "x"))
        assert store.path(1) == ("a", "b")
        assert_store_matches_oracle(store, capacities)

    def test_no_flows(self):
        capacities = {("a", "b"): 1.0}
        store = FlowStore(capacities)
        assert_store_matches_oracle(store, capacities)
        store.add(spec(1), ("a", "b"))
        store.remove(1)
        assert rates_by_fill(store) == {}
        assert store.utilization() == {}


class TestFlowStore:
    CAPS = {("a", "b"): 8.0, ("b", "c"): 4.0, ("c", "d"): 16.0}

    def make(self, capacity=16):
        return FlowStore(self.CAPS, capacity=capacity)

    def test_add_remove_membership(self):
        store = self.make()
        store.add(spec(7, size=100.0), ("a", "b"))
        assert 7 in store and len(store) == 1
        store.remove(7)
        assert 7 not in store and len(store) == 0
        with pytest.raises(KeyError):
            store.row(7)

    def test_duplicate_add_rejected(self):
        store = self.make()
        store.add(spec(1), ("a", "b"))
        with pytest.raises(ValueError):
            store.add(spec(1), ("a", "b"))

    def test_unknown_link_rejected(self):
        store = self.make()
        with pytest.raises(KeyError):
            store.add(spec(1), ("a", "z"))

    def test_recompute_matches_reference(self):
        store = self.make()
        store.add(spec(1), ("a", "b", "c"))
        store.add(spec(2), ("a", "b"))
        store.add(spec(3), ("b", "c"))
        store.recompute()
        reference = max_min_fair_rates(
            {1: [("a", "b"), ("b", "c")], 2: [("a", "b")], 3: [("b", "c")]},
            self.CAPS,
        )
        for flow_id in (1, 2, 3):
            assert store.rate[store.row(flow_id)] == reference[flow_id]

    def test_empty_path_row_gets_sentinel_rate(self):
        store = self.make()
        store.add(spec(1), ("a",))
        store.recompute()
        assert store.rate[store.row(1)] == UNCONSTRAINED_RATE

    def test_compaction_is_stable(self):
        store = self.make(capacity=16)
        for flow_id in range(200):
            store.add(spec(flow_id, size=10.0 * (flow_id + 1)), ("a", "b"))
            if flow_id % 2:
                store.remove(flow_id)
        survivors = store.flow_ids()
        assert survivors == sorted(survivors)  # admission order kept
        # Columns still line up with their flows after compactions.
        for flow_id in survivors:
            assert store.remaining[store.row(flow_id)] == 10.0 * (flow_id + 1)
            assert store.path(flow_id) == ("a", "b")

    def test_explicit_compact_preserves_state(self):
        store = self.make()
        store.add(spec(1, size=5.0), ("a", "b", "c"))
        store.add(spec(2, size=6.0), ("b", "c"))
        store.add(spec(3, size=7.0), ("c", "d"))
        store.remove(2)
        store.set_has_installed_rules(1, True)
        store.set_blackhole_start(3, 1.25)
        store.compact()
        assert store.flow_ids() == [1, 3]
        assert store.has_installed_rules(1) is True
        assert store.has_installed_rules(3) is False
        assert store.blackhole_start(3) == 1.25
        assert store.path(1) == ("a", "b", "c")
        store.recompute()
        reference = max_min_fair_rates(
            {1: [("a", "b"), ("b", "c")], 3: [("c", "d")]}, self.CAPS
        )
        assert store.rate[store.row(1)] == reference[1]
        assert store.rate[store.row(3)] == reference[3]

    def test_set_path_shrink_and_grow(self):
        store = self.make()
        store.add(spec(1), ("a", "b", "c", "d"))
        store.set_path(1, ("a", "b"))  # shrinks in place
        assert store.path(1) == ("a", "b")
        assert store.flows_on_link(("b", "c")) == []
        store.set_path(1, ("b", "c", "d"))  # grows: fresh segment
        assert store.path(1) == ("b", "c", "d")
        assert store.flows_on_link(("b", "c")) == [1]
        assert store.flows_on_link(("a", "b")) == []

    def test_flows_on_link_admission_order(self):
        store = self.make()
        store.add(spec(5), ("a", "b"))
        store.add(spec(2), ("a", "b", "c"))
        store.add(spec(9), ("b", "c"))
        assert store.flows_on_link(("a", "b")) == [5, 2]
        assert store.flows_on_link(("b", "c")) == [2, 9]
        assert store.flows_on_link(("x", "y")) == []

    def test_advance_and_next_completion(self):
        store = self.make()
        store.add(spec(1, size=8.0), ("a", "b"))
        store.add(spec(2, size=16.0), ("a", "b"))
        store.recompute()  # 4.0 each
        eta, flow_id = store.next_completion(0.0)
        assert (eta, flow_id) == (16.0, 1)
        store.advance(16.0)
        assert store.remaining[store.row(1)] == 0.0
        assert store.remaining[store.row(2)] == 8.0

    def test_next_completion_tie_breaks_to_earliest_admitted(self):
        store = self.make()
        store.add(spec(10, size=8.0), ("a", "b"))
        store.add(spec(11, size=8.0), ("a", "b"))
        store.recompute()
        _eta, flow_id = store.next_completion(0.0)
        assert flow_id == 10

    def test_no_completion_without_rates(self):
        store = self.make()
        assert store.next_completion(0.0) == (math.inf, None)
        store.add(spec(1), ("a", "b"))
        assert store.next_completion(0.0) == (math.inf, None)

    def test_fail_link_zeroes_rates(self):
        store = self.make()
        store.add(spec(1), ("a", "b"))
        store.fail_link(("a", "b"))
        store.recompute()
        assert store.rate[store.row(1)] == 0.0

    def test_utilization_matches_reference(self):
        store = self.make()
        store.add(spec(1), ("a", "b", "c"))
        store.add(spec(2), ("b", "c"))
        store.recompute()
        rows = {flow_id: store.row(flow_id) for flow_id in (1, 2)}
        reference = link_utilization(
            {1: [("a", "b"), ("b", "c")], 2: [("b", "c")]},
            {flow_id: float(store.rate[row]) for flow_id, row in rows.items()},
            self.CAPS,
        )
        assert store.utilization() == reference

    def test_te_views_are_admission_ordered_mappings(self):
        store = self.make()
        store.add(spec(3, size=5.0), ("a", "b"))
        store.add(spec(1, size=6.0), ("b", "c"))
        store.add(spec(2, size=7.0), ("c", "d"))
        store.set_pending_activation(1, True)
        store.remove(2)
        store.recompute()
        flows, eligible, rates = store.te_views()
        for view in (flows, eligible, rates):
            assert type(view) is dict
        assert list(flows) == list(rates) == [3, 1]
        # Flow 1 has an activation pending, so only flow 3 may move.
        assert eligible == {3: ("a", "b")}
        assert rates == {3: 8.0, 1: 4.0}
        assert flows[1].size == 6.0

    def test_dict_and_vectorized_fills_agree_across_threshold(self):
        # One store filled below the threshold (list fill), then grown
        # past it (vectorized fill): both must match the dict fill.
        caps = {("a", "b"): 8.0, ("b", "c"): 4.0, ("c", "d"): 16.0}
        store = FlowStore(caps)
        paths = [("a", "b", "c"), ("b", "c", "d"), ("a", "b"), ("c", "d")]
        reference_paths = {}
        flow_id = 0
        for target in (LIST_FILL_MAX_PAIRS // 2, LIST_FILL_MAX_PAIRS * 2):
            while sum(len(links) for links in reference_paths.values()) < target:
                path = paths[flow_id % len(paths)]
                store.add(spec(flow_id), path)
                reference_paths[flow_id] = list(zip(path, path[1:]))
                flow_id += 1
            store.recompute()
            reference = max_min_fair_rates(reference_paths, caps)
            assert {
                fid: float(store.rate[store.row(fid)]) for fid in reference
            } == reference


# Runs one pinned whole-simulation scenario in a fresh interpreter: flow
# and rule ids come from process-global counters, and the ECMP choice
# hashes the flow id.
_SIMULATION_SCRIPT = r"""
import hashlib
import json
import sys
from dataclasses import replace

import numpy as np

from repro.experiments.common import (
    QUICK_SCALE,
    installer_factory,
    te_simulation_config,
)
from repro.simulator import Simulation
from repro.topology import FatTreeSpec, build_fat_tree, hosts
from repro.traffic.flows import FlowSpec


def workload(burst, seed=5, flows_count=120):
    graph = build_fat_tree(FatTreeSpec(k=4, link_capacity=1e9))
    hosts_ = hosts(graph)
    rng = np.random.default_rng(seed)
    flows = []
    for index in range(flows_count):
        start = 0.05 * (index // 30) if burst else float(rng.uniform(0.0, 1.5))
        src, dst = rng.choice(len(hosts_), size=2, replace=False)
        flows.append(
            FlowSpec(
                source=hosts_[src],
                destination=hosts_[dst],
                size=float(rng.integers(int(1e5), int(5e6))),
                start_time=start,
                flow_id=index,
            )
        )
    return graph, flows


base = te_simulation_config(QUICK_SCALE)
scenarios = {
    "quiet": (False, 5, {"te": replace(base.te, epoch=1e9)}),
    "te": (False, 5, {}),
    "te-seed-7": (False, 7, {}),
    "link-failure": (
        False, 5, {"link_failures": ((0.4, ("agg-0-0", "core-0")),)}
    ),
    "bursts": (True, 5, {}),
}
burst, seed, overrides = scenarios[sys.argv[1]]
graph, flows = workload(burst, seed=seed)
simulation = Simulation(
    graph,
    flows,
    installer_factory("tango", "pica8-p3290", seed=100),
    replace(base, **overrides),
)
metrics = simulation.run()
records = sorted(
    (
        record.spec.flow_id,
        record.start_time,
        -1.0 if record.finish_time is None else record.finish_time,
        record.reroutes,
    )
    for record in metrics.flow_records()
)
payload = json.dumps(
    [records, sorted(metrics.rits()), simulation.blackhole_time]
).encode()
print(
    json.dumps(
        {
            "digest": hashlib.sha256(payload).hexdigest(),
            "blackhole_time": simulation.blackhole_time,
            "reroutes": metrics.total_reroutes(),
        }
    )
)
"""


def _scenario(name):
    return json.loads(_run_script(_SIMULATION_SCRIPT, name))


class TestSimulationDifferential:
    """Whole simulations reproduce the per-flow-object simulator exactly.

    The digests were captured from the simulator that kept one Python
    object per flow and rescanned every ETA each loop iteration; the
    columnar state under the event loop must match them byte for byte.
    """

    def test_arrival_completion_workload_exact(self):
        # A TE epoch far past the workload: pure arrival/completion dynamics.
        assert _scenario("quiet")["digest"] == (
            "6f3466d9446d20069503b75decb34e67e4d76abf5ac91a816aa6b548e4368449"
        )

    def test_te_workload_exact(self):
        # TE epochs that move nothing drain bytes without a recompute: the
        # stale-ETA re-arm keeps completions exact.
        assert _scenario("te")["digest"] == (
            "c718a6c7a72f06e34940bed8bc6ba9f23cd76c092151ecaa6b86886c51669304"
        )

    def test_event_mode_exact(self):
        # A second TE workload, pinned from the parent's event-driven
        # completion mode (objects and columnar runs agreed there); the
        # single event loop must reproduce it.
        assert _scenario("te-seed-7")["digest"] == (
            "dbf129941f9589e13e40df2e30bc0144dd0481911d57d781cd77c04a68dfdc00"
        )

    def test_link_failure_exact(self):
        result = _scenario("link-failure")
        assert result["digest"] == (
            "3a9ce7b4fba37f15e27dcd732317ac770a6c178bfe58e7a1d0bc723e349304e5"
        )
        assert result["blackhole_time"] > 0
        assert result["reroutes"] == 4

    def test_same_instant_bursts_exact(self):
        # Bursts exercise the batched same-instant recompute.
        assert _scenario("bursts")["digest"] == (
            "76129164b9f94791c8c0ff8999da643b47285c94a4a34bc7c0e9c20c3f3ab55c"
        )


class TestObjectsParityDigest:
    """The seed's object-backend chaos digests hold on the columnar store.

    ``tests/engine/test_parity`` checks the chaos scenario with the
    default fill choice, where every fill is small enough for the list
    fill. Here the vectorized fill is forced for every recompute, in a
    fresh interpreter, and the same pinned seed digests must come out.
    """

    SCRIPT = (
        "import repro.simulator.flowstate as _flowstate\n"
        "_flowstate.LIST_FILL_MAX_PAIRS = 0\n" + _SCENARIO_SCRIPT
    )

    def test_chaos_objects_matches_seed_digests(self):
        digests = json.loads(_run_script(self.SCRIPT, "chaos"))
        assert digests["result"] == CHAOS_RESULT_DIGEST
        assert digests["trace"] == CHAOS_TRACE_DIGEST


class TestObjectsParityDigestListFill(TestObjectsParityDigest):
    """The same seed digests with the list fill forced for every recompute."""

    SCRIPT = (
        "import repro.simulator.flowstate as _flowstate\n"
        "_flowstate.LIST_FILL_MAX_PAIRS = 1 << 62\n" + _SCENARIO_SCRIPT
    )
