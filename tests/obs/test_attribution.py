"""Per-FlowMod attribution on a traced ``fig01`` run.

Every submission nests as ``flowmod -> agent.batch -> agent.action``, and
each action's span is open while the installer applies that FlowMod.  So
the GateKeeper decision, Algorithm 1's cost and the TCAM shifts of a
FlowMod land on the span of the FlowMod that caused them, not on the batch
that carried it.
"""

import pytest

from repro.experiments.common import canned_scenario
from repro.obs import RecordingTracer, use_tracer
from repro.obs.summary import flowmod_breakdowns


@pytest.fixture(scope="module")
def traced_fig01():
    tracer = RecordingTracer()
    with use_tracer(tracer):
        simulation, _meta = canned_scenario("fig01")
        simulation.run()
    return simulation, tracer


def _spans_by_id(records):
    return {
        record["id"]: record for record in records if record["type"] == "span"
    }


class TestFig01Attribution:
    def test_gatekeeper_events_hang_on_their_action(self, traced_fig01):
        _simulation, tracer = traced_fig01
        spans = _spans_by_id(tracer.records)
        parents = [
            spans[record["span"]]["name"]
            for record in tracer.records
            if record["type"] == "event" and record["name"] == "hermes.gatekeeper"
        ]
        assert parents, "fig01 made no GateKeeper decisions"
        assert set(parents) == {"agent.action"}

    def test_every_guaranteed_add_has_a_gatekeeper_stage(self, traced_fig01):
        _simulation, tracer = traced_fig01
        spans = _spans_by_id(tracer.records)
        guaranteed_adds = [
            item
            for item in flowmod_breakdowns(tracer.records)
            if item.command == "add"
            and spans[item.span_id]["attrs"].get("guaranteed")
        ]
        assert guaranteed_adds, "fig01 sent no guaranteed-path ADDs"
        assert all(item.gatekeeper > 0 for item in guaranteed_adds)

    def test_shift_counter_matches_agent_histories(self, traced_fig01):
        simulation, tracer = traced_fig01
        from_history = sum(
            action.shifts
            for agent in simulation.controller.agents.values()
            for action in agent.history()
        )
        assert from_history > 0
        counter = tracer.metrics.counter("hermes_tcam_shifts_total").total()
        assert counter == from_history
