"""The TE planner as a plain scan: the oracle for ``ProactiveTeApp.plan``.

This is the planner before it was indexed.  For every congested link it
rescans every flow's path, and it recomputes every path cost from the
working utilization.  The indexed planner must propose exactly the same
reroutes, in the same order.
"""

from typing import Dict, List, Mapping

from repro.simulator.sdnapp import IMPROVEMENT_MARGIN, ProactiveTeApp, Reroute
from repro.topology.routing import Path, path_links_cached


def reference_plan(
    app: ProactiveTeApp,
    flows: Mapping[int, object],
    current_paths: Mapping[int, Path],
    rates: Mapping[int, float],
    utilization: Mapping[object, float],
    capacities: Mapping[object, float],
) -> List[Reroute]:
    """Propose the epoch's reroutes by rescanning flows and path costs."""
    config = app.config
    working_utilization: Dict[object, float] = dict(utilization)
    congested = sorted(
        (
            link
            for link, value in working_utilization.items()
            if value > config.utilization_threshold
        ),
        key=lambda link: -working_utilization[link],
    )
    moves: List[Reroute] = []
    moved_flows: set = set()
    for hot_link in congested:
        if len(moves) >= config.max_moves_per_epoch:
            break
        candidates = sorted(
            (
                flow_id
                for flow_id, path in current_paths.items()
                if hot_link in path_links_cached(path) and flow_id not in moved_flows
            ),
            key=lambda flow_id: -rates.get(flow_id, 0.0),
        )
        for flow_id in candidates:
            if len(moves) >= config.max_moves_per_epoch:
                break
            flow = flows[flow_id]
            rate = rates.get(flow_id, 0.0)
            current_path = current_paths[flow_id]
            current_cost = app._path_cost(current_path, working_utilization)
            best_path = None
            best_cost = current_cost - IMPROVEMENT_MARGIN
            for candidate in app.provider.paths(flow.source, flow.destination):
                if candidate == current_path:
                    continue
                cost = app._path_cost(candidate, working_utilization)
                if cost < best_cost:
                    best_cost = cost
                    best_path = candidate
            if best_path is None:
                continue
            moves.append(Reroute(flow_id=flow_id, new_path=best_path))
            moved_flows.add(flow_id)
            app._shift_load(working_utilization, current_path, best_path, rate, capacities)
            if working_utilization.get(hot_link, 0.0) <= config.utilization_threshold:
                break
    return moves
