"""The proactive traffic-engineering SDNApp (Section 8.1.1).

"[A] proactive traffic engineering SDNApp [33] that periodically
reconfigures the network by using control plane actions to move congested
flows away from congested links unto links with available capacity."

Every epoch the app inspects link utilizations, picks the most congested
links, and proposes moving their largest flows to the least-loaded of each
flow's k candidate paths.  It is *proactive*: no packet-in messages, so no
startup latency — the only control-plane cost is the reconfiguration
FlowMods, which is exactly the cost Hermes bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from ..obs.tracer import get_tracer
from ..topology.routing import Link, Path, PathProvider, path_links_cached
from ..traffic.flows import FlowSpec

# A move must reduce the flow's bottleneck utilization by at least this much
# to be worth the FlowMods.
IMPROVEMENT_MARGIN = 0.05


@dataclass(frozen=True)
class TeAppConfig:
    """Tunables of the TE application.

    Attributes:
        epoch: reconfiguration period in seconds.
        utilization_threshold: links above this are congestion candidates.
        max_moves_per_epoch: cap on reroutes issued per epoch.
    """

    epoch: float = 1.0
    utilization_threshold: float = 0.7
    max_moves_per_epoch: int = 16

    def __post_init__(self) -> None:
        if self.epoch <= 0:
            raise ValueError(f"epoch must be positive: {self.epoch}")
        if not 0 < self.utilization_threshold <= 1:
            raise ValueError(
                f"utilization_threshold must be in (0, 1]: {self.utilization_threshold}"
            )
        if self.max_moves_per_epoch < 0:
            raise ValueError("max_moves_per_epoch cannot be negative")


@dataclass(frozen=True)
class Reroute:
    """One proposed path change."""

    flow_id: int
    new_path: Path


class ProactiveTeApp:
    """Moves the biggest flows off the hottest links each epoch."""

    def __init__(self, provider: PathProvider, config: TeAppConfig = TeAppConfig()) -> None:
        self.provider = provider
        self.config = config

    def plan(
        self,
        flows: Mapping[int, FlowSpec],
        current_paths: Mapping[int, Path],
        rates: Mapping[int, float],
        utilization: Mapping[Link, float],
        capacities: Mapping[Link, float],
        now: float = 0.0,
    ) -> List[Reroute]:
        """Propose up to ``max_moves_per_epoch`` reroutes for this epoch.

        Utilization is updated incrementally as moves are chosen so one
        epoch's moves do not all pile onto the same cold link.  ``now`` is
        the sim time of the epoch, used only to timestamp trace events.

        The work is indexed rather than rescanned: the flows crossing each
        congested link are listed once, in ``current_paths`` order, and
        path costs and per-path move decisions are memoized until the next
        move changes the working utilization.
        """
        working_utilization: Dict[Link, float] = dict(utilization)
        congested = sorted(
            (
                link
                for link, value in working_utilization.items()
                if value > self.config.utilization_threshold
            ),
            key=lambda link: -working_utilization[link],
        )
        tracer = get_tracer()
        if not congested:
            if tracer.enabled:
                tracer.event(
                    "te.plan", time=now, category="controller",
                    congested=0, moves=0,
                )
            return []
        # Each hot link's flows, in admission order so the stable -rate sort
        # below breaks ties exactly as a scan of current_paths would.  Paths
        # are loop-free, so a flow is listed once per link.
        crossing: Dict[Link, List[int]] = {link: [] for link in congested}
        for flow_id, path in current_paths.items():
            for link in path_links_cached(path):
                flows_on_link = crossing.get(link)
                if flows_on_link is not None:
                    flows_on_link.append(flow_id)
        # Valid until the next move: until then working_utilization is fixed.
        # A current path fixes its flow's endpoints, hence its candidates.
        path_costs: Dict[Path, float] = {}
        decisions: Dict[Path, Optional[Path]] = {}
        examined = costed = 0

        def path_cost(path: Path) -> float:
            nonlocal costed
            cost = path_costs.get(path)
            if cost is None:
                cost = path_costs[path] = self._path_cost(path, working_utilization)
                costed += 1
            return cost

        moves: List[Reroute] = []
        moved_flows: set = set()
        for hot_link in congested:
            if len(moves) >= self.config.max_moves_per_epoch:
                break
            # Largest flows first: moving them relieves the most load.
            candidates = sorted(
                (flow_id for flow_id in crossing[hot_link] if flow_id not in moved_flows),
                key=lambda flow_id: -rates.get(flow_id, 0.0),
            )
            for flow_id in candidates:
                if len(moves) >= self.config.max_moves_per_epoch:
                    break
                examined += 1
                flow = flows[flow_id]
                current_path = current_paths[flow_id]
                if current_path in decisions:
                    best_path = decisions[current_path]
                else:
                    best_path = None
                    best_cost = path_cost(current_path) - IMPROVEMENT_MARGIN
                    for candidate in self.provider.paths(flow.source, flow.destination):
                        if candidate == current_path:
                            continue
                        cost = path_cost(candidate)
                        if cost < best_cost:
                            best_cost = cost
                            best_path = candidate
                    decisions[current_path] = best_path
                if best_path is None:
                    continue
                moves.append(Reroute(flow_id=flow_id, new_path=best_path))
                moved_flows.add(flow_id)
                self._shift_load(
                    working_utilization, current_path, best_path,
                    rates.get(flow_id, 0.0), capacities,
                )
                path_costs.clear()
                decisions.clear()
                if working_utilization.get(hot_link, 0.0) <= self.config.utilization_threshold:
                    break
        if tracer.enabled:
            tracer.event(
                "te.plan", time=now, category="controller",
                congested=len(congested), moves=len(moves),
            )
            tracer.count(
                "hermes_te_candidates_total", examined, help="TE candidate flows examined"
            )
            tracer.count("hermes_te_costed_total", costed, help="TE path costs computed")
        return moves

    @staticmethod
    def _path_cost(path: Path, utilization: Mapping[Link, float]) -> float:
        """A path's cost: the utilization of its hottest link (the flow's
        own share is symmetric across options, so it is not excluded)."""
        return max(
            (utilization.get(link, 0.0) for link in path_links_cached(path)), default=0.0
        )

    @staticmethod
    def _shift_load(
        utilization: Dict[Link, float],
        old_path: Path,
        new_path: Path,
        rate: float,
        capacities: Mapping[Link, float],
    ) -> None:
        """Move ``rate`` worth of load from old_path to new_path in place."""
        for link in path_links_cached(old_path):
            capacity = capacities.get(link, 0.0)
            if capacity > 0:
                # det: allow(shared-state-mutation) -- planner scratch dict, local to one plan() call
                utilization[link] = utilization.get(link, 0.0) - rate / capacity
        for link in path_links_cached(new_path):
            capacity = capacities.get(link, 0.0)
            if capacity > 0:
                # det: allow(shared-state-mutation) -- planner scratch dict, local to one plan() call
                utilization[link] = utilization.get(link, 0.0) + rate / capacity
