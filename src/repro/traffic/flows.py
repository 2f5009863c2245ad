"""Flow and job records, plus Poisson flow synthesis from traffic matrices.

The paper generates individual flows from coarse traffic matrices "by
assuming flow inter-arrivals follow a Poisson process and that flow sizes
are partitioned evenly according to the total data given in the traffic
matrices" (Section 8.1.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .matrices import TrafficMatrix


@dataclass
class FlowSpec:
    """One flow to simulate.

    Attributes:
        flow_id: the flow's id, unique within its workload and given by
            whoever builds the workload (keyword-only, required).  It sets
            the flow's rule priority, TCAM match and ECMP choice, so it
            must not come from state that outlives the workload.
        source / destination: endpoint node names.
        size: bytes to transfer.
        start_time: arrival time in seconds.
        job_id: owning job for JCT accounting (None for standalone flows).
    """

    source: str
    destination: str
    size: float
    start_time: float
    job_id: Optional[int] = None
    flow_id: int = field(kw_only=True)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"flow size must be positive, got {self.size}")
        if self.start_time < 0:
            raise ValueError(f"start_time cannot be negative: {self.start_time}")
        if self.source == self.destination:
            raise ValueError("flow endpoints must differ")


@dataclass(frozen=True)
class JobSpec:
    """A job (e.g. one MapReduce shuffle): a set of flows measured together."""

    job_id: int
    flows: Tuple[FlowSpec, ...]

    @property
    def total_bytes(self) -> float:
        """Sum of the job's flow sizes."""
        return sum(flow.size for flow in self.flows)

    @property
    def start_time(self) -> float:
        """Arrival of the job's first flow."""
        return min(flow.start_time for flow in self.flows)


def flows_from_matrix(
    matrix: TrafficMatrix,
    duration: float,
    mean_flow_size: float = 10e6,
    rng: Optional[np.random.Generator] = None,
) -> List[FlowSpec]:
    """Synthesize Poisson flow arrivals realizing a traffic matrix.

    For each OD pair carrying volume ``v`` bits/second, flows of
    ``mean_flow_size`` bytes arrive as a Poisson process with rate
    ``v / (8 * mean_flow_size)`` per second over ``duration`` seconds, with
    per-flow sizes drawn exponentially around the mean (sizes are
    "partitioned evenly" in expectation).

    Flows are numbered 1..N in creation order (OD pairs in sorted order,
    arrivals in time order within a pair), so every call numbers its
    workload the same way.  Returns flows sorted by start time.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if mean_flow_size <= 0:
        raise ValueError(f"mean_flow_size must be positive, got {mean_flow_size}")
    generator = rng if rng is not None else np.random.default_rng(0)
    flows: List[FlowSpec] = []
    for (source, destination), volume in sorted(matrix.items()):
        if volume <= 0:
            continue
        rate = volume / (8.0 * mean_flow_size)
        if rate <= 0:
            continue
        time = float(generator.exponential(1.0 / rate))
        while time < duration:
            size = float(generator.exponential(mean_flow_size))
            flows.append(
                FlowSpec(
                    source=source,
                    destination=destination,
                    size=max(1500.0, size),  # at least one MTU
                    start_time=time,
                    flow_id=len(flows) + 1,
                )
            )
            time += float(generator.exponential(1.0 / rate))
    flows.sort(key=lambda flow: flow.start_time)
    return flows
