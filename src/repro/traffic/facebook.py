"""Facebook MapReduce workload generator.

The paper's data-center experiments replay "Facebook's large-scale Map
Reduce deployment consisting of 24402 Map Reduce jobs run over 1 day on a
600-machine cluster" [29] (Section 8.1.3).  The trace itself is not
redistributable; this generator reproduces its published statistical shape
(the SWIM/Chowdhury characterizations):

* job arrivals are Poisson;
* job *sizes* (total shuffle bytes) are heavy-tailed: the majority of jobs
  move well under 1 GB while the tail reaches terabytes — we use a lognormal
  body with a Pareto tail;
* each job is a map->reduce shuffle: m mappers send to r reducers (m x r
  flows), with small jobs having few tasks and big jobs many.

The paper splits jobs at 1 GB into "short" and "long" for Figure 1; the
:func:`is_short_job` helper applies the same cut.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .flows import FlowSpec, JobSpec

SHORT_JOB_BYTES = 1e9  # the paper's short/long cut: 1 GB


def sample_job_size(rng: np.random.Generator) -> float:
    """Draw one job's total shuffle bytes from the heavy-tailed mix.

    90% of jobs come from a lognormal body (median ~64 MB), 10% from a
    Pareto tail (>= 1 GB, alpha 1.2) — matching the published shape where
    most jobs are small but the tail dominates total bytes.
    """
    if rng.random() < 0.9:
        return float(rng.lognormal(mean=np.log(64e6), sigma=1.6))
    return float(1e9 * (1.0 + rng.pareto(1.2)))


def task_counts_for(size: float) -> tuple:
    """(mappers, reducers) scaled to the job size, as in SWIM."""
    if size < 100e6:
        return 2, 1
    if size < SHORT_JOB_BYTES:
        return 4, 2
    if size < 10e9:
        return 8, 4
    return 16, 8


def generate_jobs(
    hosts: Sequence[str],
    job_count: int = 200,
    arrival_rate: float = 2.0,
    rng: Optional[np.random.Generator] = None,
) -> List[JobSpec]:
    """Generate a MapReduce job stream over the given hosts.

    Args:
        hosts: candidate endpoints (the fat tree's servers).
        job_count: jobs to generate (the full trace has 24402; experiments
            default to a scaled-down count and note the scale in their
            reports).
        arrival_rate: jobs per second (Poisson).
        rng: generator; a fixed default seed keeps runs reproducible.

    Returns:
        Jobs sorted by start time, each holding its shuffle flows.  Jobs
        are numbered 1..J and flows 1..N in creation order, so every call
        numbers its workload the same way.
    """
    if job_count < 1:
        raise ValueError(f"job_count must be >= 1, got {job_count}")
    if arrival_rate <= 0:
        raise ValueError(f"arrival_rate must be positive, got {arrival_rate}")
    if len(hosts) < 2:
        raise ValueError("need at least two hosts")
    generator = rng if rng is not None else np.random.default_rng(42)
    jobs: List[JobSpec] = []
    flow_count = 0
    time = 0.0
    for _ in range(job_count):
        time += float(generator.exponential(1.0 / arrival_rate))
        size = sample_job_size(generator)
        mappers_count, reducers_count = task_counts_for(size)
        if mappers_count + reducers_count > len(hosts):
            # Too few hosts for the job's tasks: shrink to every host,
            # keeping roughly the 2:1 mapper:reducer ratio.
            reducers_count = max(1, len(hosts) // 3)
            mappers_count = len(hosts) - reducers_count
        participants = generator.choice(
            len(hosts), size=mappers_count + reducers_count, replace=False
        )
        mappers = [hosts[i] for i in participants[:mappers_count]]
        reducers = [hosts[i] for i in participants[mappers_count:]]
        job_id = len(jobs) + 1
        per_flow = size / (mappers_count * reducers_count)
        flows = []
        for mapper in mappers:
            for reducer in reducers:
                if mapper == reducer:
                    continue
                flow_count += 1
                flows.append(
                    FlowSpec(
                        source=mapper,
                        destination=reducer,
                        size=max(1500.0, per_flow),
                        start_time=time,
                        job_id=job_id,
                        flow_id=flow_count,
                    )
                )
        jobs.append(JobSpec(job_id=job_id, flows=tuple(flows)))
    return jobs


def is_short_job(job: JobSpec) -> bool:
    """The paper's Figure 1 split: short jobs move less than 1 GB."""
    return job.total_bytes < SHORT_JOB_BYTES


def flows_of(jobs: Sequence[JobSpec]) -> List[FlowSpec]:
    """Flatten a job list into a start-time-ordered flow list."""
    flows = [flow for job in jobs for flow in job.flows]
    flows.sort(key=lambda flow: flow.start_time)
    return flows
