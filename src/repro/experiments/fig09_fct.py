"""Figure 9: CDF of flow completion time — Facebook (all / short) and Geant.

Same runs as Figure 8, but the reported metric is per-flow FCT.  The
Facebook panel is split into all jobs and short jobs: short flows cannot
amortize control-plane stalls over a long lifetime, so the gap between the
raw switches and Hermes is widest there (the paper reports a 95th-percentile
improvement of ~80% for short flows, close to the raw RIT-level gains).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..analysis import ExperimentResult, percentile_summary
from .common import QUICK_SCALE, WorkloadScale, run_te_cell, te_lineup, te_workload


@dataclass
class Fig09Config:
    """Scale and percentiles for the FCT CDFs."""

    scale: WorkloadScale = field(default_factory=lambda: QUICK_SCALE)
    hermes_switch: str = "pica8-p3290"
    percentiles: Tuple[float, ...] = (50, 90, 95)


def _fct_panels(workload: str, metrics, short_ids) -> Dict[str, List[float]]:
    """Completed-flow FCTs per panel: Facebook splits all/short jobs."""
    if workload != "facebook":
        return {workload: metrics.fcts()}
    short_fcts = [
        record.fct
        for record in metrics.flow_records()
        if record.completed and record.spec.job_id in short_ids
    ]
    return {"facebook/all": metrics.fcts(), "facebook/short": short_fcts}


def run(config: Fig09Config = Fig09Config()) -> ExperimentResult:
    """Regenerate the Figure 9 CDFs (reported at fixed percentiles).

    Panels (a) and (b) are Facebook, all jobs and short jobs; panel (c)
    is Geant.
    """
    rows: List[tuple] = []
    for workload in ("facebook", "geant"):
        short_ids = te_workload(workload, config.scale)[3]
        for label, scheme, switch in te_lineup(config.hermes_switch):
            metrics = run_te_cell(workload, scheme, switch, config.scale)
            for panel, fcts in _fct_panels(workload, metrics, short_ids).items():
                if not fcts:
                    continue
                summary = percentile_summary(fcts, config.percentiles)
                rows.append(
                    (panel, label, len(fcts))
                    + tuple(round(summary[p], 4) for p in config.percentiles)
                )

    headers = ["panel", "scheme", "n"] + [f"p{int(p)} (s)" for p in config.percentiles]
    return ExperimentResult(
        experiment_id="Figure 9",
        title="Flow completion time CDFs (Facebook all/short, Geant)",
        headers=headers,
        rows=rows,
        notes=(
            "Shape: schemes converge for long flows (transfer time "
            "dominates); the short-flow panel shows the largest relative "
            "gap in Hermes's favour, mirroring the RIT-level gains."
        ),
    )
