"""Extension: online slack auto-tuning (the paper's Section 8.6 future work).

"As part of future work, we will explore learning techniques to enable
Hermes to automatically tune itself."  This experiment evaluates our AIMD
slack controller: the Figure 13 stress workload (1000 updates/s, heavy
overlap) runs against

* fixed slack 0% (the under-provisioned operator),
* fixed slack 100% (the paper's hand-tuned recommendation),
* the auto-tuner starting from 40%.

Expected shape: the auto-tuner converges towards the workload's required
slack, ending with violation rates near the hand-tuned configuration —
without anyone choosing the number in advance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..analysis import ExperimentResult
from ..traffic import MicrobenchConfig
from .common import latency_stats, microbench_replay


@dataclass
class AutotuneConfig:
    """Workload for the auto-tuning comparison."""

    switch: str = "dell-8132f"
    arrival_rate: float = 1000.0
    overlap_rate: float = 1.0
    duration: float = 2.0


def run_variant(label: str, config: AutotuneConfig, **hermes_overrides):
    """One (configuration, workload) run; returns the row for the table."""
    trace_config = MicrobenchConfig(
        arrival_rate=config.arrival_rate,
        overlap_rate=config.overlap_rate,
        duration=config.duration,
    )
    outcome = microbench_replay(
        config.switch, trace_config, lowest_priority_fastpath=False, **hermes_overrides
    )
    mean_ms, p99_ms, violations = latency_stats(outcome)
    installer = outcome.installer
    if installer.auto_tuner is not None:
        final_slack = installer.auto_tuner.slack
        adjustments = len(installer.auto_tuner.adjustments)
    else:
        final_slack = installer.config.slack
        adjustments = 0
    return (
        label,
        round(mean_ms, 3),
        round(p99_ms, 3),
        round(violations, 2),
        round(final_slack, 3),
        adjustments,
    )


def run(config: AutotuneConfig = AutotuneConfig()) -> ExperimentResult:
    """Compare fixed-slack operation against the online auto-tuner."""
    rows: List[Tuple] = [
        run_variant("fixed slack 0%", config, slack=0.0),
        run_variant("fixed slack 100%", config, slack=1.0),
        run_variant("auto-tuned (start 40%)", config, auto_tune=True),
    ]
    return ExperimentResult(
        experiment_id="Extension (Section 8.6 future work)",
        title="Online slack auto-tuning vs. fixed configurations",
        headers=[
            "configuration",
            "mean latency (ms)",
            "p99 latency (ms)",
            "violations (%)",
            "final slack",
            "adjustments",
        ],
        rows=rows,
        notes=(
            "Shape: fixed 0% under-migrates (highest latency/violations); "
            "the auto-tuner raises its slack under pressure and lands near "
            "the hand-tuned 100% configuration's behaviour without manual "
            "tuning."
        ),
    )
