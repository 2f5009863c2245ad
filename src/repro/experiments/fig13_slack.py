"""Figure 13: rule insertion latency vs. slack factor.

The microbench trace runs against a Dell 8132F at two update rates (200 and
1000 updates/s) and overlap rates from 0% to 100%, while the Slack
corrector sweeps 0%..100%.

Expected shape: at 200 updates/s the latency is low at every slack (slack
only trims the residual); at 1000 updates/s low slack values leave the
shadow under-migrated — latencies (and violations) climb — and ~100% slack
is needed to tame the high rate.  Higher overlap rates need more slack
because partitions multiply the physical insertions (Equation 2's r_p).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..analysis import ExperimentResult
from ..traffic import MicrobenchConfig
from .common import latency_stats, microbench_replay


@dataclass
class Fig13Config:
    """Sweep axes of the slack experiment."""

    switch: str = "dell-8132f"
    update_rates: Tuple[float, ...] = (200.0, 1000.0)
    overlap_rates: Tuple[float, ...] = (0.0, 0.4, 1.0)
    slack_factors: Tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    duration: float = 1.0


def run_point(
    switch: str, update_rate: float, overlap_rate: float, slack: float, duration: float
) -> Tuple[float, float, float]:
    """(mean ms, p99 ms, violation %) for one sweep point."""
    trace_config = MicrobenchConfig(
        arrival_rate=update_rate,
        overlap_rate=overlap_rate,
        duration=duration,
    )
    outcome = microbench_replay(
        switch, trace_config, slack=slack, lowest_priority_fastpath=False
    )
    return latency_stats(outcome)


def run(config: Fig13Config = Fig13Config()) -> ExperimentResult:
    """Regenerate the Figure 13 sweep."""
    rows: List[tuple] = []
    for update_rate in config.update_rates:
        for overlap_rate in config.overlap_rates:
            for slack in config.slack_factors:
                mean_ms, p99_ms, violations = run_point(
                    config.switch, update_rate, overlap_rate, slack, config.duration
                )
                rows.append(
                    (
                        int(update_rate),
                        int(round(100 * overlap_rate)),
                        int(round(100 * slack)),
                        round(mean_ms, 3),
                        round(p99_ms, 3),
                        round(violations, 2),
                    )
                )
    return ExperimentResult(
        experiment_id="Figure 13",
        title="Rule insertion latency vs. slack factor (Dell 8132F)",
        headers=[
            "updates/s",
            "overlap (%)",
            "slack (%)",
            "mean latency (ms)",
            "p99 latency (ms)",
            "violations (%)",
        ],
        rows=rows,
        notes=(
            "Shape: at 200 updates/s every slack value behaves (slack only "
            "polishes latency); at 1000 updates/s low slack under-migrates "
            "and latency/violations climb, with high overlap rates needing "
            "the most slack — the paper's conclusion that 100% slack is "
            "required for the 1000 updates/s regime."
        ),
    )
