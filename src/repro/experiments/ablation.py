"""Ablations of Hermes's design choices (DESIGN.md Section 4).

Not a paper figure — these benches isolate the contribution of each
mechanism the paper describes:

* **lowest-priority fastpath** (Section 4.2): without it, bottom-priority
  rules burn shadow space and partition heavily;
* **migration optimization** (Figure 7 step 2): without it, fragment
  families are written to the main table verbatim, inflating occupancy;
* **atomic migration** (Section 5.2): without insert-before-delete, packets
  fall into transient coverage gaps, measured as gap-seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..analysis import ExperimentResult
from ..engine.sweep import SweepRunner
from ..traffic import MicrobenchConfig
from .common import latency_stats, microbench_replay


@dataclass
class AblationConfig:
    """Workload for the ablation runs."""

    switch: str = "pica8-p3290"
    arrival_rate: float = 800.0
    overlap_rate: float = 0.6
    duration: float = 1.5


VARIANTS: Tuple[Tuple[str, dict], ...] = (
    ("full Hermes", {}),
    ("no fastpath", {"lowest_priority_fastpath": False}),
    ("no migration optimizer", {"optimize_migration": False}),
    ("non-atomic migration", {"atomic_migration": False}),
    ("threshold trigger (50%)", {"threshold": 0.5}),
)


def run_variant(overrides: dict, config: AblationConfig):
    """Replay the shared workload against one Hermes variant."""
    trace_config = MicrobenchConfig(
        arrival_rate=config.arrival_rate,
        overlap_rate=config.overlap_rate,
        duration=config.duration,
    )
    outcome = microbench_replay(config.switch, trace_config, **overrides)
    mean_ms, p99_ms, violations = latency_stats(outcome)
    installer = outcome.installer
    migrations = installer.rule_manager.migrations
    gap_time = sum(report.transient_gap_time for report in migrations)
    written = sum(report.rules_written for report in migrations)
    return {
        "mean_ms": mean_ms,
        "p99_ms": p99_ms,
        "violations": violations,
        "migrations": len(migrations),
        "rules_written": written,
        "gap_ms": gap_time * 1e3,
        "main_occupancy": installer.main.occupancy,
    }


def run(
    config: AblationConfig = AblationConfig(), workers: int = 1
) -> ExperimentResult:
    """Run every ablation variant on the shared workload.

    ``workers > 1`` runs the independent variants on a kernel
    :class:`~repro.engine.sweep.SweepRunner` process pool; rows merge back
    in :data:`VARIANTS` order, identical to the serial sweep.
    """
    variant_stats = SweepRunner(workers=workers).map(
        run_variant, [(overrides, config) for _, overrides in VARIANTS]
    )
    rows: List[tuple] = []
    for (label, _overrides), stats in zip(VARIANTS, variant_stats):
        rows.append(
            (
                label,
                round(stats["mean_ms"], 3),
                round(stats["p99_ms"], 3),
                round(stats["violations"], 2),
                stats["migrations"],
                stats["rules_written"],
                round(stats["gap_ms"], 3),
                stats["main_occupancy"],
            )
        )
    return ExperimentResult(
        experiment_id="Ablation",
        title="Contribution of each Hermes design choice",
        headers=[
            "variant",
            "mean RIT (ms)",
            "p99 RIT (ms)",
            "violations (%)",
            "migrations",
            "rules written",
            "gap (ms)",
            "main occupancy",
        ],
        rows=rows,
        notes=(
            "Expected: the migration optimizer cuts rules-written and main "
            "occupancy; atomic migration is the only variant with zero gap "
            "time; the threshold trigger trades violations for fewer "
            "migrations."
        ),
    )
