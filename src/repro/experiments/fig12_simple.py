"""Figure 12: Hermes-SIMPLE under different threshold values.

Hermes-SIMPLE replaces the predictive Rule Manager with a bare threshold:
migrate once the shadow is ``threshold`` percent full (Section 8.5).  The
workload is the paper's stress microbench — 1000 updates/s at 100% overlap
rate — on all three switches.

Panel (a): percentage of guarantee violations vs. threshold.  A threshold
of 0% (migrate whenever anything is in the shadow) never violates; high
thresholds leave too little headroom and violate.

Panel (b): migrations per second vs. threshold, with regular (predictive,
slack 100%) Hermes as the reference — the paper's point is that SIMPLE's
zero-violation setting costs about twice the migrations of Hermes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..analysis import ExperimentResult
from ..traffic import MicrobenchConfig
from .common import SWITCHES_UNDER_TEST, microbench_replay


@dataclass
class Fig12Config:
    """Thresholds, switches, and trace parameters."""

    thresholds: Tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    switches: Tuple[str, ...] = SWITCHES_UNDER_TEST
    trace: MicrobenchConfig = field(
        default_factory=lambda: MicrobenchConfig(
            arrival_rate=1000.0, overlap_rate=1.0, duration=1.0
        )
    )


def run_one(switch: str, threshold, trace_config: MicrobenchConfig):
    """(violation %, migrations/s) for one switch and migration policy:
    Hermes-SIMPLE at ``threshold``, or regular Hermes when None."""
    # The microbench studies the shadow/migration machinery; the
    # lowest-priority fastpath would route the (deliberately low-priority)
    # overlap rules around it.
    outcome = microbench_replay(
        switch, trace_config, threshold=threshold, lowest_priority_fastpath=False
    )
    installer = outcome.installer
    violations = installer.violation_percentage()
    migrations = installer.rule_manager.migrations_per_second(
        trace_config.duration
    )
    return violations, migrations


def run(config: Fig12Config = Fig12Config()) -> ExperimentResult:
    """Regenerate both Figure 12 panels as one table."""
    rows: List[tuple] = []
    from ..tcam import get_switch_model

    for switch in config.switches:
        name = get_switch_model(switch).name
        hermes_violations, hermes_migrations = run_one(
            switch, None, config.trace
        )
        for threshold in config.thresholds:
            violations, migrations = run_one(switch, threshold, config.trace)
            rows.append(
                (
                    name,
                    int(round(100 * threshold)),
                    round(violations, 2),
                    round(migrations, 1),
                    round(hermes_violations, 2),
                    round(hermes_migrations, 1),
                )
            )
    return ExperimentResult(
        experiment_id="Figure 12",
        title="Hermes-SIMPLE: violations and migration frequency vs. threshold",
        headers=[
            "switch",
            "threshold (%)",
            "SIMPLE violations (%)",
            "SIMPLE migrations/s",
            "Hermes violations (%)",
            "Hermes migrations/s",
        ],
        rows=rows,
        notes=(
            "Workload: 1000 updates/s, 100% overlap. Shape: SIMPLE at "
            "threshold 0% has no violations but roughly double regular "
            "Hermes's migration frequency; violations appear as the "
            "threshold grows. Regular Hermes (predictive + slack 100%) "
            "keeps violations at zero with fewer migrations."
        ),
    )
