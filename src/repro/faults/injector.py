"""The fault injector: deterministic, seedable fault decisions.

One :class:`FaultInjector` is shared by every component of a run (the
controller, channels, agents, installers and their fault-wrapped TCAM
tables): :class:`~repro.simulator.simulation.Simulation` builds it from
``SimulationConfig.fault_plan``/``fault_seed`` and hands it to each of
them.  All randomness flows from a single seeded generator, so a run with
the same plan and seed injects the same faults at the same points — the
determinism contract the chaos experiments and the regression tests rely
on.

Probability draws are *gated*: a fault class with probability zero consumes
no randomness at all, so an injector with the default (null) plan leaves a
run byte-identical to a fault-free one.  Components built standalone get
their own null injector, so none of them branches on a missing one.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .log import FaultLog
from .spec import FaultPlan
from .table import FaultyTable

if TYPE_CHECKING:  # pragma: no cover
    from ..tcam.table import TcamTable


@dataclass(frozen=True)
class ChannelVerdict:
    """The injector's ruling on one FlowMod delivery attempt.

    Attributes:
        kind: ``"deliver"`` (arrives normally), ``"drop"`` (lost outright),
            ``"drop-ack"`` (applied, but the ack is lost — the controller
            sees a timeout), ``"duplicate"`` (delivered twice), or
            ``"delay"`` (arrives ``delay`` seconds late).
        delay: extra delivery latency in seconds.
    """

    kind: str
    delay: float = 0.0

    @property
    def lost(self) -> bool:
        """True when the controller will not hear back from this attempt."""
        return self.kind in ("drop", "drop-ack")


_DELIVER = ChannelVerdict("deliver")


class FaultInjector:
    """Draws fault decisions from one seeded stream and records them."""

    def __init__(self, plan: Optional[FaultPlan] = None, seed: int = 0) -> None:
        """Create an injector for ``plan`` (null plan when omitted)."""
        self.plan = plan if plan is not None else FaultPlan()
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.log = FaultLog()

    def child_rng(self, stream: str) -> np.random.Generator:
        """A generator for an independent named stream (e.g. per-channel
        backoff jitter), derived deterministically from the seed."""
        return np.random.default_rng([self.seed, zlib.crc32(stream.encode())])

    # ------------------------------------------------------------------
    # Control channel
    # ------------------------------------------------------------------
    def flowmod_verdict(
        self, now: float, target: str = "", xid: Optional[int] = None
    ) -> ChannelVerdict:
        """Decide the fate of one FlowMod delivery attempt."""
        spec = self.plan.flowmod
        if spec.drop > 0 and self.rng.random() < spec.drop:
            if (
                spec.ack_loss_fraction > 0
                and self.rng.random() < spec.ack_loss_fraction
            ):
                self.log.record("flowmod-ack-loss", time=now, target=target, xid=xid)
                return ChannelVerdict("drop-ack")
            self.log.record("flowmod-drop", time=now, target=target, xid=xid)
            return ChannelVerdict("drop")
        if spec.duplicate > 0 and self.rng.random() < spec.duplicate:
            self.log.record("flowmod-duplicate", time=now, target=target, xid=xid)
            return ChannelVerdict("duplicate")
        if spec.delay_probability > 0 and self.rng.random() < spec.delay_probability:
            self.log.record(
                "flowmod-delay", time=now, target=target, xid=xid, delay=spec.delay
            )
            return ChannelVerdict("delay", delay=spec.delay)
        return _DELIVER

    # ------------------------------------------------------------------
    # TCAM write path
    # ------------------------------------------------------------------
    def wrap_table(self, table: "TcamTable", clock=None):
        """``table`` behind a :class:`~repro.faults.table.FaultyTable` when
        the plan injects TCAM write faults, else ``table`` itself — a
        fault-free write pays no proxy.  ``clock`` stamps fault-log events
        (see :class:`FaultyTable`)."""
        spec = self.plan.tcam
        if spec.fail > 0 or spec.silent > 0:
            return FaultyTable(table, self, clock=clock)
        return table

    def write_verdict(
        self, now: float, table: str = "", rule_id: Optional[int] = None
    ) -> str:
        """Decide one TCAM write: ``"ok"``, ``"fail"``, or ``"silent"``."""
        spec = self.plan.tcam
        if spec.fail > 0 and self.rng.random() < spec.fail:
            self.log.record("tcam-write-fail", time=now, target=table, rule_id=rule_id)
            return "fail"
        if spec.silent > 0 and self.rng.random() < spec.silent:
            self.log.record(
                "tcam-write-silent", time=now, target=table, rule_id=rule_id
            )
            return "silent"
        return "ok"

    # ------------------------------------------------------------------
    # Switch agent
    # ------------------------------------------------------------------
    def agent_down(self, agent: str, now: float) -> bool:
        """True when ``agent`` is inside a crash/restart window at ``now``."""
        if not self.plan.crash.times:
            return False
        if self.plan.crash.down_at(now):
            self.log.record("agent-crash-loss", time=now, target=agent)
            return True
        return False

    def stall_duration(self, agent: str, now: float) -> float:
        """Seconds the agent's CPU stalls before serving a submission at
        ``now`` (0.0 when no stall applies)."""
        spec = self.plan.stall
        for start, end in spec.windows:
            if start <= now < end:
                self.log.record(
                    "agent-stall", time=now, target=agent, duration=end - now
                )
                return end - now
        if spec.probability > 0 and self.rng.random() < spec.probability:
            self.log.record(
                "agent-stall", time=now, target=agent, duration=spec.duration
            )
            return spec.duration
        return 0.0

    def __repr__(self) -> str:
        return f"FaultInjector(seed={self.seed}, {self.log!r})"
