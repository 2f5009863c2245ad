"""The switch-resident control agent.

Models the software path on the switch (Figure 2 of the paper): FlowMods
arrive from the controller, queue at the switch CPU, and are executed
serially against the TCAM through a :class:`RuleInstaller`.  Serial execution
is what turns per-rule TCAM latency into queueing delay under bursts — the
effect behind the paper's Figure 11 time series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..engine.clock import Clock, SerialResource
from ..faults.injector import FaultInjector
from ..obs.tracer import get_tracer
from ..tcam.rule import Rule
from .installer import RuleInstaller
from .messages import FlowMod, FlowModResult


class AgentDownError(RuntimeError):
    """The switch agent is crashed/restarting; the submission was lost.

    Raised only when the agent's fault plan carries an
    :class:`~repro.faults.spec.AgentCrash` schedule.  The queued message is
    gone (queue loss); the TCAM content is intact (table survives restarts).
    """


@dataclass(frozen=True)
class CompletedAction:
    """A FlowMod's life cycle through the agent.

    Attributes:
        flow_mod: the request.
        result: the installer's outcome (latency, fragments, path).
        submit_time: when the controller's message reached the agent.
        start_time: when the switch CPU began executing it.
        finish_time: when the TCAM update completed.
        shifts: physical entry shifts this action cost (installer delta).
    """

    flow_mod: FlowMod
    result: FlowModResult
    submit_time: float
    start_time: float
    finish_time: float
    shifts: int = 0

    @property
    def response_time(self) -> float:
        """Queueing plus execution time — the paper's rule installation time."""
        return self.finish_time - self.submit_time

    @property
    def queue_delay(self) -> float:
        """Time spent waiting for the switch CPU before execution began."""
        return self.start_time - self.submit_time


@dataclass
class AgentStats:
    """Aggregate accounting across an agent's lifetime.

    ``busy_time`` (control-path execution) plus ``background_time`` (Rule
    Manager work between actions) plus ``stall_time`` (injected CPU pauses)
    decompose the agent's total wall-time spent off-idle.
    """

    actions: int = 0
    guaranteed_actions: int = 0
    busy_time: float = 0.0
    queue_time: float = 0.0
    background_time: float = 0.0
    stall_time: float = 0.0
    stalls: int = 0
    deduplicated: int = 0
    crash_losses: int = 0

    def record(self, completed: CompletedAction, background_time: float = 0.0) -> None:
        """Fold one completed action (and any background work that ran
        ahead of it) into the counters."""
        self.actions += 1
        if completed.result.used_guaranteed_path:
            self.guaranteed_actions += 1
        self.busy_time += completed.finish_time - completed.start_time
        self.queue_time += completed.queue_delay
        self.background_time += background_time


class SwitchAgent:
    """Serializes control-plane actions onto a rule installer.

    The switch CPU is a kernel :class:`~repro.engine.clock.SerialResource`
    on the run's shared timeline: an action submitted at time *t* starts at
    ``max(t, busy_until)`` and finishes after the installer-reported
    latency.  Hermes's background work (Rule Manager migration) is driven by
    :meth:`RuleInstaller.advance_time` before each action and accounted
    separately — per the paper it runs in the background and does not block
    the control path.
    """

    def __init__(
        self,
        installer: RuleInstaller,
        name: str = "switch",
        injector: Optional[FaultInjector] = None,
        tracer=None,
        clock: Optional[Clock] = None,
    ) -> None:
        """Wrap ``installer`` behind a serial control queue.

        Args:
            installer: the TCAM-management scheme behind this agent.
            name: switch name (used by the fault injector to scope faults).
            injector: the run's :class:`~repro.faults.injector.FaultInjector`,
                supplying CPU-stall and crash decisions; None gives a null
                one (a perfectly reliable agent).
            tracer: optional explicit :class:`~repro.obs.tracer.Tracer`;
                None follows the process-global tracer (a no-op unless one
                was installed).
            clock: the shared kernel clock this agent's virtual time is
                derived from — agents of one co-simulation share one, so
                their timings live on a single timeline; None gives the
                agent a private timeline starting at zero.
        """
        self.installer = installer
        self.name = name
        self.injector = injector if injector is not None else FaultInjector()
        self._tracer = tracer
        self.clock = clock if clock is not None else Clock()
        self.stats = AgentStats()
        self._cpu = SerialResource(free_at=self.clock.now)
        self._history: List[CompletedAction] = []
        # xid -> prior outcome, for exactly-once redelivery semantics.
        self._xid_cache: Dict[int, object] = {}

    @property
    def tracer(self):
        """The injected tracer, or the process-global one."""
        return self._tracer if self._tracer is not None else get_tracer()

    @property
    def busy_until(self) -> float:
        """Time at which the control CPU becomes free."""
        return self._cpu.free_at

    def history(self) -> List[CompletedAction]:
        """Every completed action, in completion order."""
        return list(self._history)

    def install_latencies(self) -> List[float]:
        """Per-action response times — the series the RIT CDFs are built from."""
        return [completed.response_time for completed in self._history]

    def _sample_gauges(self, tracer, at_time: float) -> None:
        """Record the installer's gauge readings under this switch's name."""
        readings = self.installer.gauges()
        for gauge_name in sorted(readings):
            tracer.sample(
                gauge_name, time=at_time, value=readings[gauge_name],
                switch=self.name,
            )

    def _check_faults(self, at_time: float) -> None:
        """Consult the injector: crash loss raises, stalls push busy_until."""
        if self.injector.agent_down(self.name, at_time):
            self.stats.crash_losses += 1
            raise AgentDownError(f"{self.name}: agent down at t={at_time:.6f}")
        stall = self.injector.stall_duration(self.name, at_time)
        if stall > 0:
            self._cpu.stall(at_time, stall)
            self.stats.stall_time += stall
            self.stats.stalls += 1

    def submit(
        self, flow_mod: FlowMod, at_time: Optional[float] = None
    ) -> CompletedAction:
        """Submit one FlowMod at simulation time ``at_time``: a batch of one.

        Returns its completed action; see :meth:`submit_batch`.
        """
        return self._execute((flow_mod,), at_time)[0]

    def submit_batch(
        self, flow_mods: Sequence[FlowMod], at_time: Optional[float] = None
    ) -> List[CompletedAction]:
        """Submit FlowMods arriving together at ``at_time``.

        ``at_time=None`` submits at the shared clock's current instant.
        Returns one completed action per FlowMod, in input order, with its
        queueing-inclusive timing.  A redelivered batch (same xid on its
        first FlowMod as an already-applied one) is not re-executed: the
        cached outcome is returned, so controller-side retransmissions
        cannot double-install.
        """
        return self._execute(flow_mods, at_time)

    def _execute(
        self, flow_mods: Sequence[FlowMod], at_time: Optional[float]
    ) -> List[CompletedAction]:
        """The one execution body behind :meth:`submit` and
        :meth:`submit_batch`.

        Every submission opens one ``agent.batch`` span.  FlowMods run
        serially on the switch CPU in input order, each under its own
        ``agent.action`` span that is open while the installer applies it,
        so GateKeeper events and the action's shift delta land on the
        FlowMod that caused them.  An installer that reorders or rewrites
        batches (one defining ``apply_batch``: ESPRES, Tango) receives a
        multi-FlowMod batch whole; its actions are still timed in input
        order, and the batch's shifts all land on its first action.  A
        FlowMod that raises leaves the CPU horizon, history and stats
        untouched.
        """
        if at_time is None:
            at_time = self.clock.now
        tracer = self.tracer
        xid = flow_mods[0].xid if flow_mods else None
        if xid is not None and xid in self._xid_cache:
            self.stats.deduplicated += 1
            tracer.event(
                "agent.dedup", time=at_time, category="agent",
                switch=self.name, xid=xid,
            )
            return self._xid_cache[xid]
        self._check_faults(at_time)
        batch_span = tracer.start_span(
            "agent.batch", start=at_time, category="agent",
            switch=self.name, size=len(flow_mods), xid=xid,
        )
        installer = self.installer
        # advance_time first: migration-era shifts belong to the Rule
        # Manager's own span, not to any action's delta.
        background = installer.advance_time(at_time)
        cursor = self._cpu.start_time(at_time)
        shifts_before = installer.shift_count()
        completed: List[CompletedAction] = []
        try:
            apply_batch = getattr(installer, "apply_batch", None)
            results = (
                apply_batch(flow_mods)
                if apply_batch is not None and len(flow_mods) > 1
                else None
            )
            for index, flow_mod in enumerate(flow_mods):
                span = tracer.start_span(
                    "agent.action", start=at_time, category="agent",
                    switch=self.name, command=flow_mod.command.value,
                    xid=flow_mod.xid,
                )
                try:
                    result = (
                        installer.apply(flow_mod) if results is None
                        else results[index]
                    )
                except BaseException:
                    span.finish(end=at_time, error=True)
                    raise
                shifts_after = installer.shift_count()
                action = CompletedAction(
                    flow_mod=flow_mod,
                    result=result,
                    submit_time=at_time,
                    start_time=cursor,
                    finish_time=cursor + result.latency,
                    shifts=shifts_after - shifts_before,
                )
                span.finish(
                    end=action.finish_time,
                    queue_delay=action.queue_delay,
                    exec_latency=result.latency,
                    shifts=action.shifts,
                    guaranteed=result.used_guaranteed_path,
                )
                completed.append(action)
                cursor = action.finish_time
                shifts_before = shifts_after
        except BaseException:
            batch_span.finish(end=at_time, error=True)
            raise
        self._cpu.occupy_until(cursor)
        for index, action in enumerate(completed):
            # Background work is charged once, with the first action, so
            # the busy/background decomposition stays additive.
            self.stats.record(
                action, background_time=background if index == 0 else 0.0
            )
        self._history.extend(completed)
        if xid is not None:
            self._xid_cache[xid] = completed
        batch_span.finish(end=cursor, background=background)
        if tracer.enabled:
            self._sample_gauges(tracer, cursor)
        return completed

    def lookup(self, key: int) -> Optional[Rule]:
        """Data-plane lookup delegated to the installer."""
        return self.installer.lookup(key)

    def __repr__(self) -> str:
        return (
            f"SwitchAgent({self.name!r}, actions={self.stats.actions}, "
            f"busy_until={self._cpu.free_at:.6f})"
        )
