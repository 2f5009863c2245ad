"""The four benchmark workloads, each split into generate / setup / run / finish.

``generate`` builds the inputs from ``(seed, index)`` and is never timed.
``setup`` builds the system under test (timed as ``setup_s``), ``run`` is
the timed region (``run_s``), and ``finish`` runs the correctness checks and
condenses the outputs, outside any timed region.

Every workload uses the experiment defaults (``te_simulation_config``,
``default_hermes_config``, the Section 8.4 ``HermesConfig``) and sets no
simulator knob, so a change of the simulator's default path is measured
without editing this file.  See README.md for why each workload exists.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from meter import Meter
from repro.analysis.ap import ap_verify_partition
from repro.baselines import make_installer
from repro.bgp import BgpRouter, generate_updates, get_router_profile
from repro.core import GuaranteeSpec, HermesConfig
from repro.experiments.common import (
    QUICK_SCALE,
    default_hermes_config,
    installer_factory,
    te_simulation_config,
)
from repro.simulator import Simulation
from repro.switchsim import FlowModCommand, SwitchAgent
from repro.tcam import Rule, get_switch_model
from repro.topology import (
    FatTreeSpec,
    build_fat_tree,
    get_isp_topology,
    host_name,
    hosts,
    pops,
)
from repro.traffic import (
    MicrobenchConfig,
    PriorityMode,
    flows_from_matrix,
    flows_of,
    generate_jobs,
    generate_trace,
    gravity_matrix,
    seed_rules,
)

SWITCH = "pica8-p3290"
GUARANTEE_S = 5e-3
# Gate Keeper reasons that send a guarantee-eligible ADD off the shadow path.
DIVERTED = ("shadow-full", "rate-limited", "degraded")

# Per-instance sizes.  An instance is one seed-derived input; a run pools
# several so the pooled percentiles and the summed run time stay steady
# from seed to seed (the instance counts live in run.py).
ISP_TRAFFIC_S = 2.5
BGP_STREAM_S = 240.0
BGP_WARMUP_S = 90.0  # by then the FIB holds nearly every prefix of the pool
BGP_FLOWMODS = 1000  # a fixed count: burst sizes would otherwise set the run's length
MICROBENCH_S = 5.0
MICROBENCH_SEED_RULES = 512


@dataclass
class Outcome:
    """One instance's simulated outputs and correctness verdict."""

    rits: List[float]
    fcts: List[float]
    eligible: int
    missed: int
    attempted: int
    failed: int
    problems: List[str]
    digest: str


def _noise_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _hex(values: Sequence[float]) -> str:
    return ",".join(float(value).hex() for value in values)


def _rules_text(rules: Sequence[Rule]) -> str:
    # Rule ids come from a process-wide counter, so they stay out of the
    # digest; match, priority and action are what the data plane sees.
    return ";".join(f"{rule.match}|{rule.priority}|{rule.action}" for rule in rules)


def _digest(*parts: str) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def _guarantee_tally(agent: SwitchAgent) -> Tuple[int, int]:
    """(eligible, missed) ADDs of one Hermes agent.

    Eligible ADDs took the guaranteed path or were diverted off it; a miss
    finished past the guarantee (queueing included) or was diverted.
    """
    counts = agent.installer.gate_keeper.reason_counts
    diverted = sum(counts.get(reason, 0) for reason in DIVERTED)
    guaranteed = late = 0
    for action in agent.history():
        if action.flow_mod.command is FlowModCommand.ADD and action.result.used_guaranteed_path:
            guaranteed += 1
            late += action.response_time > GUARANTEE_S
    return guaranteed + diverted, late + diverted


def _timed(agent: SwitchAgent, meter: Meter) -> None:
    """Report the wall time of every agent call, per FlowMod it carries."""
    submit, submit_batch = agent.submit, agent.submit_batch

    def timed_submit(flow_mod, at_time=None):
        start = perf_counter()
        completed = submit(flow_mod, at_time=at_time)
        meter.call(perf_counter() - start)
        return completed

    def timed_submit_batch(flow_mods, at_time=None):
        start = perf_counter()
        completed = submit_batch(flow_mods, at_time=at_time)
        meter.call((perf_counter() - start) / max(1, len(flow_mods)))
        return completed

    agent.submit = timed_submit
    agent.submit_batch = timed_submit_batch


# ----------------------------------------------------------------------
# Varys simulations (isp_geant, dc_fattree)
# ----------------------------------------------------------------------
@dataclass
class TeInputs:
    graph: object
    flows: list
    config: object
    noise_seed: int


@dataclass
class TeSystem:
    simulation: Simulation
    metrics: object = None


def isp_geant_inputs(seed: int, index: int) -> TeInputs:
    """Fig 8's Geant gravity matrix, realized as flows drawn from the seed.

    The matrix is the figure's own (its fixed seed), so instances differ in
    flow arrivals and sizes, not in which links are hot.
    """
    rng = np.random.default_rng([seed, index])
    graph = get_isp_topology("geant")
    capacity = sum(data["capacity"] for _, _, data in graph.edges(data=True))
    matrix = gravity_matrix(
        pops(graph),
        total_traffic=QUICK_SCALE.isp_load_factor * capacity,
        rng=np.random.default_rng(QUICK_SCALE.seed),
    )
    flows = flows_from_matrix(
        matrix,
        duration=ISP_TRAFFIC_S,
        mean_flow_size=QUICK_SCALE.isp_mean_flow_size,
        rng=rng,
    )
    config = te_simulation_config(QUICK_SCALE, control_rtt=10e-3)  # WAN RTT
    return TeInputs(graph, flows, config, _noise_seed(rng))


def dc_fattree_inputs(seed: int, index: int) -> TeInputs:
    """Fig 1/9's MapReduce jobs on a k=4 fat tree, hosts moved by a symmetry.

    The job stream is the figures' own (their fixed seed): its sizes are
    heavy-tailed, and a fresh stream per seed would swing the run time by 5x
    and, for about one stream in five, ask for more hosts than k=4 has.  The
    seed picks a symmetry of the fat tree (pods, racks within a pod, hosts
    within a rack) and moves every host by it: each flow keeps its shape
    (same rack, same pod or across pods) but gets other switches and paths.
    """
    rng = np.random.default_rng([seed, index])
    k = QUICK_SCALE.fat_tree_k
    graph = build_fat_tree(FatTreeSpec(k=k, link_capacity=QUICK_SCALE.link_capacity))
    jobs = generate_jobs(
        hosts(graph),
        job_count=QUICK_SCALE.job_count,
        arrival_rate=QUICK_SCALE.job_arrival_rate,
        rng=np.random.default_rng(QUICK_SCALE.seed),
    )
    half = k // 2
    pods = rng.permutation(k)
    racks = [rng.permutation(half) for _ in range(k)]
    slots = [[rng.permutation(half) for _ in range(half)] for _ in range(k)]
    relabel = {
        host_name(pod, rack, slot): host_name(
            pods[pod], racks[pod][rack], slots[pod][rack][slot]
        )
        for pod in range(k)
        for rack in range(half)
        for slot in range(half)
    }
    flows = [
        dataclasses.replace(
            flow, source=relabel[flow.source], destination=relabel[flow.destination]
        )
        for flow in flows_of(jobs)
    ]
    return TeInputs(graph, flows, te_simulation_config(QUICK_SCALE), _noise_seed(rng))


def te_setup(inputs: TeInputs) -> TeSystem:
    factory = installer_factory(
        "hermes", SWITCH, default_hermes_config(), seed=inputs.noise_seed
    )
    return TeSystem(Simulation(inputs.graph, list(inputs.flows), factory, inputs.config))


def te_run(system: TeSystem, meter: Meter) -> None:
    for agent in system.simulation.controller.agents.values():
        _timed(agent, meter)
    system.metrics = system.simulation.run()


def te_finish(inputs: TeInputs, system: TeSystem) -> Outcome:
    records = system.metrics.flow_records()
    incomplete = len(inputs.flows) - sum(record.completed for record in records)
    problems = []
    eligible = missed = 0
    tables = []
    for name in sorted(system.simulation.controller.agents):
        agent = system.simulation.controller.agents[name]
        installer = agent.installer
        for violation in ap_verify_partition(installer.shadow, installer.main):
            problems.append(f"{name}: {violation.kind}: {violation.message}")
        agent_eligible, agent_missed = _guarantee_tally(agent)
        eligible += agent_eligible
        missed += agent_missed
        tables.append(
            f"{name}:{_rules_text(installer.shadow.rules())}/{_rules_text(installer.main.rules())}"
        )
    rits, fcts = system.metrics.rits(), system.metrics.fcts()
    return Outcome(
        rits=rits,
        fcts=fcts,
        eligible=eligible,
        missed=missed,
        attempted=len(inputs.flows),
        failed=incomplete + len(problems),
        problems=problems + ([f"{incomplete} flows did not complete"] if incomplete else []),
        digest=_digest(_hex(rits), _hex(fcts), *tables),
    )


# ----------------------------------------------------------------------
# Single-switch FlowMod replays (bgp_fib, microbench_overlap)
# ----------------------------------------------------------------------
@dataclass
class ReplayInputs:
    trace: List[Tuple[float, object]]
    prefill: List[Rule]
    reference: List[Rule]
    config: HermesConfig
    noise_seed: int


@dataclass
class ReplaySystem:
    agent: SwitchAgent
    trace: List[Tuple[float, object]]
    actions: list = field(default_factory=list)
    errors: List[str] = field(default_factory=list)


def _logical_replay(prefill: Sequence[Rule], trace) -> List[Rule]:
    """The rule set one monolithic table holds after the trace."""
    table: Dict[int, Rule] = {rule.rule_id: rule for rule in prefill}
    for _time, flow_mod in trace:
        if flow_mod.command is FlowModCommand.ADD:
            table[flow_mod.rule.rule_id] = flow_mod.rule
        elif flow_mod.command is FlowModCommand.DELETE:
            del table[flow_mod.rule_id]
        else:
            old = table[flow_mod.rule_id]
            table[flow_mod.rule_id] = Rule(
                match=flow_mod.new_match if flow_mod.new_match is not None else old.match,
                priority=(
                    flow_mod.new_priority if flow_mod.new_priority is not None else old.priority
                ),
                action=flow_mod.new_action if flow_mod.new_action is not None else old.action,
                rule_id=old.rule_id,
            )
    return sorted(table.values(), key=lambda rule: -rule.priority)


def section_84_hermes_config() -> HermesConfig:
    """Hermes as Section 8.4 runs it on a BGP router (``bgp_section``)."""
    return HermesConfig(
        guarantee=GuaranteeSpec.milliseconds(GUARANTEE_S * 1e3),
        slack=1.0,
        admission_control=False,
    )


def bgp_fib_inputs(seed: int, index: int) -> ReplayInputs:
    """FIB FlowMods of an equinix-chicago BGP stream (RIB -> FIB), warm FIB.

    The FIB state after the warm-up is prefilled; the measured trace is the
    next ``BGP_FLOWMODS`` FlowMods, mostly next-hop MODIFYs, as on a router
    that has been up for a while.
    """
    rng = np.random.default_rng([seed, index])
    updates = generate_updates(get_router_profile("equinix-chicago"), BGP_STREAM_S, rng=rng)
    router = BgpRouter()
    stream = [(update.time, flow_mod) for update in updates for flow_mod in router.process(update)]
    warmup = [item for item in stream if item[0] < BGP_WARMUP_S]
    trace = stream[len(warmup):][:BGP_FLOWMODS]
    prefill = _logical_replay([], warmup)
    return ReplayInputs(
        trace, prefill, _logical_replay(prefill, trace), section_84_hermes_config(),
        _noise_seed(rng),
    )


def microbench_overlap_inputs(seed: int, index: int) -> ReplayInputs:
    """A MicroBench trace where every insert overlaps a resident rule."""
    rng = np.random.default_rng([seed, index])
    config = MicrobenchConfig(
        arrival_rate=1000.0,
        overlap_rate=1.0,
        priority_mode=PriorityMode.RANDOM,
        duration=MICROBENCH_S,
        seed_rules=MICROBENCH_SEED_RULES,
        seed=_noise_seed(rng),
    )
    trace = [(timed.time, timed.flow_mod) for timed in generate_trace(config)]
    prefill = seed_rules(config)
    return ReplayInputs(
        trace, prefill, _logical_replay(prefill, trace), default_hermes_config(), _noise_seed(rng)
    )


def replay_setup(inputs: ReplayInputs) -> ReplaySystem:
    installer = make_installer(
        "hermes",
        get_switch_model(SWITCH),
        rng=np.random.default_rng(inputs.noise_seed),
        hermes_config=inputs.config,
    )
    installer.prefill(inputs.prefill)
    return ReplaySystem(SwitchAgent(installer, name=SWITCH), inputs.trace)


def replay_run(system: ReplaySystem, meter: Meter) -> None:
    """Open loop in simulated time, closed loop in host time."""
    _timed(system.agent, meter)
    submit = system.agent.submit
    for at_time, flow_mod in system.trace:
        try:
            system.actions.append(submit(flow_mod, at_time=at_time))
        except Exception as error:  # a refused FlowMod is a failed operation
            system.errors.append(f"{flow_mod.command.value} at t={at_time}: {error!r}")


def replay_finish(inputs: ReplayInputs, system: ReplaySystem) -> Outcome:
    installer = system.agent.installer
    problems = list(system.errors)
    for violation in ap_verify_partition(
        installer.shadow, installer.main, reference=inputs.reference
    ):
        problems.append(f"{violation.kind}: {violation.message}")
    refused_adds = sum(error.startswith("add") for error in system.errors)
    eligible, missed = _guarantee_tally(system.agent)
    rits = [
        action.response_time
        for action in system.actions
        if action.flow_mod.command is FlowModCommand.ADD
    ]
    all_times = [action.response_time for action in system.actions]
    return Outcome(
        rits=rits,
        fcts=[],
        eligible=eligible + refused_adds,
        missed=missed + refused_adds,
        attempted=len(inputs.trace),
        failed=len(problems),
        problems=problems,
        digest=_digest(
            str(len(inputs.trace)),
            _hex(all_times),
            _rules_text(installer.shadow.rules()),
            _rules_text(installer.main.rules()),
        ),
    )


@dataclass(frozen=True)
class Workload:
    generate: Callable
    setup: Callable
    run: Callable
    finish: Callable


WORKLOADS: Dict[str, Workload] = {
    "isp_geant": Workload(isp_geant_inputs, te_setup, te_run, te_finish),
    "dc_fattree": Workload(dc_fattree_inputs, te_setup, te_run, te_finish),
    "bgp_fib": Workload(bgp_fib_inputs, replay_setup, replay_run, replay_finish),
    "microbench_overlap": Workload(
        microbench_overlap_inputs, replay_setup, replay_run, replay_finish
    ),
}
