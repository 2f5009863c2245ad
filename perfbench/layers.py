"""Per-layer tracing for the traced run: spans around public entry points.

The recorder patches functions and methods of the program for the timed
region only and restores them afterwards.  Each call becomes a span (name,
start, end, parent); spans stay in memory and are written out at the end.
A layer's self time is its spans' time minus their child spans' time.
Work counters are read from the arguments and results at the same
boundaries, so ratios are measured where the work happens.

An entry point that no longer exists is reported as absent; the run goes on.
"""

from __future__ import annotations

import importlib
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

# Counters that must repeat exactly across runs of one input.
WORK_COUNTERS = (
    "engine.events",
    "simulator.fairshare.pairs",
    "simulator.te_plan.flows_scanned",
    "tcam.shifts",
    "core.rule_manager.migrate.rules_moved",
    "core.partition.fragments",
)

CALL_LAYERS = (
    "simulator.fairshare",
    "simulator.te_plan",
    "switchsim.agent",
    "core.gatekeeper",
    "core.partition",
    "core.rule_manager.tick",
    "core.rule_manager.migrate",
    "core.prediction",
    "tcam.insert",
    "tcam.delete",
    "tcam.modify",
)
SELF_LAYERS = CALL_LAYERS + ("simulator.controller",)


def _attr(path: str):
    """Resolve ``"module:Owner"`` (or ``"module:"`` for the module itself)."""
    module_name, _, owner = path.partition(":")
    target = importlib.import_module(module_name)
    for part in filter(None, owner.split(".")):
        target = getattr(target, part)
    return target


class Recorder:
    """Span and counter store for one traced worker process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.parents: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.instances: List[int] = []
        self.counts: Dict[str, float] = {}
        self._missing: Dict[str, str] = {}
        self._present: set = set()
        self._stack: List[int] = []
        self._open: Dict[str, int] = {}
        self._patches: List[tuple] = []
        self._instance = 0
        self._first_span = 0

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _patch(
        self, path: str, attr: str, name: str, after: Optional[Callable] = None, span: bool = True
    ) -> None:
        """Replace ``attr`` of ``path`` by a span (or, ``span=False``, a call count)."""
        try:
            owner = _attr(path)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self._missing[name] = f"{path}.{attr}"
            return
        self._present.add(name)
        self._patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(
            owner, attr, self._span(name, original, after) if span else self._counter(name, original)
        )

    def _counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name: str, fn: Callable, after: Optional[Callable]) -> Callable:
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, open_spans = self._stack, self._open

        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            open_spans[name] = open_spans.get(name, 0) + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                open_spans[name] -= 1
                starts[index] = start
                ends[index] = end
            if after is not None:
                after(args, result)
            return result

        return wrapper

    @property
    def absent(self) -> Dict[str, str]:
        """Layers none of whose entry points exist, with one missing path."""
        return {
            name: path for name, path in self._missing.items() if name not in self._present
        }

    def _add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def install(self, instance: int) -> None:
        """Patch every layer boundary; spans from now on belong to ``instance``."""
        self._instance = instance
        self._first_span = len(self.names)
        add = self._add

        def fairshare_pairs(args, _result):
            add("simulator.fairshare.pairs", sum(len(links) for links in args[0].values()))

        def store_pairs(args, _result):
            store = args[0]
            add("simulator.fairshare.pairs", int(store._seg_len[store.active_rows()].sum()))

        def te_plan(args, moves):
            add("simulator.te_plan.flows_scanned", len(args[1]))
            add("simulator.te_plan.moves", len(moves))

        def agent(args, completed):
            actions = completed if isinstance(completed, list) else [completed]
            add("switchsim.agent.flowmods", len(actions))
            add("switchsim.agent.queue_wait_s", sum(action.queue_delay for action in actions))
            if self._open.get("simulator.controller"):
                add("simulator.controller.flowmods", len(actions))

        def gatekeeper(_args, decision):
            add("core.gatekeeper.guaranteed", decision.use_shadow)

        def partition(_args, outcome):
            # Altered by Algorithm 1: cut into fragments or dropped as subsumed.
            add("core.partition.cut", outcome.was_partitioned)
            add("core.partition.fragments", len(outcome.fragments))

        def migrate(_args, report):
            add("core.rule_manager.migrate.rules_moved", report.rules_written)

        def insert(_args, result):
            add("tcam.shifts", result.shifts)

        self._patch("repro.engine.scheduler:EventScheduler", "pop", "engine.events", span=False)
        self._patch("repro.simulator.simulation:", "max_min_fair_rates", "simulator.fairshare", fairshare_pairs)
        self._patch("repro.simulator.flowstate:FlowStore", "recompute", "simulator.fairshare", store_pairs)
        self._patch("repro.simulator.sdnapp:ProactiveTeApp", "plan", "simulator.te_plan", te_plan)
        for method in ("install_path", "install_paths", "remove_flow_rules"):
            self._patch("repro.simulator.controller:SdnController", method, "simulator.controller")
        for method in ("submit", "submit_batch"):
            self._patch("repro.switchsim.agent:SwitchAgent", method, "switchsim.agent", agent)
        self._patch("repro.core.gatekeeper:GateKeeper", "decide", "core.gatekeeper", gatekeeper)
        self._patch("repro.core.hermes:", "partition_new_rule", "core.partition", partition)
        self._patch("repro.core.rule_manager:RuleManager", "tick", "core.rule_manager.tick")
        self._patch("repro.core.rule_manager:RuleManager", "migrate", "core.rule_manager.migrate", migrate)
        prediction = importlib.import_module("repro.core.prediction")
        for predictor in sorted(prediction.Predictor.__subclasses__(), key=lambda cls: cls.__name__):
            for method in ("update", "predict"):
                if method in vars(predictor):
                    self._patch(
                        f"repro.core.prediction:{predictor.__name__}", method, "core.prediction"
                    )
        self._patch("repro.tcam.table:TcamTable", "insert", "tcam.insert", insert)
        self._patch("repro.tcam.table:TcamTable", "delete", "tcam.delete")
        self._patch("repro.tcam.table:TcamTable", "modify", "tcam.modify")

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        self.instances.extend([self._instance] * (len(self.names) - self._first_span))

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def self_times(self, first: int = 0) -> Dict[str, float]:
        """Self seconds per span name over spans ``first`` onwards."""
        starts = np.asarray(self.starts[first:])
        durations = np.asarray(self.ends[first:]) - starts
        parents = np.asarray(self.parents[first:], dtype=np.int64) - first
        child = np.zeros(len(durations))
        nested = parents >= 0
        np.add.at(child, parents[nested], durations[nested])
        self_time = durations - child
        totals: Dict[str, float] = {}
        for name, value in zip(self.names[first:], self_time):
            totals[name] = totals.get(name, 0.0) + float(value)
        return totals

    def call_counts(self, first: int = 0) -> Dict[str, int]:
        calls: Dict[str, int] = {}
        for name in self.names[first:]:
            calls[name] = calls.get(name, 0) + 1
        return calls

    def summary(self, run_s: float) -> Dict[str, float]:
        """Raw layer numbers of the spans recorded since the last install."""
        first = self._first_span
        raw = dict(self.counts)
        for name, value in self.call_counts(first).items():
            raw[f"{name}.calls"] = value
        self_times = self.self_times(first)
        for name, value in self_times.items():
            raw[f"{name}.self_s"] = value
        raw["other.self_s"] = run_s - sum(self_times.values())
        self.counts.clear()
        return raw

    def write(self, path) -> None:
        """Write every span of this process as compressed columns."""
        table = sorted(set(self.names))
        code = {name: index for index, name in enumerate(table)}
        np.savez_compressed(
            path,
            names=np.asarray(table),
            name=np.asarray([code[name] for name in self.names], dtype=np.int16),
            start=np.asarray(self.starts),
            end=np.asarray(self.ends),
            parent=np.asarray(self.parents, dtype=np.int64),
            instance=np.asarray(self.instances, dtype=np.int32),
        )


def layer_metrics(raw: Dict[str, float], absent=()) -> Dict[str, float]:
    """Per-layer metrics (the BENCHMARK.json names) from summed raw numbers.

    Metrics of an ``absent`` layer are left out rather than read as zero.
    """

    def get(name: str) -> float:
        return raw.get(name, 0)

    def ratio(numerator: str, denominator: str) -> float:
        return get(numerator) / get(denominator) if get(denominator) else 0.0

    metrics = {"engine.events": get("engine.events")}
    for layer in CALL_LAYERS:
        metrics[f"{layer}.calls"] = get(f"{layer}.calls")
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_s"] = get(f"{layer}.self_s")
    metrics.update(
        {
            "simulator.fairshare.pairs": get("simulator.fairshare.pairs"),
            "simulator.te_plan.flows_scanned": get("simulator.te_plan.flows_scanned"),
            "simulator.te_plan.moves": get("simulator.te_plan.moves"),
            "simulator.te_plan.move_ratio": ratio(
                "simulator.te_plan.moves", "simulator.te_plan.flows_scanned"
            ),
            "simulator.controller.flowmods": get("simulator.controller.flowmods"),
            "switchsim.agent.queue_wait_ms": 1e3
            * ratio("switchsim.agent.queue_wait_s", "switchsim.agent.flowmods"),
            "core.gatekeeper.guaranteed_ratio": ratio(
                "core.gatekeeper.guaranteed", "core.gatekeeper.calls"
            ),
            "core.partition.cut_ratio": ratio("core.partition.cut", "core.partition.calls"),
            "core.partition.fragments": get("core.partition.fragments"),
            "core.rule_manager.migrate.rules_moved": get("core.rule_manager.migrate.rules_moved"),
            "tcam.shifts": get("tcam.shifts"),
            "tcam.shifts_per_insert": ratio("tcam.shifts", "tcam.insert.calls"),
            "other.self_s": get("other.self_s"),
        }
    )
    return {
        name: value
        for name, value in metrics.items()
        if not any(name.startswith(layer + ".") or name == layer for layer in absent)
    }
