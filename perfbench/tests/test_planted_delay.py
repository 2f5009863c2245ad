"""Planted-delay self-test: the benchmark must see a slowdown it was handed.

A sleep wrapped around ``TcamTable.modify`` has to show up in the traced
``tcam.modify.self_s`` and in the untraced ``run_s`` of ``bgp_fib`` (whose
FIB updates are MODIFYs), and must leave ``isp_geant`` (no MODIFYs) alone.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
DELAY_S = 1e-3

sys.path.insert(0, str(BENCH))
from run import reference_times  # noqa: E402  (the benchmark's own estimator)

# Runs the worker with TcamTable.modify slowed by DELAY_S (when positive).
PLANTED = """
import sys, time
sys.path.insert(0, {bench!r})
from repro.tcam.table import TcamTable

delay = float(sys.argv[1])
if delay > 0:
    original = TcamTable.modify

    def slow_modify(self, *args, **kwargs):
        time.sleep(delay)
        return original(self, *args, **kwargs)

    TcamTable.modify = slow_modify
import worker
sys.exit(worker.main(sys.argv[2:]))
"""


def worker(workload: str, instances: str, trace: int, delay: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [
            sys.executable, "-c", PLANTED.format(bench=str(BENCH)), str(delay),
            "--workload", workload, "--seed", "1", "--instances", instances,
            "--trace", str(trace),
        ],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def total(report: dict, key: str) -> float:
    return sum(result[key] for result in report["instances"])


def layer(report: dict, name: str) -> float:
    return sum(result["layers"].get(name, 0) for result in report["instances"])


@pytest.fixture(scope="module")
def run_s_bound() -> float:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == "run_s")


def test_planted_modify_delay_shows_in_bgp_fib():
    base = worker("bgp_fib", "0", 1, 0.0)
    slow = worker("bgp_fib", "0", 1, DELAY_S)
    calls = layer(slow, "tcam.modify.calls")
    assert calls > 500
    planted = calls * DELAY_S
    grown = layer(slow, "tcam.modify.self_s") - layer(base, "tcam.modify.self_s")
    assert grown >= 0.9 * planted
    # The sleep lands in tcam.modify, not in the layers around it.
    assert abs(layer(slow, "switchsim.agent.self_s") - layer(base, "switchsim.agent.self_s")) < 0.25 * planted

    # Wall-clock run_s: the sleep does not scale with the host's speed, and
    # half of it is well clear of the host's drift over one instance.
    base_run = total(worker("bgp_fib", "0", 0, 0.0), "run_s")
    slow_run = total(worker("bgp_fib", "0", 0, DELAY_S), "run_s")
    assert slow_run - base_run >= 0.5 * planted


def reference_run_s(delay: float) -> float:
    """``run_s`` as run.py reports it: median of three passes of instance 0."""
    runs = [reference_times(worker("isp_geant", "0", 0, delay)["instances"][0])[0] for _ in range(3)]
    return sorted(runs)[1]


def test_planted_modify_delay_leaves_isp_geant_alone(run_s_bound):
    traced = worker("isp_geant", "0", 1, DELAY_S)
    assert layer(traced, "tcam.modify.calls") == 0
    base, slow = reference_run_s(0.0), reference_run_s(DELAY_S)
    assert abs(slow - base) <= run_s_bound * base
