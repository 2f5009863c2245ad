"""Tests for the simulator's event loop — kernel-scheduled completions.

Completions are scheduled kernel events, one per rate epoch, skipped on
pop when stale.  The pins below were captured from the per-iteration
completion scan (which recomputed every active flow's ETA each loop
iteration); the event loop must reproduce them byte for byte, with and
without TE epochs interleaving non-recomputing dispatches.
"""

import json

import numpy as np

from repro.baselines import make_installer
from repro.simulator import Simulation, SimulationConfig, TeAppConfig
from repro.tcam import get_switch_model
from repro.topology import FatTreeSpec, build_fat_tree, hosts
from repro.traffic import flows_of, generate_jobs

from tests.engine.test_parity import _run_script


def _workload(job_count=8, seed=21):
    graph = build_fat_tree(FatTreeSpec(k=4, link_capacity=1e9))
    flows = flows_of(
        generate_jobs(
            hosts(graph),
            job_count=job_count,
            arrival_rate=6.0,
            rng=np.random.default_rng(seed),
        )
    )
    return graph, flows


def _no_te_config():
    # TE epoch far beyond the workload: no epochs fire, so every
    # dispatched event (arrival or completion) recomputes rates.
    return SimulationConfig(te=TeAppConfig(epoch=1e6), baseline_occupancy=0)


# One pinned scenario per fresh interpreter: flow, job and rule ids come
# from process-global counters, and the ECMP choice hashes the flow id.
_PIN_SCRIPT = r"""
import hashlib
import json
import sys

import numpy as np

from repro.baselines import make_installer
from repro.simulator import Simulation, SimulationConfig, TeAppConfig
from repro.tcam import get_switch_model
from repro.topology import FatTreeSpec, build_fat_tree, hosts
from repro.traffic import flows_of, generate_jobs

graph = build_fat_tree(FatTreeSpec(k=4, link_capacity=1e9))
flows = flows_of(
    generate_jobs(
        hosts(graph), job_count=8, arrival_rate=6.0,
        rng=np.random.default_rng(21),
    )
)
configs = {
    "no-te": SimulationConfig(te=TeAppConfig(epoch=1e6), baseline_occupancy=0),
    "te": SimulationConfig(
        te=TeAppConfig(epoch=0.25), baseline_occupancy=50, max_time=3.0
    ),
}
timing = get_switch_model("pica8-p3290")
factory = lambda name, injector: make_installer("naive", timing, injector=injector)
metrics = Simulation(graph, flows, factory, configs[sys.argv[1]]).run()
payload = json.dumps(
    [metrics.rits(), metrics.fcts(), sorted(metrics.jcts().items())]
).encode()
print(
    json.dumps(
        {
            "digest": hashlib.sha256(payload).hexdigest(),
            "completed": len(metrics.fcts()),
        }
    )
)
"""


def _pinned(name):
    return json.loads(_run_script(_PIN_SCRIPT, name))


class TestScanEventEquality:
    def test_pure_arrival_completion_workload_is_byte_identical(self):
        result = _pinned("no-te")
        assert result["completed"] == 52
        assert result["digest"] == (
            "0cde45ff17066b15bd59ccd0ad591267759c3cbc9624a7c96e1dacba33fe0d92"
        )

    def test_event_mode_skips_stale_completions(self):
        # Every arrival recomputes rates and re-arms the completion event,
        # so all but the last epoch's events go stale — the run must still
        # complete every flow exactly once.
        graph, flows = _workload()
        timing = get_switch_model("pica8-p3290")
        factory = lambda name, injector: make_installer(
            "naive", timing, injector=injector
        )
        simulation = Simulation(graph, flows, factory, _no_te_config())
        metrics = simulation.run()
        assert len(metrics.fcts()) == len(flows)
        assert len(simulation._store) == 0


class TestEventModeWithTe:
    def test_te_workload_matches_scan_pin(self):
        # TE epochs drain bytes without recomputing rates; re-arming the
        # completion after such a dispatch keeps every FCT exact.
        result = _pinned("te")
        assert result["completed"] == 17
        assert result["digest"] == (
            "830e60b21fe7108568d673811376e32097793dd4f387ff7593883e2ee95d12ad"
        )


_EVENT_DIGEST_SCRIPT = r"""
import hashlib
import json

import numpy as np

from repro.baselines import make_installer
from repro.experiments.common import default_hermes_config
from repro.simulator import Simulation, SimulationConfig, TeAppConfig
from repro.tcam import get_switch_model
from repro.topology import FatTreeSpec, build_fat_tree, hosts
from repro.traffic import flows_of, generate_jobs

graph = build_fat_tree(FatTreeSpec(k=4, link_capacity=1e9))
flows = flows_of(
    generate_jobs(
        hosts(graph), job_count=6, arrival_rate=6.0,
        rng=np.random.default_rng(17),
    )
)
config = SimulationConfig(
    te=TeAppConfig(epoch=0.25),
    baseline_occupancy=100,
    max_time=3.0,
)
timing = get_switch_model("pica8-p3290")
hermes_config = default_hermes_config()
factory = lambda name, injector: make_installer(
    "hermes", timing, hermes_config=hermes_config, injector=injector
)
metrics = Simulation(graph, flows, factory, config).run()
payload = json.dumps(
    [metrics.rits(), metrics.fcts(), sorted(metrics.jcts().items())]
).encode()
print(hashlib.sha256(payload).hexdigest())
"""


def _event_digest() -> str:
    return _run_script(_EVENT_DIGEST_SCRIPT)


class TestEventModeDeterminism:
    def test_cross_process_digest_identical(self):
        assert _event_digest() == _event_digest()
