"""Process-parallel experiment sweeps with deterministic merging.

A sweep is one module-level per-cell function mapped over a list of
argument tuples — one per predictor/corrector pair, chaos cell, or
ablation variant.  :meth:`SweepRunner.map` fans the cells over worker
processes and merges the results back **in task order**, so the merged
output of a parallel run is indistinguishable from the serial loop it
replaces (``workers=1`` *is* that loop: no pool, no pickling,
byte-identical to the legacy code).

The function must be a module-level callable with picklable arguments —
the same constraint ``concurrent.futures`` imposes; the experiment
modules expose their per-cell functions (``run_pair``, ``run_cell``,
``run_variant``) at module scope for exactly this reason.  Per-task child
seeds come from :func:`repro.engine.rng.child_seed` when a sweep wants
decorrelated randomness per cell; the stock experiment sweeps seed each
cell explicitly from their config, so placement never affects results.

Parallel runs ship tasks to workers in contiguous *chunks* (several cells
per submitted future, about four chunks per worker for load balance) to
amortize process startup and pickling overhead — on short cells,
one-task-per-future can make a "parallel" sweep slower than the serial
loop on few-core machines.  Chunking never changes results or their
order, only how tasks are batched onto processes.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Sequence, Tuple


def _run_chunk(func: Callable, chunk: Sequence[Tuple]) -> List[object]:
    """Worker-side helper: run one contiguous chunk of tasks.

    Module-level so it pickles; results stay in chunk order.
    """
    return [func(*args) for args in chunk]


def _chunked(items: Sequence, size: int) -> List[Sequence]:
    return [items[start : start + size] for start in range(0, len(items), size)]


class SweepRunner:
    """Runs independent experiment tasks, serially or across processes.

    ``workers=1`` (the default) runs the tasks inline in submission order —
    the exact legacy behaviour of every experiment's ``for`` loop.
    ``workers>1`` uses a :class:`~concurrent.futures.ProcessPoolExecutor`
    and ships tasks in contiguous chunks to amortize process startup;
    results are gathered by task index, so the merged list is identical
    to the serial one whenever the tasks themselves are
    process-independent (each stock experiment cell seeds its own RNGs and
    builds its own topology, so they are).
    """

    def __init__(self, workers: int = 1) -> None:
        """Create a runner that uses ``workers`` processes (1 = inline)."""
        if workers < 1:
            raise ValueError(f"workers must be at least 1: {workers}")
        self.workers = workers

    def _chunk_size_for(self, task_count: int) -> int:
        """Tasks per submitted future: about four chunks per worker."""
        return max(1, -(-task_count // (self.workers * 4)))

    def map(self, func: Callable, task_args: Sequence[Tuple]) -> List[object]:
        """Run ``func(*args)`` for each args tuple; results in task order."""
        if self.workers == 1:
            return [func(*args) for args in task_args]
        task_args = list(task_args)
        chunks = _chunked(task_args, self._chunk_size_for(len(task_args)))
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            futures = [pool.submit(_run_chunk, func, chunk) for chunk in chunks]
            return [
                result for future in futures for result in future.result()
            ]
