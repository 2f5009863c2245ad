"""Host-time measurement against a reference kernel timed alongside the work.

The host's speed drifts by up to 2x over seconds to minutes.  So every CHUNK
agent calls the meter times a fixed pure-Python reference kernel (object
creation, dict and list work, a sort, a scan of dataclass entries) and a stretch
of work is reported in *reference seconds*: its wall time scaled by
``KERNEL_REF_S`` over the kernel time around it.  The kernel is part of the
benchmark, so a change to the program cannot speed it up or slow it down.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional

CHUNK = 50
# Scale: a reference second is the time in which the kernel runs once per ms.
KERNEL_REF_S = 1e-3


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


@dataclass(frozen=True)
class _Entry:
    key: int
    value: int


_ENTRIES = [_Entry(index, index & 7) for index in range(2000)]
_LAST = _Entry(1999, 1999 & 7)


def _kernel() -> int:
    table = {}
    items = []
    for index in range(1500):
        item = _Item(index & 127, index)
        table[item.key] = table.get(item.key, 0) + item.value
        items.append(item)
    items.sort(key=lambda item: -item.key)
    # A scan calling a dataclass __eq__ per entry, as a TCAM table lookup by
    # rule does: it leans on memory more than the loop above.
    return len(table) + _ENTRIES.index(_LAST)


def kernel_seconds() -> float:
    """Best of three runs of the reference kernel, in wall seconds."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        _kernel()
        best = min(best, perf_counter() - start)
    return best


class Meter:
    """Wall time of agent calls and of the work between kernel timings.

    ``stretches[j]`` is the wall time of the work between ``kernels[j]`` and
    ``kernels[j + 1]`` (kernel time excluded); ``calls[k]`` belongs to
    stretch ``k // chunk``.
    """

    def __init__(self, chunk: Optional[int] = CHUNK) -> None:
        """``chunk=None`` times the kernel only before and after the work
        (the traced run, whose spans must not absorb kernel time)."""
        self.chunk = chunk
        self.calls: List[float] = []
        self.stretches: List[float] = []
        self.kernels: List[float] = []
        self._mark = 0.0

    def start(self) -> None:
        self.kernels.append(kernel_seconds())
        self._mark = perf_counter()

    def call(self, seconds: float) -> None:
        self.calls.append(seconds)
        if self.chunk and len(self.calls) % self.chunk == 0:
            self.stop()

    def stop(self) -> None:
        """Close the current stretch and time the kernel after it."""
        self.stretches.append(perf_counter() - self._mark)
        self.kernels.append(kernel_seconds())
        self._mark = perf_counter()

    @property
    def wall_s(self) -> float:
        """Wall time of the work, kernel timings excluded."""
        return sum(self.stretches)
