"""Fault-wrapped TCAM tables and verified-write helpers.

A :class:`FaultyTable` proxies a :class:`~repro.tcam.table.TcamTable` and
routes the *write* path (insert / modify) through a
:class:`~repro.faults.injector.FaultInjector`: a write may visibly fail
(:class:`TcamWriteError`) or silently no-op — it acks, charges the modelled
latency, and installs nothing.  Deletes stay reliable: the failure mode the
Hermes partition invariant must survive is a *move* whose insert half is
lost, and an unreliable delete would only mask that with a different bug.

:func:`verified_insert` is the recovery primitive: write, check membership,
re-issue a bounded number of times.  On a fault-free table it degenerates
to one insert and one dict lookup.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..tcam.rule import Rule
from ..tcam.table import ControlActionResult, TableFullError, TcamError

if TYPE_CHECKING:  # pragma: no cover
    from ..tcam.table import TcamTable
    from .injector import FaultInjector


class TcamWriteError(TcamError):
    """A TCAM write visibly failed.

    Attributes:
        latency: switch time the failed attempt still consumed.
    """

    def __init__(self, message: str, latency: float = 0.0) -> None:
        super().__init__(message)
        self.latency = latency


class FaultyTable:
    """A TcamTable proxy whose writes consult a fault injector.

    Reads, deletes, listeners, and every other attribute delegate to the
    wrapped table, so the proxy is a drop-in replacement anywhere a
    ``TcamTable`` is expected.
    """

    def __init__(self, inner: "TcamTable", injector: "FaultInjector", clock=None) -> None:
        """Wrap ``inner``; ``clock`` supplies the current simulation time
        for fault-log stamps (defaults to a constant 0.0)."""
        self._inner = inner
        self._injector = injector
        self._clock = clock if clock is not None else (lambda: 0.0)

    @property
    def inner(self) -> "TcamTable":
        """The wrapped physical table."""
        return self._inner

    def _charge_only(self) -> float:
        """Latency of a write that consumed switch time but installed
        nothing (failed or silently no-oped)."""
        return self._inner.timing.insertion_latency(
            self._inner.occupancy, shifts=None, rng=self._inner.rng
        )

    def insert(
        self,
        rule: Rule,
        planned: bool = False,
    ) -> ControlActionResult:
        """Insert through the fault model.

        Raises:
            TcamWriteError: when the injector fails the write visibly.
        """
        if self._inner.is_full:
            # Let capacity errors surface exactly as the real table would.
            return self._inner.insert(rule, planned=planned)
        verdict = self._injector.write_verdict(
            now=self._clock(), table=self._inner.name, rule_id=rule.rule_id
        )
        if verdict == "fail":
            raise TcamWriteError(
                f"{self._inner.name}: write of rule #{rule.rule_id} failed",
                latency=self._charge_only(),
            )
        if verdict == "silent":
            return ControlActionResult(latency=self._charge_only(), shifts=0)
        return self._inner.insert(rule, planned=planned)

    def modify(self, rule_id: int, action=None, match=None) -> ControlActionResult:
        """Modify through the fault model (same verdicts as insert)."""
        verdict = self._injector.write_verdict(
            now=self._clock(), table=self._inner.name, rule_id=rule_id
        )
        if verdict == "fail":
            raise TcamWriteError(
                f"{self._inner.name}: modify of rule #{rule_id} failed",
                latency=self._inner.timing.modification_latency(rng=self._inner.rng),
            )
        if verdict == "silent":
            self._inner.get(rule_id)  # still surface unknown-rule errors
            return ControlActionResult(
                latency=self._inner.timing.modification_latency(rng=self._inner.rng)
            )
        return self._inner.modify(rule_id, action=action, match=match)

    # Dunder lookups bypass __getattr__, so the container protocol must be
    # forwarded explicitly.
    def __contains__(self, rule_id: int) -> bool:
        return rule_id in self._inner

    def __len__(self) -> int:
        return len(self._inner)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def __repr__(self) -> str:
        return f"FaultyTable({self._inner!r})"


def verified_insert(
    table, rule: Rule, attempts: int = 3, planned: bool = False
) -> "tuple[float, bool]":
    """Insert ``rule`` and verify it actually landed, re-issuing on faults.

    Works against plain and fault-wrapped tables alike.  Returns
    ``(latency, ok)`` — the summed switch time of every attempt and whether
    the rule is installed afterwards.  Capacity errors propagate; write
    faults (visible or silent) are retried up to ``attempts`` times.

    Raises:
        ValueError: when ``attempts`` is not positive.
        TableFullError: when the table has no room.
    """
    if attempts <= 0:
        raise ValueError(f"attempts must be positive, got {attempts}")
    latency = 0.0
    for _ in range(attempts):
        try:
            latency += table.insert(rule, planned=planned).latency
        except TcamWriteError as error:
            latency += error.latency
        except TableFullError:
            raise
        if rule.rule_id in table:
            return latency, True
    return latency, False
