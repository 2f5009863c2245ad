"""Baseline TCAM-management schemes the paper compares Hermes against.

* :class:`NaiveInstaller` — an unmodified commodity switch (alias of the
  switchsim :class:`~repro.switchsim.installer.DirectInstaller`).
* :class:`EspresInstaller` — batch reordering/scheduling (ESPRES).
* :class:`TangoInstaller` — reordering + rule aggregation (Tango).
* :class:`ShadowSwitchInstaller` — software shadow table (ShadowSwitch).

All are drop-in :class:`~repro.switchsim.installer.RuleInstaller`
implementations, interchangeable with Hermes in the simulator and benches.
"""

from ..switchsim.installer import DirectInstaller as NaiveInstaller
from .espres import EspresInstaller
from .shadowswitch import ShadowSwitchInstaller
from .tango import TangoInstaller

INSTALLER_NAMES = ("naive", "espres", "tango", "shadowswitch", "hermes")


def make_installer(name, timing, rng=None, hermes_config=None, injector=None):
    """Build an installer by name over the given switch timing model.

    ``hermes_config`` is only consulted for ``name="hermes"``.  ``injector``
    (the run's :class:`~repro.faults.injector.FaultInjector`; None: a null
    one) routes TCAM writes through the fault model for the schemes that
    support it — naive and Hermes, the pair the chaos experiments compare.
    """
    key = name.strip().lower()
    if key == "naive":
        return NaiveInstaller(timing, rng=rng, injector=injector)
    if key == "espres":
        return EspresInstaller(timing, rng=rng)
    if key == "tango":
        return TangoInstaller(timing, rng=rng)
    if key == "shadowswitch":
        return ShadowSwitchInstaller(timing, rng=rng)
    if key == "hermes":
        from ..core.hermes import HermesInstaller

        return HermesInstaller(timing, config=hermes_config, rng=rng, injector=injector)
    raise KeyError(
        f"unknown installer {name!r}; known: {', '.join(INSTALLER_NAMES)}"
    )


__all__ = [
    "EspresInstaller",
    "INSTALLER_NAMES",
    "NaiveInstaller",
    "ShadowSwitchInstaller",
    "TangoInstaller",
    "make_installer",
]
