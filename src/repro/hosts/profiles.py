"""Hardware profiles for the machines used in the paper's evaluation.

The paper's placement decisions depend on *relative* machine capability:
cycle rates, whether floating point is emulated in software, and power
draw.  Each profile captures those parameters.  Absolute power numbers are
drawn from the published Itsy measurements (Hamburgen et al., IEEE
Computer 2001) and typical laptop/desktop figures of the era; the
reproduction contract requires shape fidelity, not watt-level accuracy.

Profiles provided:

========================  ==========================================
``ITSY_V22``              Compaq Itsy v2.2 pocket computer —
                          206 MHz StrongARM SA-1100, **no FPU**
                          (floating point emulated in software).
``IBM_T20``               IBM ThinkPad T20 — 700 MHz Pentium III.
``IBM_560X``              IBM ThinkPad 560X — 233 MHz Pentium MMX.
``SERVER_A``              Desktop server — 400 MHz Pentium II.
``SERVER_B``              Desktop server — 933 MHz Pentium III.
========================  ==========================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict


@dataclass(frozen=True)
class HostProfile:
    """Static description of a machine's hardware capabilities.

    Attributes
    ----------
    name:
        Human-readable model name.
    cycles_per_second:
        Nominal CPU clock rate; the cycle budget jobs consume against.
    has_fpu:
        False on the SA-1100, where floating-point instructions trap to a
        software emulator.  Applications with FP-heavy phases inflate their
        cycle demand by :attr:`fp_emulation_penalty` on such hosts.
    fp_emulation_penalty:
        Multiplier on FP-heavy work when ``has_fpu`` is False.  6x on
        the FP-heavy half of the recognizer yields the 3-9x end-to-end
        slowdowns the paper reports for Janus on the Itsy.
    idle_power_watts / cpu_active_power_watts:
        Baseline draw and *additional* draw while the CPU is busy.
    net_tx_power_watts / net_rx_power_watts:
        Additional draw while transmitting / receiving on the primary
        network interface.
    battery_capacity_joules:
        Usable battery energy when running untethered (0 for machines the
        paper never battery-powers).
    """

    name: str
    cycles_per_second: float
    has_fpu: bool = True
    fp_emulation_penalty: float = 10.0
    idle_power_watts: float = 5.0
    cpu_active_power_watts: float = 5.0
    net_tx_power_watts: float = 0.0
    net_rx_power_watts: float = 0.0
    battery_capacity_joules: float = 0.0

    def effective_cycles(self, cycles: float, fp_fraction: float = 0.0) -> float:
        """Cycle cost of a job on this host, accounting for FP emulation.

        ``fp_fraction`` is the fraction of the job's cycles that are
        floating-point on a machine *with* an FPU; those cycles dilate by
        :attr:`fp_emulation_penalty` when the FPU is absent.
        """
        if not 0.0 <= fp_fraction <= 1.0:
            raise ValueError(f"fp_fraction out of range: {fp_fraction}")
        if self.has_fpu or fp_fraction <= 0.0:
            return cycles
        return cycles * (1.0 - fp_fraction + fp_fraction * self.fp_emulation_penalty)

    def with_overrides(self, **kwargs) -> "HostProfile":
        """Copy of this profile with selected fields replaced."""
        return replace(self, **kwargs)


#: Compaq Itsy v2.2 pocket computer.  206 MHz StrongARM SA-1100 with no
#: hardware floating point; Smart Battery.  Power figures follow the Itsy
#: paper: ~0.2 W idle, ~0.75 W additional under full CPU load; serial-link
#: communication adds a small draw.
ITSY_V22 = HostProfile(
    name="Itsy v2.2",
    cycles_per_second=206e6,
    has_fpu=False,
    fp_emulation_penalty=6.0,
    idle_power_watts=0.2,
    cpu_active_power_watts=0.9,
    net_tx_power_watts=0.02,
    net_rx_power_watts=0.02,
    battery_capacity_joules=4_500.0,  # ~1.25 Wh pocket-device pack
)

#: IBM ThinkPad T20 laptop — the remote server in the speech experiments.
IBM_T20 = HostProfile(
    name="IBM T20",
    cycles_per_second=700e6,
    has_fpu=True,
    idle_power_watts=12.0,
    cpu_active_power_watts=14.0,
    net_tx_power_watts=1.2,
    net_rx_power_watts=0.9,
    battery_capacity_joules=130_000.0,
)

#: IBM ThinkPad 560X laptop — the client in the Latex / Pangloss-Lite
#: experiments (233 MHz Pentium MMX; energy measured by multimeter in the
#: paper because the 560X lacks energy-management support).
IBM_560X = HostProfile(
    name="IBM 560X",
    cycles_per_second=233e6,
    has_fpu=True,
    idle_power_watts=5.0,
    cpu_active_power_watts=8.0,
    net_tx_power_watts=2.0,
    net_rx_power_watts=1.5,
    battery_capacity_joules=90_000.0,
)

#: Remote server A — 400 MHz Pentium II desktop.
SERVER_A = HostProfile(
    name="Server A",
    cycles_per_second=400e6,
    has_fpu=True,
    idle_power_watts=0.0,  # wall powered; client-side energy is what matters
    cpu_active_power_watts=0.0,
)

#: Remote server B — 933 MHz Pentium III desktop.
SERVER_B = HostProfile(
    name="Server B",
    cycles_per_second=933e6,
    has_fpu=True,
    idle_power_watts=0.0,
    cpu_active_power_watts=0.0,
)

#: Registry by canonical key, for configuration files and tests.
PROFILES: Dict[str, HostProfile] = {
    "itsy-v2.2": ITSY_V22,
    "ibm-t20": IBM_T20,
    "ibm-560x": IBM_560X,
    "server-a": SERVER_A,
    "server-b": SERVER_B,
}


def get_profile(key: str) -> HostProfile:
    """Look up a built-in profile by registry key.

    Raises ``KeyError`` with the list of known keys on a miss, because a
    typo in a scenario file should fail loudly and helpfully.
    """
    try:
        return PROFILES[key]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise KeyError(f"unknown host profile {key!r}; known: {known}") from None
