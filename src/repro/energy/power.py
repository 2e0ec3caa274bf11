"""Power modelling: component-based draw integration.

A machine's instantaneous power draw is modelled as a sum of named
components (``idle``, ``cpu``, ``net_tx``, ``net_rx``...).  Components are
set by the subsystems that own them — the CPU sets ``cpu`` to its active
draw while busy, the network interface sets ``net_tx`` during
transmission.  The :class:`PowerMeter` integrates total draw over
simulated time, producing the cumulative energy figure that batteries
drain against and that the paper measured with SmartBattery/ACPI readouts
or a digital multimeter.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..sim import Simulator


class PowerMeter:
    """Integrates piecewise-constant power draw into cumulative energy.

    Every call to :meth:`set_component` first *settles* — accrues energy
    for the elapsed interval at the old total draw — then applies the new
    component value.  Reads (:meth:`energy_consumed_joules`) also settle,
    so the meter is exact at any instant despite being event-driven.
    """

    def __init__(self, sim: Simulator, name: str = "meter"):
        self._sim = sim
        self.name = name
        self._components: Dict[str, float] = {}
        self._energy_joules = 0.0
        self._last_settle = sim.now
        self._listeners: List[Callable[[float, float], None]] = []

    # -- component management -----------------------------------------------------

    def set_component(self, component: str, watts: float) -> None:
        """Set a named draw component to *watts* (>= 0) from now on."""
        if watts < 0:
            raise ValueError(f"negative power for {component!r}: {watts}")
        if self._sim.now > self._last_settle:  # else _settle is a no-op
            self._settle()
        if watts <= 0.0:
            self._components.pop(component, None)
        else:
            self._components[component] = watts

    def component(self, component: str) -> float:
        """Current draw of one named component (0 if unset)."""
        return self._components.get(component, 0.0)

    # -- readouts -------------------------------------------------------------------

    @property
    def power_watts(self) -> float:
        """Instantaneous total draw."""
        return sum(self._components.values())

    def energy_consumed_joules(self) -> float:
        """Cumulative energy drawn since meter creation."""
        self._settle()
        return self._energy_joules

    def add_listener(self, listener: Callable[[float, float], None]) -> None:
        """Register ``listener(joules_delta, now)`` called at each settle.

        Batteries subscribe here to drain in lockstep with consumption.
        """
        self._listeners.append(listener)

    # -- internals --------------------------------------------------------------------

    def _settle(self) -> None:
        now = self._sim.now
        elapsed = now - self._last_settle
        if elapsed <= 0:
            return
        delta = sum(self._components.values()) * elapsed  # = power_watts
        self._energy_joules += delta
        self._last_settle = now
        if delta > 0:
            for listener in self._listeners:
                listener(delta, now)


class EnergyInterval:
    """Convenience for before/after energy measurements.

    Mirrors how the paper instruments operations: read the meter at
    ``begin_fidelity_op``, read again at ``end_fidelity_op``, report the
    difference.
    """

    def __init__(self, meter: PowerMeter):
        self._meter = meter
        self._start: Optional[float] = None

    def start(self) -> None:
        self._start = self._meter.energy_consumed_joules()

    def stop(self) -> float:
        """Joules consumed since :meth:`start`."""
        if self._start is None:
            raise RuntimeError("EnergyInterval.stop() before start()")
        joules = self._meter.energy_consumed_joules() - self._start
        self._start = None
        return joules
