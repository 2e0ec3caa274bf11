"""Shared fixtures for the Spectra reproduction test suite."""

import pytest

from repro import _fanout
from repro.sim import Simulator


@pytest.fixture
def sim():
    """A fresh simulator at t=0."""
    return Simulator()


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` makes :func:`repro._fanout.fan_out` see *n* available
    CPUs."""
    def set_cpus(count):
        monkeypatch.setattr(_fanout, "available_cpus", lambda: count)
    return set_cpus


def run(sim, generator, name="test"):
    """Run a process to completion and return its value."""
    return sim.run_process(generator, name=name)
