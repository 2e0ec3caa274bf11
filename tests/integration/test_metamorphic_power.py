"""Doubling every power draw doubles every energy and changes nothing else.

Placement decisions depend only on *relative* cycle rates and power
draws (paper §2).  So a world whose hosts all draw twice the power, with
twice the battery capacity, must make every decision it made before:
the same latencies, byte counts, counters and fault journal, with every
energy exactly doubled.  Scaling by two is exact in binary floating
point, so each relation is checked bit for bit, on every canned
scenario at its smoke profile.  The relative cost of a fault
(``energy_degradation``) does not move.

The report rounds its energies to six decimals, and rounding does not
commute with doubling, so the energy checks read the raw per-client
joules (``ScenarioReport.energy_j``) and the rest of the report is
compared with its energy fields taken out.

The energy figures (4 and 7) hold the same relation: every measured and
predicted energy of their experiments' raw results doubles, and every
other field keeps its ``repr``.  Their cells run on forked workers, one
per available CPU, so those tests run at the machine's own CPU count
and check that the patched profiles reach the workers.
"""

import dataclasses
from collections.abc import Mapping

import pytest

from repro._fanout import fan_out
from repro.experiments import run_latex_experiment, run_speech_experiment
from repro.experiments.latex import LATEX_APP
from repro.hosts import get_profile
from repro.scenarios import (SCENARIOS, canned_spec, compiler, itsy_testbed,
                             run_scenario, thinkpad_testbed)

POWER_FIELDS = ("idle_power_watts", "cpu_active_power_watts",
                "net_tx_power_watts", "net_rx_power_watts",
                "battery_capacity_joules")


def doubled_profile(key):
    profile = get_profile(key)
    return profile.with_overrides(
        **{field: 2 * getattr(profile, field) for field in POWER_FIELDS})


def without_energy(data):
    """*data* with every ``energy_j`` field and ``energy_degradation``
    removed, at any depth."""
    if isinstance(data, dict):
        return {key: without_energy(value) for key, value in data.items()
                if key not in ("energy_j", "energy_degradation")}
    if isinstance(data, list):
        return [without_energy(value) for value in data]
    return data


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_doubled_power_doubles_every_energy(name, monkeypatch):
    plain = run_scenario(canned_spec(name), profile="smoke")
    monkeypatch.setattr(compiler, "get_profile", doubled_profile)
    doubled = run_scenario(canned_spec(name), profile="smoke")

    assert without_energy(doubled.to_dict()) == without_energy(
        plain.to_dict())
    pairs = [(plain, doubled)]
    if plain.baseline is not None:
        pairs.append((plain.baseline, doubled.baseline))
        assert (doubled.to_dict()["baseline"]["energy_degradation"]
                == plain.to_dict()["baseline"]["energy_degradation"])
    for before, after in pairs:
        assert sorted(after.energy_j) == sorted(before.energy_j)
        assert all(energy > 0 for energy in before.energy_j.values())
        assert {client: 2 * energy
                for client, energy in before.energy_j.items()} \
            == after.energy_j


#: figure -> (its experiment, restricted to the energy scenario the
#: figure shows, its testbed)
ENERGY_FIGURES = {
    "fig4": (lambda: run_speech_experiment(scenarios=("energy",)),
             itsy_testbed),
    "fig7": (lambda: run_latex_experiment(scenarios=("energy",)),
             lambda: thinkpad_testbed(LATEX_APP)),
}

#: the fields of a figure's results that hold joules: measured
#: (``energy_j``), predicted (``AlternativePrediction.energy_joules``)
#: and the predicted client energy demand behind the prediction
ENERGY_FIELDS = ("energy_j", "energy_joules", "energy:client")


def split_energy(data, path=""):
    """``(rest, energies)``: *data* as plain dicts and lists with every
    energy field taken out, and those fields' values keyed by path."""
    if dataclasses.is_dataclass(data) and not isinstance(data, type):
        data = {f.name: getattr(data, f.name)
                for f in dataclasses.fields(data)}
    energies = {}
    if isinstance(data, Mapping):
        rest = {}
        for key, value in data.items():
            if key in ENERGY_FIELDS:
                energies[f"{path}/{key}"] = value
            else:
                rest[key], found = split_energy(value, f"{path}/{key}")
                energies.update(found)
        return rest, energies
    if isinstance(data, (list, tuple)):
        rest = []
        for index, value in enumerate(data):
            kept, found = split_energy(value, f"{path}/{index}")
            rest.append(kept)
            energies.update(found)
        return rest, energies
    return data, energies


@pytest.mark.parametrize("figure", sorted(ENERGY_FIGURES))
def test_doubled_power_doubles_every_figure_energy(figure, monkeypatch):
    experiment, testbed = ENERGY_FIGURES[figure]
    plain, plain_energy = split_energy(
        {repr(cell): result for cell, result in experiment().items()})
    monkeypatch.setattr(compiler, "get_profile", doubled_profile)
    profiles = [host.profile for host in testbed().hosts]
    assert fan_out(compiler.get_profile, profiles) == [
        doubled_profile(key) for key in profiles]
    doubled, doubled_energy = split_energy(
        {repr(cell): result for cell, result in experiment().items()})

    assert repr(doubled) == repr(plain)
    assert sorted(doubled_energy) == sorted(plain_energy)
    assert all(energy > 0 for energy in plain_energy.values())
    assert {path: 2 * energy for path, energy in plain_energy.items()} \
        == doubled_energy
