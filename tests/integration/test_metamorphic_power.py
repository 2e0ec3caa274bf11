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
"""

import pytest

from repro.hosts import get_profile
from repro.scenarios import SCENARIOS, canned_spec, compiler, run_scenario

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
