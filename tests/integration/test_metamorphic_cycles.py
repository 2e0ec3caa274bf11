"""Doubling every cycle rate and every cycle demand changes nothing.

Placement decisions depend only on *relative* cycle rates and power
draws (paper §2).  So a world whose hosts all run twice as many cycles
a second, with every cycle demand doubled too, must run each operation
for the same time: the same decisions, latencies, energies, byte counts,
counters and fault journal.  The demands are the applications' cost
models (speech, Latex, Pangloss; the null operation computes nothing),
Spectra's own decision overhead (:class:`~repro.core.overhead.
OverheadModel`, on clients and servers) and background load, whose
chunks are sized from the CPU's rate and so double with it.  Scaling by
two is exact in binary floating point, so every canned scenario's
smoke report must stay byte-identical.  The transform is seen to reach
every operation: each measured ``cpu:*`` usage doubles, exactly, and
every other usage keeps its value.
"""

import dataclasses

import pytest

from repro.apps import latex, pangloss, speech
from repro.core import client, overhead, server
from repro.hosts import get_profile
from repro.scenarios import SCENARIOS, canned_spec, compiler, run_scenario

#: cost model -> its fields that count cycles
CYCLE_FIELDS = {
    speech.SpeechModel: ("frontend_cycles_per_s", "recognize_cycles_per_s"),
    latex.LatexModel: ("base_cycles", "cycles_per_page"),
    pangloss.PanglossModel: tuple(
        f"{component}_{part}"
        for component in ("ebmt", "glossary", "dictionary", "lm")
        for part in ("base", "per_word")),
    overhead.OverheadModel: tuple(
        field.name for field in dataclasses.fields(overhead.OverheadModel)),
}

#: where each cost model's default is built: (module, name)
BUILT_IN = (
    (speech, "SpeechModel"),
    (latex, "LatexModel"),
    (pangloss, "PanglossModel"),
    (client, "OverheadModel"),
    (server, "OverheadModel"),
)


def doubled_profile(key):
    profile = get_profile(key)
    return profile.with_overrides(
        cycles_per_second=2 * profile.cycles_per_second)


def doubled_model(cls):
    def build():
        model = cls()
        return dataclasses.replace(model, **{
            name: 2 * getattr(model, name) for name in CYCLE_FIELDS[cls]})
    return build


def test_every_cycle_field_is_a_float():
    for cls, names in CYCLE_FIELDS.items():
        model = cls()
        assert all(type(getattr(model, name)) is float for name in names)
    assert all(name.endswith("_cycles")
               for name in CYCLE_FIELDS[overhead.OverheadModel])


def run_with_usage(name):
    usages = []
    report = run_scenario(canned_spec(name), profile="smoke",
                          on_op=lambda op: usages.append(op.usage))
    return report, usages


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_doubled_cycles_keep_every_report_byte(name, monkeypatch):
    plain, plain_usages = run_with_usage(name)
    monkeypatch.setattr(compiler, "get_profile", doubled_profile)
    for module, attribute in BUILT_IN:
        monkeypatch.setattr(module, attribute,
                            doubled_model(getattr(module, attribute)))
    doubled, doubled_usages = run_with_usage(name)

    assert doubled.to_json() == plain.to_json()
    assert doubled.energy_j == plain.energy_j
    assert all(op.completed for op in plain.ops)
    assert any(value > 0 for usage in plain_usages
               for key, value in usage.items() if key.startswith("cpu:"))
    assert doubled_usages == [
        {key: 2 * value if key.startswith("cpu:") else value
         for key, value in usage.items()}
        for usage in plain_usages]
