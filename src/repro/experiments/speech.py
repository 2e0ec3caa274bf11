"""The speech recognition experiment — Figures 3 and 4 (§4.1).

Five scenarios on the Itsy/T20 testbed:

``baseline``   both machines unloaded, wall power, caches warm.
``energy``     client battery-powered with an ambitious lifetime goal
               (energy importance c pinned; see EXPERIMENTS.md).
``network``    serial-link bandwidth halved.
``cpu``        CPU-intensive background job on the client.
``filecache``  Spectra server partitioned away (file servers stay
               reachable) and the 277 KB full-vocabulary language model
               flushed from the client's cache.

The testbed is trained once.  For every scenario the harness then
measures all six alternatives (3 plans × 2 vocabularies) by forcing
each on its own deep copy of the trained testbed with the scenario
applied (so a measurement cannot perturb the next one's cache or model
state), then lets Spectra choose on another copy — the "S"-labelled bar
plus the final "Spectra" bar of Figure 3.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..apps import (
    FULL_LM_BYTES,
    FULL_LM_PATH,
    JanusService,
    REDUCED_LM_BYTES,
    REDUCED_LM_PATH,
    SpeechApplication,
    SpeechWorkload,
)
from ..testbeds import ItsyTestbed
from .runner import (
    AltMeasurement,
    ScenarioResult,
    SpectraMeasurement,
    clone_world,
)

SCENARIOS = ("baseline", "energy", "network", "cpu", "filecache")

#: Pinned energy importance for the energy scenario.  The paper drives c
#: with goal-directed adaptation toward a 10-hour goal; we pin a
#: mid-range value for determinism (the controller itself is validated
#: in tests/unit/test_goal.py).
ENERGY_SCENARIO_C = 0.15


World = Tuple[ItsyTestbed, SpeechApplication]


def _build(scenario: str, solver=None, telemetry=None) -> World:
    """Fresh trained testbed with the scenario applied."""
    bed, app = _train(solver=solver, telemetry=telemetry)
    _apply_scenario(bed, scenario)
    return bed, app


def _train(solver=None, telemetry=None) -> World:
    """Fresh testbed with files installed, caches warm, and models trained."""
    bed = ItsyTestbed(solver=solver, telemetry=telemetry)
    fs = bed.fileserver
    fs.create_file(FULL_LM_PATH, FULL_LM_BYTES)
    fs.create_file(REDUCED_LM_PATH, REDUCED_LM_BYTES)
    for coda in (bed.itsy.coda, bed.t20.coda):
        coda.warm(FULL_LM_PATH)
        coda.warm(REDUCED_LM_PATH)

    service = JanusService()
    bed.itsy.register_service(service)
    bed.t20.register_service(JanusService())

    bed.poll()
    app = SpeechApplication(bed.client)
    bed.sim.run_process(app.register())

    # Training: 15 utterances, forced round-robin over all alternatives
    # so every (plan × vocabulary) bin gathers samples (§4.1: "We first
    # recognized 15 phrases so that Spectra could learn the
    # application's resource requirements").
    alternatives = app.spec.alternatives(["t20"])
    for i, length in enumerate(SpeechWorkload().training(15)):
        forced = alternatives[i % len(alternatives)]
        bed.sim.run_process(app.recognize(length, force=forced))

    # Let transient load estimates decay and refresh server status
    # before the scenario starts (the paper's phases were minutes
    # apart in wall-clock time).
    bed.sim.advance(30.0)
    bed.poll()
    return bed, app


def _apply_scenario(bed: ItsyTestbed, scenario: str) -> None:
    if scenario == "baseline":
        pass
    elif scenario == "energy":
        bed.set_energy_importance(ENERGY_SCENARIO_C)
    elif scenario == "network":
        bed.halve_bandwidth()
        # Post-change traffic lets the passive network monitor observe
        # the new bandwidth (the periodic polls in a live deployment).
        for _ in range(3):
            bed.poll()
    elif scenario == "cpu":
        bed.load_client_cpu(nprocesses=4)
        # Let the load register in the smoothed estimate.
        bed.sim.advance(10.0)
        bed.poll()
    elif scenario == "filecache":
        bed.client.coda.flush(FULL_LM_PATH)
        bed.partition_spectra_server()
        bed.poll()  # the failed poll marks the server unreachable
    else:
        raise ValueError(f"unknown speech scenario {scenario!r}")


def scenario_energy_importance(scenario: str) -> float:
    return ENERGY_SCENARIO_C if scenario == "energy" else 0.0


def _scenario_clone(trained: World, scenario: str, solver) -> World:
    bed, app = clone_world(trained, shared=(solver,))
    _apply_scenario(bed, scenario)
    return bed, app


def _measure_forced(trained: World, scenario: str, alternative,
                    probe_length_s: float, solver) -> AltMeasurement:
    bed, app = _scenario_clone(trained, scenario, solver)
    e0 = bed.itsy.host.energy_consumed_joules()
    try:
        report = bed.sim.run_process(
            app.recognize(probe_length_s, force=alternative)
        )
    except Exception:
        return AltMeasurement(
            alternative=alternative, time_s=float("inf"),
            energy_j=float("inf"), feasible=False,
        )
    return AltMeasurement(
        alternative=alternative,
        time_s=report.elapsed_s,
        energy_j=bed.itsy.host.energy_consumed_joules() - e0,
    )


def _measure_spectra(trained: World, scenario: str, probe_length_s: float,
                     solver) -> SpectraMeasurement:
    bed, app = _scenario_clone(trained, scenario, solver)
    e0 = bed.itsy.host.energy_consumed_joules()
    report = bed.sim.run_process(app.recognize(probe_length_s))
    return SpectraMeasurement(
        choice=report.alternative,
        time_s=report.elapsed_s,
        energy_j=bed.itsy.host.energy_consumed_joules() - e0,
        prediction=report.prediction,
    )


def _measure_scenario(trained: World, scenario: str,
                      probe_length_s: Optional[float],
                      solver) -> ScenarioResult:
    if probe_length_s is None:
        probe_length_s = SpeechWorkload().probes(1)[0]

    # Which alternatives exist depends on the scenario (no server in the
    # file-cache partition), but we measure all six and mark infeasible.
    measurements = [
        _measure_forced(trained, scenario, alternative, probe_length_s,
                        solver)
        for alternative in trained[1].spec.alternatives(["t20"])
    ]
    return ScenarioResult(
        scenario=scenario,
        measurements=measurements,
        spectra=_measure_spectra(trained, scenario, probe_length_s, solver),
        energy_importance=scenario_energy_importance(scenario),
        meta={"probe_length_s": probe_length_s},
    )


def run_speech_scenario(scenario: str,
                        probe_length_s: Optional[float] = None,
                        solver=None) -> ScenarioResult:
    """Measure all alternatives + Spectra's choice for one scenario."""
    return _measure_scenario(_train(solver=solver), scenario,
                             probe_length_s, solver)


def run_speech_experiment(scenarios=SCENARIOS, solver=None
                          ) -> Dict[str, ScenarioResult]:
    """The full Figure 3/4 sweep, from one trained testbed."""
    trained = _train(solver=solver)
    return {s: _measure_scenario(trained, s, None, solver)
            for s in scenarios}
