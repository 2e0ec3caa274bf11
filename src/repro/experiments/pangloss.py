"""The Pangloss-Lite experiment — Figures 8 and 9 (§4.3).

Three scenarios on the ThinkPad testbed, probed with five sentences of
increasing length:

``baseline``   unloaded, wall power, knowledge bases cached everywhere.
``filecache``  the 12 MB EBMT corpus evicted from server B's cache.
``cpu``        the file-cache scenario plus two CPU-intensive processes
               on server A.

Pangloss has ~90 alternatives per decision, so unlike the speech/Latex
experiments each (scenario, sentence) cell runs on **one** deep copy of
the trained world: Spectra's own choice is probed first, then every
alternative is measured forced, with the scenario's cache state
*restored* after each measurement (running an alternative that reads
the evicted corpus would otherwise warm B's cache and corrupt the
remaining measurements).

Reported per cell, as in the paper: the percentile of Spectra's choice
among all alternatives ranked by achieved utility (Fig. 8; 99 = best),
and the ratio of Spectra's achieved utility to a zero-overhead oracle's
(Fig. 9).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..apps import ENGINE_FILES, PanglossApplication, SentenceWorkload
from ..scenarios import (
    AppSpec,
    CompiledScenario,
    compile_scenario,
    thinkpad_testbed,
)
from .runner import (
    AltMeasurement,
    ScenarioResult,
    SpectraMeasurement,
    clone_world,
)

SCENARIOS = ("baseline", "filecache", "cpu")

EBMT_CORPUS = ENGINE_FILES["ebmt"][0]


World = Tuple[CompiledScenario, PanglossApplication]


def _build(scenario: str, solver=None) -> World:
    """Fresh trained world with the scenario applied."""
    world, app = _train(solver=solver)
    _apply_scenario(world, scenario)
    return world, app


def _train(solver=None) -> World:
    """Fresh world (knowledge bases installed, caches warm) with models
    trained."""
    world = compile_scenario(thinkpad_testbed(AppSpec(kind="pangloss")),
                             solver=solver)
    app = world.clients[0].app

    # Training: the paper's 129 sentences, forced round-robin over the
    # whole alternative space so every (plan × fidelity) bin trains.
    alternatives = app.spec.alternatives(["server-a", "server-b"])
    for i, words in enumerate(SentenceWorkload().training(129)):
        forced = alternatives[i % len(alternatives)]
        world.sim.run_process(app.translate(words, force=forced))

    world.sim.advance(30.0)
    world.poll()
    return world, app


def _evict_corpus(world: CompiledScenario) -> None:
    coda_b = world.nodes["server-b"].coda
    if coda_b.is_cached(EBMT_CORPUS):
        coda_b.flush(EBMT_CORPUS)


def _apply_scenario(world: CompiledScenario, scenario: str) -> None:
    if scenario == "baseline":
        return
    if scenario in ("filecache", "cpu"):
        _evict_corpus(world)
        if scenario == "cpu":
            # Two competing CPU-intensive processes on server A.
            world.nodes["server-a"].host.start_background_load(2)
            world.sim.advance(10.0)
        world.poll()
        return
    raise ValueError(f"unknown pangloss scenario {scenario!r}")


def _restore_scenario(world: CompiledScenario, scenario: str) -> None:
    """Re-establish the scenario invariants a measurement may have broken."""
    if scenario in ("filecache", "cpu"):
        _evict_corpus(world)
        world.poll()


def run_pangloss_cell(scenario: str, words: int,
                      solver=None) -> ScenarioResult:
    """One (scenario, sentence) cell: Spectra's pick + the full sweep."""
    return _measure_cell(_train(solver=solver), scenario, words, solver)


def _measure_cell(trained: World, scenario: str, words: int,
                  solver) -> ScenarioResult:
    world, app = clone_world(trained, shared=(solver,))
    _apply_scenario(world, scenario)
    host = world.nodes["560x"].host

    # Spectra's own decision first, at exactly the trained state.
    e0 = host.energy_consumed_joules()
    report = world.sim.run_process(app.translate(words))
    spectra = SpectraMeasurement(
        choice=report.alternative,
        time_s=report.elapsed_s,
        energy_j=host.energy_consumed_joules() - e0,
        prediction=report.prediction,
    )
    _restore_scenario(world, scenario)

    measurements: List[AltMeasurement] = []
    for alternative in app.spec.alternatives(["server-a", "server-b"]):
        e0 = host.energy_consumed_joules()
        try:
            forced_report = world.sim.run_process(
                app.translate(words, force=alternative)
            )
        except Exception:
            measurements.append(AltMeasurement(
                alternative=alternative, time_s=float("inf"),
                energy_j=float("inf"), feasible=False,
            ))
            _restore_scenario(world, scenario)
            continue
        measurements.append(AltMeasurement(
            alternative=alternative,
            time_s=forced_report.elapsed_s,
            energy_j=host.energy_consumed_joules() - e0,
        ))
        _restore_scenario(world, scenario)

    return ScenarioResult(
        scenario=scenario,
        measurements=measurements,
        spectra=spectra,
        energy_importance=0.0,
        meta={"words": words},
    )


def run_pangloss_experiment(scenarios=SCENARIOS,
                            sentences: Optional[List[int]] = None,
                            solver=None
                            ) -> Dict[Tuple[str, int], ScenarioResult]:
    """The full Figure 8/9 sweep: scenario × probe sentence, from one
    trained world."""
    if sentences is None:
        sentences = SentenceWorkload().probes()
    trained = _train(solver=solver)
    return {
        (scenario, words): _measure_cell(trained, scenario, words, solver)
        for scenario in scenarios
        for words in sentences
    }
