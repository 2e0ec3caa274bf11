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
from ..scenarios import AppSpec, CompiledScenario, thinkpad_testbed
from .runner import (
    ScenarioResult,
    clone_world,
    measure_cells,
    measure_forced,
    measure_spectra,
    train_world,
)

SCENARIOS = ("baseline", "filecache", "cpu")

EBMT_CORPUS = ENGINE_FILES["ebmt"][0]


World = Tuple[CompiledScenario, PanglossApplication]


def _train(solver=None) -> World:
    """Fresh world (knowledge bases installed, caches warm) with models
    trained on the paper's 129 sentences."""
    world = train_world(thinkpad_testbed(AppSpec(kind="pangloss")),
                        SentenceWorkload().training(129),
                        PanglossApplication.translate, solver=solver)
    return world, world.clients[0].app


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


def _measure_cell(trained: World, scenario: str,
                  words: int) -> ScenarioResult:
    world, app = clone_world(trained)
    _apply_scenario(world, scenario)

    def op(force):
        return app.translate(words, force=force)

    # Spectra's own decision first, at exactly the trained state.
    spectra = measure_spectra(world, "560x", op)
    _restore_scenario(world, scenario)
    measurements = []
    for alternative in app.spec.alternatives(["server-a", "server-b"]):
        measurements.append(measure_forced(world, "560x", op, alternative))
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
    cells = [(scenario, words) for scenario in scenarios
             for words in sentences]
    return measure_cells(_train(solver=solver), cells, _measure_cell)
