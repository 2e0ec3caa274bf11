"""The Latex experiment — Figures 5, 6, and 7 (§4.2).

Four scenarios on the 560X / server-A / server-B testbed, for a 14-page
and a 123-page document:

``baseline``     everything unloaded and wall-powered; input files
                 cached on every machine → CPU speed decides (B wins).
``filecache``    server B's Coda cache holds none of the input files →
                 B pays fetches from the file server; A wins.
``reintegrate``  the client is weakly connected and has edited the small
                 document's 70 KB main input (earlier local runs also
                 left dirty outputs in that volume).  Remote execution
                 must first reintegrate the volume over the wireless
                 network → local wins for the small document; the large
                 document's volume is clean, so B still wins there.
``energy``       the reintegrate scenario on battery power with a very
                 aggressive lifetime goal → B wins even for the small
                 document, because it uses slightly less client energy
                 despite taking longer.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..apps import (
    LARGE_DOCUMENT,
    SMALL_DOCUMENT,
    LatexApplication,
    LatexWorkload,
)
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

SCENARIOS = ("baseline", "filecache", "reintegrate", "energy")
DOCUMENTS = {"small": SMALL_DOCUMENT, "large": LARGE_DOCUMENT}

#: Pinned energy importance for the energy scenario ("a very aggressive
#: goal for battery lifetime is specified").
ENERGY_SCENARIO_C = 0.6

#: The edited input's new size in the reintegrate scenario (the paper's
#: "70 KB input file ... is modified").
MODIFIED_INPUT_BYTES = 70 * 1024


#: The Latex app of the ThinkPad world, documents in :data:`DOCUMENTS`
#: order.
LATEX_APP = AppSpec(kind="latex", options={"documents": list(DOCUMENTS)})


World = Tuple[CompiledScenario, LatexApplication]


def _build(scenario: str, solver=None, telemetry=None) -> World:
    """Fresh trained world with the scenario applied."""
    world, app = _train(solver=solver, telemetry=telemetry)
    _apply_scenario(world, app, scenario)
    return world, app


def _train(solver=None, telemetry=None) -> World:
    """Fresh world (documents installed, caches warm) with models
    trained."""
    world = compile_scenario(thinkpad_testbed(LATEX_APP),
                             telemetry=telemetry, solver=solver)
    app = world.clients[0].app

    # Training: 20 runs alternating documents, forced round-robin over
    # the three placements so every bin and both data-specific models
    # gather samples ("We first executed Latex 20 times...").
    placements = app.spec.alternatives(["server-a", "server-b"])
    for i, doc_name in enumerate(LatexWorkload().training(20)):
        forced = placements[i % len(placements)]
        world.sim.run_process(app.format(doc_name, force=forced))
    # Training runs at baseline connectivity: any outputs written remain
    # reintegrated (strong consistency), so the CML starts clean.

    # Let transient load estimates decay and refresh server status
    # before the scenario starts (the paper's phases were minutes
    # apart in wall-clock time).
    world.sim.advance(30.0)
    world.poll()
    return world, app


def _apply_scenario(world: CompiledScenario, app: LatexApplication,
                    scenario: str) -> None:
    if scenario == "baseline":
        return
    if scenario == "filecache":
        # Server B loses every input file of both documents.
        coda_b = world.nodes["server-b"].coda
        for doc in DOCUMENTS.values():
            for path, _size in doc.input_paths():
                if coda_b.is_cached(path):
                    coda_b.flush(path)
        world.poll()  # the client's proxy must see B's cold cache
        return
    if scenario in ("reintegrate", "energy"):
        client = world.nodes["560x"]
        # Weak connectivity: stores now buffer in the CML.
        client.coda.weakly_connected = True
        # Earlier local runs left dirty outputs in the small volume...
        local = next(a for a in app.spec.alternatives([])
                     if a.plan.name == "local")
        world.sim.run_process(app.format("small", force=local))
        # ...and the user edits the 70 KB top-level input.
        world.sim.run_process(
            client.coda.modify(SMALL_DOCUMENT.main_input,
                               MODIFIED_INPUT_BYTES)
        )
        if scenario == "energy":
            client.host.goal_adaptation.set_importance(ENERGY_SCENARIO_C)
        world.poll()
        return
    raise ValueError(f"unknown latex scenario {scenario!r}")


def scenario_energy_importance(scenario: str) -> float:
    return ENERGY_SCENARIO_C if scenario == "energy" else 0.0


def _scenario_clone(trained: World, scenario: str, solver) -> World:
    world, app = clone_world(trained, shared=(solver,))
    _apply_scenario(world, app, scenario)
    return world, app


def _measure_forced(trained: World, scenario: str, document: str,
                    alternative, solver) -> AltMeasurement:
    world, app = _scenario_clone(trained, scenario, solver)
    host = world.nodes["560x"].host
    e0 = host.energy_consumed_joules()
    try:
        report = world.sim.run_process(app.format(document,
                                                  force=alternative))
    except Exception:
        return AltMeasurement(
            alternative=alternative, time_s=float("inf"),
            energy_j=float("inf"), feasible=False,
        )
    return AltMeasurement(
        alternative=alternative,
        time_s=report.elapsed_s,
        energy_j=host.energy_consumed_joules() - e0,
    )


def _measure_spectra(trained: World, scenario: str, document: str,
                     solver) -> SpectraMeasurement:
    world, app = _scenario_clone(trained, scenario, solver)
    host = world.nodes["560x"].host
    e0 = host.energy_consumed_joules()
    report = world.sim.run_process(app.format(document))
    return SpectraMeasurement(
        choice=report.alternative,
        time_s=report.elapsed_s,
        energy_j=host.energy_consumed_joules() - e0,
        prediction=report.prediction,
    )


def _measure_cell(trained: World, scenario: str, document: str,
                  solver) -> ScenarioResult:
    measurements = [
        _measure_forced(trained, scenario, document, alternative, solver)
        for alternative in trained[1].spec.alternatives(
            ["server-a", "server-b"]
        )
    ]
    return ScenarioResult(
        scenario=scenario,
        measurements=measurements,
        spectra=_measure_spectra(trained, scenario, document, solver),
        energy_importance=scenario_energy_importance(scenario),
        meta={"document": document},
    )


def run_latex_scenario(scenario: str, document: str,
                       solver=None) -> ScenarioResult:
    """Measure the three placements + Spectra's pick for one cell."""
    return _measure_cell(_train(solver=solver), scenario, document, solver)


def run_latex_experiment(scenarios=SCENARIOS, documents=("small", "large"),
                         solver=None) -> Dict[Tuple[str, str], ScenarioResult]:
    """The full Figure 5/6/7 sweep: scenario × document, from one
    trained world."""
    trained = _train(solver=solver)
    return {
        (scenario, document): _measure_cell(trained, scenario, document,
                                            solver)
        for scenario in scenarios
        for document in documents
    }
