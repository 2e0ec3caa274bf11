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
from ..scenarios import AppSpec, CompiledScenario, thinkpad_testbed
from .runner import (
    ScenarioResult,
    measure_cells,
    measure_on_clones,
    train_world,
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


def _train(solver=None, telemetry=None) -> World:
    """Fresh world (documents installed, caches warm) with models
    trained ("We first executed Latex 20 times..."): the runs alternate
    documents, so both data-specific models gather samples.  Training
    runs at baseline connectivity: any outputs written remain
    reintegrated (strong consistency), so the CML starts clean."""
    world = train_world(thinkpad_testbed(LATEX_APP),
                        LatexWorkload().training(20), LatexApplication.format,
                        solver=solver, telemetry=telemetry)
    return world, world.clients[0].app


def _apply_scenario(world: CompiledScenario, app: LatexApplication,
                    scenario: str) -> None:
    if scenario == "baseline":
        return
    if scenario == "filecache":
        # Server B loses every input file of both documents.
        coda_b = world.nodes["server-b"].coda
        for doc in DOCUMENTS.values():
            for path, _size in doc.input_paths:
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


def _measure_cell(trained: World, scenario: str,
                  document: str) -> ScenarioResult:
    return ScenarioResult(
        scenario, *measure_on_clones(
            trained, lambda world, app: _apply_scenario(world, app, scenario),
            "560x", LatexApplication.format, document),
        energy_importance=scenario_energy_importance(scenario),
        meta={"document": document},
    )


def run_latex_experiment(scenarios=SCENARIOS, documents=("small", "large"),
                         solver=None) -> Dict[Tuple[str, str], ScenarioResult]:
    """The full Figure 5/6/7 sweep: scenario × document, from one
    trained world."""
    cells = [(scenario, document) for scenario in scenarios
             for document in documents]
    return measure_cells(_train(solver=solver), cells, _measure_cell)
