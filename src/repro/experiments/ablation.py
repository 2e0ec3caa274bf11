"""Ablations of Spectra's design decisions (DESIGN.md §6).

Each ablation flips exactly one design choice and quantifies what the
paper's mechanism buys:

1. **Multiplicative vs additive utility** — energy-scenario decisions.
2. **Recency-weighted vs unweighted regression** — prediction error
   after the application's behaviour drifts.
3. **Data-specific vs generic models** — Latex time-prediction error
   per document.
4. **Hybrid plan availability** — achievable utility for speech without
   the hybrid partition.
5. **Heuristic vs exhaustive solver** — decision quality and cost.
6. **Likelihood-driven vs indiscriminate reintegration** — remote
   execution time for the clean large-document volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..apps import (
    LARGE_DOCUMENT,
    SpeechWorkload,
    make_speech_spec,
)
from ..core import AdditiveUtility
from ..solver import ExhaustiveSolver, HeuristicSolver
from . import latex as latex_exp
from . import pangloss as pangloss_exp
from . import speech as speech_exp
from .runner import best_measurement, score_measurement, utility_of


@dataclass
class AblationOutcome:
    """One ablation's paired result (paper design vs ablated design)."""

    name: str
    baseline_value: float
    ablated_value: float
    unit: str
    #: True when larger is better for this metric
    higher_is_better: bool = True

    @property
    def baseline_wins(self) -> bool:
        if self.higher_is_better:
            return self.baseline_value >= self.ablated_value
        return self.baseline_value <= self.ablated_value


def ablate_utility_form() -> AblationOutcome:
    """Multiplicative (paper) vs additive utility, speech energy scenario.

    Scored by relative utility against the measured oracle (using the
    paper's multiplicative definition as the judge for both, since it is
    the stated user-preference model).
    """
    spec = make_speech_spec()
    baseline = speech_exp.run_speech_scenario("energy")
    rel_mult = baseline.relative_utility(spec)

    world, app = speech_exp._build("energy")
    itsy = world.nodes["itsy"]
    itsy.client.utility_factory = (
        lambda s, c: AdditiveUtility(s, c, energy_weight=5.0)
    )
    e0 = itsy.host.energy_consumed_joules()
    probe = SpeechWorkload().probes(1)[0]
    report = world.sim.run_process(app.recognize(probe))
    achieved = utility_of(
        spec, speech_exp.ENERGY_SCENARIO_C, report.elapsed_s,
        itsy.host.energy_consumed_joules() - e0, report.alternative,
    )
    _best, oracle = best_measurement(
        spec, speech_exp.ENERGY_SCENARIO_C, baseline.measurements
    )
    rel_add = achieved / oracle if oracle > 0 else 0.0
    return AblationOutcome("utility-form (multiplicative vs additive)",
                           rel_mult, rel_add, "relative utility")


def ablate_recency_weighting() -> AblationOutcome:
    """Recency-weighted (paper) vs unweighted regression under drift.

    The recognizer's cycle cost doubles mid-stream (a model upgrade).
    Metric: mean absolute relative error of the local-plan time
    prediction over the post-drift operations — lower is better.
    """
    def run(decay: float) -> float:
        world, app = speech_exp._build("baseline")
        itsy = world.nodes["itsy"]
        client = itsy.client
        client.predictor_decay = decay
        # Re-register under the new decay: fresh models, same training.
        del client._operations[app.spec.name]
        app._registered = False
        world.sim.run_process(app.register())
        alternatives = app.spec.alternatives(["t20"])
        local_full = alternatives[0]
        for length in SpeechWorkload().training(10):
            world.sim.run_process(app.recognize(length, force=local_full))
        # Drift: recognition becomes 2x more expensive (a model upgrade).
        itsy.server._services["janus"].model = (
            app.model.__class__(recognize_cycles_per_s=1600e6)
        )
        errors = []
        for length in SpeechWorkload().probes(8):
            handle_box = {}

            def op():
                handle = yield from client.begin_fidelity_op(
                    app.spec.name,
                    params={"utterance_length": length},
                    force=local_full,
                )
                handle_box["h"] = handle
                yield from client.do_local_op(
                    handle, "janus", "full",
                    params={"utterance_length": length, "vocab": "full"},
                )
                return (yield from client.end_fidelity_op(handle))

            report = world.sim.run_process(op())
            prediction = handle_box["h"].prediction
            if prediction is not None and report.elapsed_s > 0:
                errors.append(
                    abs(prediction.total_time_s - report.elapsed_s)
                    / report.elapsed_s
                )
        return sum(errors) / len(errors)

    return AblationOutcome(
        "recency weighting (decay=0.95 vs 1.0) under drift",
        run(0.95), run(1.0), "mean abs rel prediction error",
        higher_is_better=False,
    )


def ablate_data_specific_models() -> AblationOutcome:
    """Per-document models (paper) vs generic-only, Latex.

    Three documents with different per-page complexity make the generic
    pages-only regression unable to fit all of them; the per-document
    models of §3.4 stay exact.  Metric: mean absolute relative error of
    the predicted local CPU demand (cycles) — lower is better.
    """
    from ..apps import (
        Document,
        LatexApplication,
        LatexService,
        install_document,
        warm_document,
    )
    from ..apps.latex import LARGE_DOCUMENT, SMALL_DOCUMENT
    from ..scenarios import compile_scenario, thinkpad_testbed

    medium = Document(
        name="medium",
        pages=45,
        inputs=(("main.tex", 150 * 1024), ("figures.eps", 700 * 1024)),
        dvi_bytes=300 * 1024,
        complexity=0.8,
    )
    documents = {"small": SMALL_DOCUMENT, "large": LARGE_DOCUMENT,
                 "medium": medium}

    def run(use_data_objects: bool) -> float:
        # The two-document Latex world, plus the medium document and a
        # service that knows all three.
        world = compile_scenario(thinkpad_testbed(latex_exp.LATEX_APP),
                                 register_apps=False)
        install_document(world.fileserver, medium)
        for node in world.nodes.values():
            warm_document(node.coda, medium, outputs=True)
            node.register_service(LatexService(documents))
        world.poll()
        client = world.nodes["560x"].client
        app = LatexApplication(client, documents,
                               use_data_objects=use_data_objects)
        world.sim.run_process(app.register())
        local = app.spec.alternatives([])[0]
        for _round in range(4):
            for name in ("small", "medium", "large"):
                world.sim.run_process(app.format(name, force=local))

        errors = []
        for name in ("small", "medium", "large"):
            handle_box = {}

            def probe():
                doc = app.documents[name]
                handle = yield from client.begin_fidelity_op(
                    app.spec.name, params={"pages": float(doc.pages)},
                    data_object=(doc.main_input if use_data_objects else None),
                    force=local,
                )
                handle_box["h"] = handle
                yield from client.do_local_op(
                    handle, "latex", "format", params={"document": name},
                )
                return (yield from client.end_fidelity_op(handle))

            report = world.sim.run_process(probe())
            predicted = handle_box["h"].prediction.demand.get("cpu:local", 0.0)
            measured = report.usage.get("cpu:local", 0.0)
            if measured > 0:
                errors.append(abs(predicted - measured) / measured)
        return sum(errors) / len(errors)

    return AblationOutcome(
        "data-specific models (on vs off), Latex CPU-demand error",
        run(True), run(False), "mean abs rel prediction error",
        higher_is_better=False,
    )


def ablate_hybrid_plan() -> AblationOutcome:
    """With vs without the hybrid plan, speech baseline.

    Metric: best achievable utility among the measured alternatives.
    """
    spec = make_speech_spec()
    result = speech_exp.run_speech_scenario("baseline")
    with_hybrid = max(
        score_measurement(spec, 0.0, m) for m in result.measurements
    )
    without = max(
        score_measurement(spec, 0.0, m) for m in result.measurements
        if m.alternative.plan.name != "hybrid"
    )
    return AblationOutcome("hybrid plan (available vs removed), speech",
                           with_hybrid, without, "best achievable utility")


def ablate_solver() -> Dict[str, float]:
    """Heuristic (paper) vs exhaustive solver on a Pangloss cell.

    Returns relative utility and percentile for both solvers; the
    heuristic should match the exhaustive search closely despite not
    enumerating the whole space.
    """
    from ..apps import make_pangloss_spec
    spec = make_pangloss_spec()
    out: Dict[str, float] = {}
    for label, solver in (("heuristic", HeuristicSolver()),
                          ("exhaustive", ExhaustiveSolver())):
        result = pangloss_exp.run_pangloss_cell("baseline", 10, solver=solver)
        out[f"{label}_relative_utility"] = result.relative_utility(spec)
        out[f"{label}_percentile"] = result.percentile(spec)
    return out


def ablate_reintegration_policy() -> AblationOutcome:
    """Likelihood-driven (paper) vs indiscriminate reintegration.

    The reintegrate scenario's *large* document: the dirty volume
    belongs to the small document, so the paper's policy skips
    reintegration entirely; the ablated policy flushes it anyway.
    Metric: Spectra's measured operation time — lower is better.
    """
    baseline = latex_exp.run_latex_scenario("reintegrate", "large")

    world, app = latex_exp._build("reintegrate")
    world.nodes["560x"].client.always_reintegrate = True
    report = world.sim.run_process(app.format("large"))
    ablated_time = report.elapsed_s

    return AblationOutcome(
        "reintegration (likelihood-driven vs always), large document",
        baseline.spectra.time_s, ablated_time, "operation time (s)",
        higher_is_better=False,
    )


def ablate_monitor_freshness() -> AblationOutcome:
    """Fresh vs stale remote-resource monitoring (paper §2.2).

    The Pangloss CPU scenario: server A gets loaded and the EBMT corpus
    leaves server B's cache.  With fresh monitoring the client re-polls
    and routes around both; with *stale* status (last polled before the
    changes) it walks into them.  Metric: Spectra's achieved relative
    utility — higher is better.
    """
    from ..apps import make_pangloss_spec
    from .runner import SpectraMeasurement

    spec = make_pangloss_spec()
    words = 10

    fresh = pangloss_exp.run_pangloss_cell("cpu", words)
    fresh_rel = fresh.relative_utility(spec)

    # Stale variant: identical world, but the scenario changes happen
    # AFTER the last poll and the client does not re-poll before the
    # probe (its proxies still describe the old world).
    world, app = pangloss_exp._build("baseline")
    pangloss_exp._evict_corpus(world)
    world.nodes["server-a"].host.start_background_load(2)
    world.sim.advance(10.0)  # the load persists; no poll happens
    host = world.nodes["560x"].host
    e0 = host.energy_consumed_joules()
    report = world.sim.run_process(app.translate(words))
    stale = SpectraMeasurement(
        choice=report.alternative,
        time_s=report.elapsed_s,
        energy_j=host.energy_consumed_joules() - e0,
    )
    # Score the stale run against the fresh run's measured oracle (the
    # two worlds are identical by construction).
    stale_rel = relative_utility_vs(spec, fresh, stale)

    return AblationOutcome(
        "monitor freshness (re-poll after change vs stale status)",
        fresh_rel, stale_rel, "relative utility",
    )


def relative_utility_vs(spec, scenario_result, spectra_measurement) -> float:
    """Score a measurement against another result's measured oracle."""
    from .runner import best_measurement as _best, utility_of as _u

    _m, oracle = _best(spec, scenario_result.energy_importance,
                       scenario_result.measurements)
    achieved = _u(spec, scenario_result.energy_importance,
                  spectra_measurement.time_s,
                  spectra_measurement.energy_j,
                  spectra_measurement.choice)
    return achieved / oracle if oracle > 0 else 0.0


def run_all_ablations() -> List[AblationOutcome]:
    """Every paired ablation (the solver comparison reports separately)."""
    return [
        ablate_utility_form(),
        ablate_recency_weighting(),
        ablate_data_specific_models(),
        ablate_hybrid_plan(),
        ablate_reintegration_policy(),
        ablate_monitor_freshness(),
    ]
