"""The parallel-execution extension experiment (paper §4.3 future work).

"We plan to explore execution plans that support parallel execution.
For Pangloss-Lite, this would yield considerable benefit: the three
engines could be executed in parallel on different servers."

This experiment builds the configuration where that claim bites — two
*comparable* compute servers — and compares the best sequential plan
against the parallel-engines plan for the full-fidelity translation of
each probe sentence.  With the paper's original unequal servers
(933 vs 400 MHz) the parallel plan helps little, because an even split
is gated by the slow machine; the experiment reports both worlds
(:func:`~repro.scenarios.thinkpad_testbed` with and without ``twin``)
so the crossover is visible.

Each call trains one world and measures every sentence on a
:func:`~repro.experiments.runner.clone_world` copy of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..apps import PanglossApplication, SentenceWorkload
from ..scenarios import AppSpec, thinkpad_testbed
from .runner import clone_world, measure_cells, train_world


@dataclass
class ParallelCell:
    """Sequential-vs-parallel timings for one sentence length."""

    words: int
    sequential_s: float      # best sequential plan at full fidelity
    parallel_s: float        # parallel-engines plan at full fidelity
    spectra_choice: str      # what Spectra picks with both available
    spectra_s: float

    @property
    def speedup(self) -> float:
        return self.sequential_s / self.parallel_s


#: Pangloss with the parallel-engines plan on offer.
PARALLEL_APP = AppSpec(kind="pangloss", options={"parallel": True})


def _train(twin: bool, solver=None):
    """A trained ThinkPad world; ``twin`` gives server A B's hardware."""
    world = train_world(thinkpad_testbed(PARALLEL_APP, twin=twin),
                        SentenceWorkload().training(129),
                        PanglossApplication.translate, solver=solver)
    return world, world.clients[0].app


def _measure_cell(trained, words: int) -> ParallelCell:
    """Sequential vs parallel full-fidelity execution, on a clone of
    *trained*."""
    world, app = clone_world(trained)
    full = {"ebmt": "on", "glossary": "on", "dictionary": "on"}
    alternatives = [
        a for a in app.spec.alternatives(["server-a", "server-b"])
        if a.fidelity_dict() == full
    ]
    sequential = [a for a in alternatives
                  if a.plan.parallelism == 1 and a.plan.uses_remote]
    parallel = [a for a in alternatives if a.plan.parallelism > 1]

    seq_best = min(
        world.sim.run_process(app.translate(words, force=a)).elapsed_s
        for a in sequential
    )
    par_best = min(
        world.sim.run_process(app.translate(words, force=a)).elapsed_s
        for a in parallel
    )
    report = world.sim.run_process(app.translate(words))
    return ParallelCell(
        words=words,
        sequential_s=seq_best,
        parallel_s=par_best,
        spectra_choice=report.alternative.describe(),
        spectra_s=report.elapsed_s,
    )


def run_parallel_experiment(sentences=(8, 18, 27), twin: bool = True,
                            solver=None) -> List[ParallelCell]:
    """One cell per sentence, all from one trained world."""
    results = measure_cells(_train(twin, solver=solver),
                            [(words,) for words in sentences], _measure_cell)
    return [results[(words,)] for words in sentences]


def render_parallel_table(twin_cells: List[ParallelCell],
                          unequal_cells: List[ParallelCell]) -> str:
    title = ("Extension: parallel execution plans (Pangloss-Lite, "
             "full fidelity)")
    lines = [title, "=" * len(title)]
    for label, cells in (("twin 933 MHz servers", twin_cells),
                         ("original 933/400 MHz servers", unequal_cells)):
        lines.append(f"\n[{label}]")
        lines.append(f"{'words':>6s} {'sequential':>11s} {'parallel':>9s} "
                     f"{'speedup':>8s}  Spectra's pick")
        for cell in cells:
            lines.append(
                f"{cell.words:6d} {cell.sequential_s:10.2f}s "
                f"{cell.parallel_s:8.2f}s {cell.speedup:7.2f}x  "
                f"{cell.spectra_choice} ({cell.spectra_s:.2f}s)"
            )
    return "\n".join(lines)
