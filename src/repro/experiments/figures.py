"""The paper's Figures 3–10, each rendered once from its experiment's sweep.

:data:`FIGURES` gives each figure's title, experiment, cells and
renderer; ``repro figures`` and ``benchmarks/test_bench_fig*.py`` both
render through it.  Figures share sweeps, as in the paper (3–4 speech,
5–7 Latex, 8–9 Pangloss), so :func:`figure_text` keeps the last full
sweep in a one-slot memo, cleared before a different experiment runs:
a command trains each testbed once and holds one experiment's results
at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict

from ..apps import make_latex_spec, make_pangloss_spec, make_speech_spec
from .latex import DOCUMENTS, SCENARIOS as LATEX_SCENARIOS, run_latex_experiment
from .overhead import full_cache_prediction_ms, run_overhead_experiment
from .pangloss import run_pangloss_experiment
from .report import render_bar_figure, render_overhead_table, render_rank_figure
from .speech import run_speech_experiment

#: experiment -> its full sweep
EXPERIMENTS: Dict[str, Callable[[], Any]] = {
    "speech": run_speech_experiment,
    "latex": run_latex_experiment,
    "pangloss": run_pangloss_experiment,
    "overhead": lambda: (run_overhead_experiment(), full_cache_prediction_ms()),
}


@dataclass(frozen=True)
class Figure:
    """*select* picks the figure's cells from its experiment's results;
    ``render(title, cells)`` lays them out."""

    title: str
    experiment: str
    select: Callable[[Any], Any]
    render: Callable[[str, Any], str]


def _bars(make_spec, metric: str):
    return lambda title, cells: render_bar_figure(title, make_spec(), cells,
                                                  metric=metric)


def _ranks(title, cells):
    return render_rank_figure(title, make_pangloss_spec(), cells)


def _overhead(title, cells):
    rows, full_cache_ms = cells
    return render_overhead_table(title, rows, full_cache_ms=full_cache_ms)


def _document(document: str):
    return lambda results: {scenario: results[(scenario, document)]
                            for scenario in LATEX_SCENARIOS}


def _all(results):
    return results


FIGURES: Dict[str, Figure] = {
    "fig3": Figure("Figure 3: Speech recognition execution time (seconds)",
                   "speech", _all, _bars(make_speech_spec, "time")),
    "fig4": Figure("Figure 4: Speech recognition energy usage (joules, "
                   "energy scenario)", "speech",
                   lambda results: {"energy": results["energy"]},
                   _bars(make_speech_spec, "energy")),
    "fig5": Figure("Figure 5: Small document (14 pp) execution time "
                   "(seconds)", "latex", _document("small"),
                   _bars(make_latex_spec, "time")),
    "fig6": Figure("Figure 6: Large document (123 pp) execution time "
                   "(seconds)", "latex", _document("large"),
                   _bars(make_latex_spec, "time")),
    "fig7": Figure("Figure 7: Latex energy usage (joules, energy scenario)",
                   "latex",
                   lambda results: {f"energy/{document}":
                                    results[("energy", document)]
                                    for document in DOCUMENTS},
                   _bars(make_latex_spec, "energy")),
    "fig8": Figure("Figure 8: Accuracy for Pangloss-Lite (percentile of "
                   "best)", "pangloss", _all, _ranks),
    "fig9": Figure("Figure 9: Relative utility for Pangloss-Lite "
                   "(Spectra / zero-overhead oracle)", "pangloss", _all,
                   _ranks),
    "fig10": Figure("Figure 10: Spectra overhead (null operation), "
                    "milliseconds", "overhead", _all, _overhead),
}

#: the last full sweep run, keyed by its experiment; never more than one.
#: Module-level because callers render one figure per ``repro figures``
#: call (the benchmark does) and the sweep must outlive the call.
_last: Dict[str, Any] = {}


def render_figure(name: str, results) -> str:
    """Figure *name*'s text, drawn from its experiment's *results*."""
    figure = FIGURES[name]
    return figure.render(figure.title, figure.select(results))


def figure_text(name: str) -> str:
    """Figure *name*'s text, from the memoized sweep of its experiment."""
    experiment = FIGURES[name].experiment
    if experiment not in _last:
        _last.clear()
        _last[experiment] = EXPERIMENTS[experiment]()
    return render_figure(name, _last[experiment])
