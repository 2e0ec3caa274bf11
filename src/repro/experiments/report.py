"""Plain-text rendering of experiment results.

The benchmarks print these tables so a run of
``pytest benchmarks/ --benchmark-only`` regenerates, in text form, every
figure and table of the paper's evaluation section.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from ..core import OperationSpec
from .overhead import OverheadRow
from .runner import ScenarioResult


def _fmt(value: float, unit: str) -> str:
    if math.isinf(value):
        return "   n/a"
    return f"{value:6.2f}{unit}"


def render_bar_figure(title: str, spec: OperationSpec,
                      results: "Dict[str, ScenarioResult] | Sequence[Tuple[str, ScenarioResult]]",
                      metric: str = "time") -> str:
    """Figures 3–7: per-scenario bars for every alternative + Spectra.

    ``metric`` is ``"time"`` (seconds) or ``"energy"`` (joules).
    The Spectra row is marked ``S->`` on the alternative it picked.
    """
    if isinstance(results, dict):
        items = list(results.items())
    else:
        items = list(results)
    lines = [title, "=" * len(title)]
    for scenario, result in items:
        lines.append(f"\n[{scenario}]"
                     + (f"  (c={result.energy_importance})"
                        if result.energy_importance else ""))
        for m in result.measurements:
            value = m.time_s if metric == "time" else m.energy_j
            unit = "s" if metric == "time" else "J"
            marker = "S->" if m.alternative == result.spectra.choice else "   "
            lines.append(f"  {marker} {m.label:42s} {_fmt(value, unit)}")
        spectra_value = (result.spectra.time_s if metric == "time"
                         else result.spectra.energy_j)
        unit = "s" if metric == "time" else "J"
        lines.append(f"      {'Spectra (choice incl. overhead)':42s} "
                     f"{_fmt(spectra_value, unit)}")
        lines.append(f"      best={result.best_label(spec)}  "
                     f"percentile={result.percentile(spec):.0f}  "
                     f"relative-utility={result.relative_utility(spec):.3f}")
    return "\n".join(lines)


def render_rank_figure(title: str, spec: OperationSpec,
                       results: Dict[Tuple[str, int], ScenarioResult]
                       ) -> str:
    """Figures 8 and 9: percentile + relative utility per cell."""
    lines = [title, "=" * len(title),
             f"{'scenario':12s} {'sentence':>8s} {'percentile':>10s} "
             f"{'rel.utility':>11s}  choice"]
    rels = []
    for (scenario, words), result in results.items():
        pct = result.percentile(spec)
        rel = result.relative_utility(spec)
        rels.append(rel)
        lines.append(f"{scenario:12s} {words:8d} {pct:10.0f} {rel:11.3f}  "
                     f"{result.spectra.label}")
    if rels:
        lines.append(f"\naverage relative utility: {sum(rels)/len(rels):.3f} "
                     f"(paper: ~0.91)")
    return "\n".join(lines)


def render_overhead_table(title: str, rows: List[OverheadRow],
                          full_cache_ms: float = None) -> str:
    """Figure 10: the overhead breakdown table, milliseconds."""
    lines = [title, "=" * len(title)]
    keys = list(rows[0].as_millis().keys())
    header = f"{'activity':28s}" + "".join(
        f"{f'{r.n_servers} server' + ('s' if r.n_servers != 1 else ''):>12s}"
        for r in rows
    )
    lines.append(header)
    for key in keys:
        lines.append(f"{key:28s}" + "".join(
            f"{r.as_millis()[key]:12.1f}" for r in rows
        ))
    lines.append("(paper totals: 18.4 / 21.4 / 74.0 ms for 0 / 1 / 5 servers)")
    if full_cache_ms is not None:
        lines.append(f"file-cache prediction with a full cache: "
                     f"{full_cache_ms:.1f} ms (paper: 359.6 ms)")
    return "\n".join(lines)
