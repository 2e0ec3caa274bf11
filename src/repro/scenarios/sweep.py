"""Scenario sweeps: one spec, many seeds, every available CPU.

A single scenario run answers "what happens"; a *sweep* answers "how
much does it vary" — the same world re-run under ``--variants`` seeded
traffic realizations, fanned over forked workers, one per available
CPU (:func:`repro._fanout.fan_out`), merged into one deterministic JSON
document.

Determinism across CPU counts is the design constraint:

* variant seeds derive from the spec's seed via CRC32
  (:func:`~repro.scenarios.arrivals.derive_seed`), never from worker
  identity, wall clock, or ``PYTHONHASHSEED``;
* results come back in variant order, not completion order.

Hence one CPU and eight produce byte-identical merged reports, and a
sweep is exactly reproducible from its ``(scenario, seed, variants,
profile)`` header.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List, Optional, Tuple

from .._fanout import fan_out
from .arrivals import derive_seed
from .runner import run_scenario
from .spec import ScenarioSpec

SWEEP_SCHEMA = "spectra-sweep/1"


def variant_seeds(spec: ScenarioSpec, variants: int) -> List[int]:
    """The per-variant seeds: CRC32-derived, platform-stable.

    Variant 0 keeps the spec's own seed, so a sweep always contains the
    canonical single-run report; variants 1..N-1 derive fresh seeds.
    """
    if variants < 1:
        raise ValueError(f"variants must be >= 1: {variants}")
    return [spec.seed] + [
        derive_seed(spec.seed, "sweep", str(index))
        for index in range(1, variants)
    ]


def run_sweep(
    spec: ScenarioSpec,
    variants: int = 4,
    profile: str = "smoke",
    predictor_store: Optional[str] = None,
    save_predictors: bool = False,
) -> Dict[str, Any]:
    """Run *variants* seeded realizations of *spec* on every available CPU.

    Returns the merged ``spectra-sweep/1`` document.  The variants run
    through :func:`~repro._fanout.fan_out`: in-process on one CPU, on
    forked workers otherwise.

    ``predictor_store`` is a root directory; every variant gets its own
    ``variant-NNN`` scope under it, keyed by variant *index* — never by
    worker identity — so concurrent workers cannot race on documents
    and the CPU count does not change a byte.
    """
    if save_predictors and predictor_store is None:
        raise ValueError("save_predictors=True requires a predictor_store")
    seeds = variant_seeds(spec, variants)

    def run_variant(indexed: Tuple[int, int]) -> Dict[str, Any]:
        index, seed = indexed
        store = (None if predictor_store is None else
                 str(pathlib.Path(predictor_store) / f"variant-{index:03d}"))
        return run_scenario(spec, profile=profile, seed=seed,
                            predictor_store=store,
                            save_predictors=save_predictors).to_dict()

    ordered = list(zip(seeds, fan_out(run_variant, enumerate(seeds))))
    return {
        "schema": SWEEP_SCHEMA,
        "scenario": spec.name,
        "profile": profile,
        "base_seed": spec.seed,
        "variants": [
            {"index": index, "seed": seed, "report": report}
            for index, (seed, report) in enumerate(ordered)
        ],
        "summary": _summarize(ordered),
    }


def _summarize(ordered: List[Tuple[int, Dict[str, Any]]]) -> Dict[str, Any]:
    """Cross-variant aggregates: how stable is the scenario's outcome?"""
    means = [report["totals"]["latency"]["mean_s"]
             for _seed, report in ordered]
    energies = [report["totals"]["energy_j"] for _seed, report in ordered]
    completed = sum(report["totals"]["completed"]
                    for _seed, report in ordered)
    ops = sum(report["totals"]["ops"] for _seed, report in ordered)
    return {
        "variants": len(ordered),
        "ops": ops,
        "completed": completed,
        "latency_mean_s": {
            "min": round(min(means), 6),
            "max": round(max(means), 6),
            "mean": round(sum(means) / len(means), 6),
        },
        "energy_j": {
            "min": round(min(energies), 6),
            "max": round(max(energies), 6),
            "mean": round(sum(energies) / len(energies), 6),
        },
    }


def sweep_to_json(doc: Dict[str, Any]) -> str:
    """Canonical serialization: byte-identical for identical inputs."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
