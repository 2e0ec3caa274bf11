"""Policy comparison: Spectra vs the static and RPF baselines.

For each speech scenario, every policy picks an alternative (history-
based policies first observe the same training runs Spectra trained on),
the pick is executed for real, and its achieved utility is normalized
against the measured oracle.  This quantifies the paper's related-work
claims: static policies break whenever the environment moves away from
their assumption, and RPF — lacking per-resource monitors and fidelity —
cannot anticipate cache state, bandwidth changes, or quality trade-offs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from ..apps import SpeechWorkload, make_speech_spec
from ..baselines import (
    AlwaysLocalPolicy,
    AlwaysRemotePolicy,
    PlacementPolicy,
    RPFPolicy,
)
from . import speech as speech_exp
from .runner import best_measurement, utility_of


@dataclass
class PolicyOutcome:
    """One policy's result in one scenario."""

    policy: str
    scenario: str
    choice: str
    time_s: float
    energy_j: float
    relative_utility: float


def _policy_choice_run(policy: PlacementPolicy, scenario: str):
    """Fresh world; feed the policy history; execute its choice."""
    world, app = speech_exp._build(scenario)
    itsy = world.nodes["itsy"]
    alternatives = app.spec.alternatives(
        ["t20"] if itsy.client.known_servers() else []
    )
    # History-based policies see the same training regimen Spectra did:
    # the usage log holds time per (plan, fidelity); replay it.
    registered = itsy.client.operation(app.spec.name)
    by_context = {}
    for sample in registered.predictor.log:
        usage = sample.usage_dict()
        discrete = sample.discrete_dict()
        by_context.setdefault(
            (discrete.get("plan"), discrete.get("vocab")), []
        ).append((usage.get("time:total", 0.0),
                  usage.get("energy:client", 0.0)))
    for alternative in app.spec.alternatives(["t20"]):
        key = (alternative.plan.name, alternative.fidelity_dict()["vocab"])
        for time_s, energy_j in by_context.get(key, []):
            policy.observe(alternative, time_s, energy_j)

    choice = policy.choose(alternatives)
    e0 = itsy.host.energy_consumed_joules()
    probe = SpeechWorkload().probes(1)[0]
    try:
        report = world.sim.run_process(app.recognize(probe, force=choice))
        elapsed = report.elapsed_s
        energy = itsy.host.energy_consumed_joules() - e0
    except Exception:
        elapsed, energy = float("inf"), float("inf")
    return choice, elapsed, energy


def run_policy_comparison(scenarios=speech_exp.SCENARIOS
                          ) -> List[PolicyOutcome]:
    """Spectra + four baselines across the speech scenarios."""
    spec = make_speech_spec()
    outcomes: List[PolicyOutcome] = []
    for scenario in scenarios:
        c = speech_exp.scenario_energy_importance(scenario)
        result = speech_exp.run_speech_scenario(scenario)
        _best_m, oracle = best_measurement(spec, c, result.measurements)

        def relative(time_s, energy_j, alternative) -> float:
            if math.isinf(time_s):
                return 0.0
            achieved = utility_of(spec, c, time_s, energy_j, alternative)
            return achieved / oracle if oracle > 0 else 0.0

        outcomes.append(PolicyOutcome(
            policy="spectra", scenario=scenario,
            choice=result.spectra.label,
            time_s=result.spectra.time_s, energy_j=result.spectra.energy_j,
            relative_utility=relative(result.spectra.time_s,
                                      result.spectra.energy_j,
                                      result.spectra.choice),
        ))
        for policy in (AlwaysLocalPolicy(), AlwaysRemotePolicy(),
                       RPFPolicy()):
            choice, time_s, energy_j = _policy_choice_run(policy, scenario)
            outcomes.append(PolicyOutcome(
                policy=policy.name, scenario=scenario,
                choice=choice.describe(), time_s=time_s, energy_j=energy_j,
                relative_utility=relative(time_s, energy_j, choice),
            ))
        # Random policy: report its exact expectation (the mean relative
        # utility over all alternatives) rather than one lucky sample.
        rels = [relative(m.time_s, m.energy_j, m.alternative)
                for m in result.measurements]
        outcomes.append(PolicyOutcome(
            policy="random", scenario=scenario,
            choice="(uniform over alternatives)",
            time_s=float("nan"), energy_j=float("nan"),
            relative_utility=sum(rels) / len(rels),
        ))
    return outcomes


def summarize(outcomes: List[PolicyOutcome]) -> Dict[str, float]:
    """Mean relative utility per policy across scenarios."""
    totals: Dict[str, List[float]] = {}
    for outcome in outcomes:
        totals.setdefault(outcome.policy, []).append(
            outcome.relative_utility
        )
    return {policy: sum(vals) / len(vals)
            for policy, vals in sorted(totals.items())}
