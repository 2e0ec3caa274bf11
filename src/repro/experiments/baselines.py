"""Policy comparison: Spectra vs the static and RPF baselines.

For each speech scenario, every policy picks an alternative (history-
based policies first observe the same training runs Spectra trained on),
the pick is executed for real, and its achieved utility is normalized
against the measured oracle.  This quantifies the paper's related-work
claims: static policies break whenever the environment moves away from
their assumption, and RPF — lacking per-resource monitors and fidelity —
cannot anticipate cache state, bandwidth changes, or quality trade-offs.

The speech testbed is trained once; every measurement and every
policy's pick runs on its own clone of it.
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
from .runner import best_measurement, clone_world, measure_forced, utility_of


@dataclass
class PolicyOutcome:
    """One policy's result in one scenario."""

    policy: str
    scenario: str
    choice: str
    time_s: float
    energy_j: float
    relative_utility: float


def _policy_choice_run(trained, policy: PlacementPolicy, scenario: str):
    """A clone of *trained* in *scenario*; feed the policy history;
    execute its choice."""
    world, app = clone_world(trained)
    speech_exp._apply_scenario(world, scenario)
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
    probe = SpeechWorkload().probes(1)[0]
    measured = measure_forced(
        world, "itsy", lambda force: app.recognize(probe, force=force), choice)
    return choice, measured.time_s, measured.energy_j


def run_policy_comparison(scenarios=speech_exp.SCENARIOS
                          ) -> List[PolicyOutcome]:
    """Spectra + four baselines across the speech scenarios."""
    spec = make_speech_spec()
    trained = speech_exp._train()
    outcomes: List[PolicyOutcome] = []
    for scenario in scenarios:
        c = speech_exp.scenario_energy_importance(scenario)
        result = speech_exp._measure_scenario(trained, scenario)
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
            choice, time_s, energy_j = _policy_choice_run(
                trained, policy, scenario)
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


def render_policy_table(outcomes: List[PolicyOutcome]) -> str:
    """Relative utility per scenario and policy, and each policy's mean."""
    means = summarize(outcomes)
    lines = ["Policy comparison (speech scenarios, relative utility "
             "vs oracle)", "=" * 64]
    lines.append(f"{'scenario':12s}" + "".join(
        f"{policy:>14s}" for policy in means))
    table = {(o.scenario, o.policy): o.relative_utility for o in outcomes}
    for scenario in sorted({o.scenario for o in outcomes}):
        lines.append(f"{scenario:12s}" + "".join(
            f"{table[(scenario, policy)]:14.3f}" for policy in means))
    lines.append(f"{'MEAN':12s}" + "".join(
        f"{mean:14.3f}" for mean in means.values()))
    return "\n".join(lines)
