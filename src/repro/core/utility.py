"""Utility functions: scoring execution alternatives (paper §3.6).

"The default utility function first predicts a context-independent value
for each metric: total execution time, total energy usage, and a vector
representing fidelity.  It then weights each value by its current
importance to the user and returns the product of the weighted values as
the utility of the alternative."

Concretely, for an alternative with predicted time ``T``, predicted
client energy ``E``, and fidelity point ``F``::

    utility = latency_desirability(T) * (1/E)**(k*c) * fidelity_desirability(F)

where ``c`` ∈ [0, 1] is the goal-directed importance of energy
conservation and ``k`` is a constant (10 in the paper).  When ``c`` is 0
energy does not affect utility at all; when ``c`` is 1 it dominates.

Applications may override the default with any callable taking an
:class:`AlternativePrediction` and returning a float.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict

from .operation import OperationSpec
from .plans import Alternative

#: The paper's energy-weighting constant.
ENERGY_EXPONENT_K = 10.0


@dataclass(slots=True)
class AlternativePrediction:
    """Everything predicted about executing one alternative.

    ``components`` breaks total time down the way §3.6 describes: local
    CPU, remote CPU, network transmission, cache-miss service, and
    consistency (reintegration) time.  The breakdown is exposed for
    diagnostics, experiments, and tests; the utility uses the total.
    """

    alternative: Alternative
    total_time_s: float
    energy_joules: float
    components: Dict[str, float] = field(default_factory=dict)
    #: demand predictions backing the times (cycles, bytes, ...)
    demand: Dict[str, float] = field(default_factory=dict)
    feasible: bool = True
    infeasible_reason: str = ""


UtilityCallable = Callable[[AlternativePrediction], float]


class DefaultUtility:
    """The paper's multiplicative utility.

    Parameters
    ----------
    spec:
        The operation, supplying the application's latency and fidelity
        desirability functions.
    energy_importance:
        The goal-directed parameter ``c`` at decision time.
    k:
        Energy exponent constant (paper value 10).
    """

    def __init__(self, spec: OperationSpec, energy_importance: float,
                 k: float = ENERGY_EXPONENT_K):
        if not 0.0 <= energy_importance <= 1.0:
            raise ValueError(f"c out of [0,1]: {energy_importance}")
        self.spec = spec
        self.c = energy_importance
        self.k = k

    def __call__(self, prediction: AlternativePrediction) -> float:
        if not prediction.feasible:
            return float("-inf")
        time_term = self.spec.latency_desirability(prediction.total_time_s)
        fidelity_term = self.spec.fidelity_desirability(
            prediction.alternative.fidelity_dict()
        )
        energy_term = self._energy_term(prediction.energy_joules)
        return time_term * fidelity_term * energy_term

    def _energy_term(self, energy_joules: float) -> float:
        """``(1/E)**(k*c)``, guarded against degenerate inputs.

        Zero-energy predictions clamp to a small positive floor — the
        exponent would otherwise reward a mispredicted free lunch with
        infinite utility.
        """
        exponent = self.k * self.c
        # k or c set to exactly 0.0 means "energy does not matter": an
        # exact configuration sentinel, not an accumulated measurement.
        if exponent == 0.0:  # spectra: noqa[SPC004] -- exact config sentinel
            return 1.0
        energy = max(energy_joules, 1e-6)
        return (1.0 / energy) ** exponent


class AdditiveUtility:
    """Weighted-sum ablation of the default multiplicative form.

    DESIGN.md design decision #1: the paper multiplies metric terms; a
    natural alternative is a weighted sum.  This class exists so the
    ablation benchmark can compare decision quality under both.
    """

    def __init__(self, spec: OperationSpec, energy_importance: float,
                 time_weight: float = 1.0, energy_weight: float = 1.0,
                 fidelity_weight: float = 1.0):
        self.spec = spec
        self.c = energy_importance
        self.time_weight = time_weight
        self.energy_weight = energy_weight
        self.fidelity_weight = fidelity_weight

    def __call__(self, prediction: AlternativePrediction) -> float:
        if not prediction.feasible:
            return float("-inf")
        time_term = self.spec.latency_desirability(prediction.total_time_s)
        fidelity_term = self.spec.fidelity_desirability(
            prediction.alternative.fidelity_dict()
        )
        energy = max(prediction.energy_joules, 1e-6)
        energy_term = self.c * (1.0 / energy)
        return (self.time_weight * time_term
                + self.energy_weight * energy_term
                + self.fidelity_weight * fidelity_term)
