"""Operation specifications: what ``register_fidelity`` registers.

"An application statically identifies *operations*: code components that
may benefit from remote execution ...  For each operation, it specifies a
set of possible *execution plans* ... the possible fidelities at which
the operation may be performed, as well as *input parameters*, variables
that significantly affect operation complexity" (paper §3.1).

Applications also supply the two desirability functions the default
utility needs: how good a given latency is, and how good a given
fidelity point is (both in [0, 1]-ish unitless "goodness").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Sequence, Tuple

from ..odyssey import FidelitySpec
from ..predictors import DiscreteContext
from .plans import Alternative, ExecutionPlan

LatencyDesirability = Callable[[float], float]
FidelityDesirability = Callable[[Mapping[str, Any]], float]


def inverse_latency(T: float) -> float:
    """The paper's default: ``1/T`` — twice as slow is half as desirable."""
    return 1.0 / max(T, 1e-6)


def ramp_latency(good_s: float, bad_s: float) -> LatencyDesirability:
    """A clamped linear ramp: 1 below *good_s*, 0 above *bad_s*.

    The Pangloss-Lite shape: "If a translation takes longer than 5
    seconds, we assign it a utility of 0.  Conversely, all translations
    that take less than 0.5 seconds have a utility of 1" with a linear
    ramp between.  (We use the decreasing ramp ``(bad - T)/(bad - good)``;
    the paper's printed formula increases with T, an obvious typo.)
    """
    if bad_s <= good_s:
        raise ValueError(f"need good_s < bad_s, got {good_s} >= {bad_s}")

    def desirability(T: float) -> float:
        if T <= good_s:
            return 1.0
        if T >= bad_s:
            return 0.0
        return (bad_s - T) / (bad_s - good_s)

    return desirability


@dataclass
class OperationSpec:
    """Static description of one remotely executable operation."""

    name: str
    plans: Tuple[ExecutionPlan, ...]
    fidelity: FidelitySpec
    #: names of the continuous input parameters (e.g. "utterance_length")
    input_params: Tuple[str, ...] = ()
    latency_desirability: LatencyDesirability = inverse_latency
    fidelity_desirability: FidelityDesirability = (
        lambda _point: 1.0  # single-fidelity operations
    )
    #: whether operations carry a data-object name (Latex documents)
    data_parameterized: bool = False

    def __post_init__(self) -> None:
        if not self.plans:
            raise ValueError(f"operation {self.name!r} has no plans")
        names = [p.name for p in self.plans]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate plan names: {names}")

    def continuous_fidelity_names(self) -> Tuple[str, ...]:
        """Names of continuous fidelity dimensions (regression features)."""
        return tuple(d.name for d in self.fidelity.dimensions
                     if getattr(d, "continuous", False))

    def decision_context(self, alternative: "Alternative"):
        """Split an alternative into (discrete, continuous) demand context.

        Discrete: the plan name plus categorical fidelity values (the
        binning key of §3.4), as a
        :class:`~repro.predictors.DiscreteContext` that carries its bin
        key.  Continuous: numeric fidelity values, merged with the
        operation's input parameters as regression features.

        The split is memoized on the alternative itself (it is a pure
        function of the alternative for the spec that built it), because
        the solver consults it on every prediction — the Pangloss hot
        path calls this hundreds of times per decision — and so the bin
        key is built once per alternative, here.  Callers must treat the
        returned dicts as read-only.
        """
        cached = alternative._context
        if cached is not None:
            return cached
        fidelity = alternative.fidelity_dict()
        discrete: Dict[str, Any] = {"plan": alternative.plan.name}
        continuous: Dict[str, float] = {}
        for dim in self.fidelity.dimensions:
            value = fidelity[dim.name]
            if getattr(dim, "continuous", False):
                continuous[dim.name] = float(value)
            else:
                discrete[dim.name] = value
        context = (DiscreteContext(discrete), continuous)
        # Frozen dataclass: bypass the immutability guard for the memo
        # slot only; the value-identity fields stay untouched.
        object.__setattr__(alternative, "_context", context)
        return context

    def plan(self, name: str) -> ExecutionPlan:
        for plan in self.plans:
            if plan.name == name:
                return plan
        raise KeyError(f"operation {self.name!r} has no plan {name!r}")

    def alternatives(self, servers: Sequence[str]) -> Tuple[Alternative, ...]:
        """Enumerate the full search space for the given reachable servers.

        Deterministic order: plans in declaration order, then servers in
        given order, then fidelity points in spec order.
        """
        out = []
        fidelity_points = list(self.fidelity.points())
        for plan in self.plans:
            if plan.uses_remote:
                for server in servers:
                    for point in fidelity_points:
                        out.append(Alternative.build(plan, server, point))
            else:
                for point in fidelity_points:
                    out.append(Alternative.build(plan, None, point))
        return tuple(out)
