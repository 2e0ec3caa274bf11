"""The solver's search space and result types.

The space of one placement decision is the cross product

    plans × servers (for remote plans) × fidelity points

structured into *coordinates* so the heuristic solver can walk it one
axis at a time.  Pangloss-Lite's space — 2 placements per engine-ish
choices × servers — reaches 100 alternatives; the speech recognizer's is
6; a null operation's is 1 + #servers.

Because a :class:`SearchSpace` is a pure function of ``(spec, servers)``
it is also a natural cache unit: the client re-decides placement on
every ``begin_fidelity_op``, but between polls the reachable-server set
rarely changes, so :class:`SpaceCache` memoizes whole spaces per
``(operation, servers)`` key.  A cached space keeps its own decode and
neighbor memos warm across solves, which is where most of the per-
decision allocation cost used to go.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.operation import OperationSpec
from ..core.plans import Alternative, ExecutionPlan
from ..core.utility import AlternativePrediction

PredictFn = Callable[[Alternative], AlternativePrediction]
UtilityFn = Callable[[AlternativePrediction], float]

#: the utility of no alternative at all
NO_UTILITY = float("-inf")


@dataclass(slots=True)
class SolverResult:
    """Outcome of one search."""

    best: Optional[AlternativePrediction]
    utility: float
    #: distinct alternatives predicted+scored (cache misses)
    evaluations: int
    #: total utility-function consultations, including revisits during
    #: the ascent — the quantity decision CPU time is charged on (a real
    #: solver has no memo table; see OverheadModel.choose_per_eval_cycles)
    visits: int = 0
    #: every evaluated alternative with its utility.  Diagnostics only:
    #: populated when the solver was built with ``collect_evaluated=True``
    #: (explain/forensics need it; steady-state decisions do not, and a
    #: 100-alternative Pangloss space would otherwise materialize every
    #: prediction on every operation).
    evaluated: List[Tuple[AlternativePrediction, float]] = field(
        default_factory=list
    )

    @property
    def found(self) -> bool:
        return self.best is not None and self.utility > NO_UTILITY


class SearchSpace:
    """Coordinate-structured view of an operation's alternatives.

    Decode and neighbor lookups are memoized per state: a space that is
    reused across solves (via :class:`SpaceCache`) hands the solver the
    *same* :class:`Alternative` objects every time, so per-alternative
    caches further down (``OperationSpec.decision_context``) stay warm
    too.
    """

    def __init__(self, spec: OperationSpec, servers: Sequence[str]):
        self.spec = spec
        self.servers: Tuple[str, ...] = tuple(servers)
        # With no reachable servers, remote plans are not part of the
        # space at all (decoding them would have no server to name).
        self.plans: Tuple[ExecutionPlan, ...] = tuple(
            p for p in spec.plans if not p.uses_remote or self.servers
        )
        self.fidelity_dims = spec.fidelity.dimensions
        self._alternatives = tuple(
            a for a in spec.alternatives(self.servers)
            if any(p.name == a.plan.name for p in self.plans)
        )
        self._sizes: Optional[Tuple[int, ...]] = None
        self._decoded: Dict[Tuple[int, ...], Alternative] = {}
        self._neighbors: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], ...]] = {}
        #: the first alternative's state, where every solve starts
        self.first_state = (self.encode(self._alternatives[0])
                            if self._alternatives else None)

    def all_alternatives(self) -> Tuple[Alternative, ...]:
        return self._alternatives

    def size(self) -> int:
        return len(self._alternatives)

    # -- coordinate encoding ----------------------------------------------------------

    def encode(self, alternative: Alternative) -> Tuple[int, ...]:
        """State vector: (plan index, server index, fid indices...)."""
        plan_idx = next(
            i for i, p in enumerate(self.plans) if p.name == alternative.plan.name
        )
        if alternative.server is None:
            server_idx = 0
        else:
            server_idx = self.servers.index(alternative.server)
        fid = alternative.fidelity_dict()
        fid_idx = tuple(
            dim.index_of(fid[dim.name]) for dim in self.fidelity_dims
        )
        return (plan_idx, server_idx) + fid_idx

    def decode(self, state: Tuple[int, ...]) -> Alternative:
        alternative = self._decoded.get(state)
        if alternative is None:
            plan = self.plans[state[0]]
            server = self.servers[state[1]] if plan.uses_remote else None
            fidelity = {
                dim.name: dim.values[state[2 + i]]
                for i, dim in enumerate(self.fidelity_dims)
            }
            alternative = Alternative.build(plan, server, fidelity)
            self._decoded[state] = alternative
        return alternative

    def coordinate_sizes(self) -> Tuple[int, ...]:
        sizes = self._sizes
        if sizes is None:
            sizes = self._sizes = (
                (len(self.plans), max(len(self.servers), 1))
                + tuple(len(dim.values) for dim in self.fidelity_dims)
            )
        return sizes

    def neighbors(self, state: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
        """States differing from *state* in exactly one coordinate."""
        cached = self._neighbors.get(state)
        if cached is None:
            sizes = self.coordinate_sizes()
            out = []
            for axis, size in enumerate(sizes):
                for value in range(size):
                    if value == state[axis]:
                        continue
                    candidate = list(state)
                    candidate[axis] = value
                    out.append(tuple(candidate))
            cached = self._neighbors[state] = tuple(out)
        return cached


class SpaceCache:
    """LRU of :class:`SearchSpace` per ``(operation, servers)`` key.

    The key embeds the reachable-server tuple, so ordinary reachability
    churn (a poll marking a server down, a later poll restoring it)
    self-invalidates by keying to a different entry.  Explicit
    :meth:`invalidate` exists for events that change the *meaning* of a
    key without changing its spelling — server discovery (a new proxy
    for a name the cache may have embedded) and mid-operation failover
    (the failed server's capabilities are now suspect).
    """

    def __init__(self, maxsize: int = 32):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1: {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Tuple[str, Tuple[str, ...]], SearchSpace]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, spec: OperationSpec,
            servers: Sequence[str]) -> SearchSpace:
        """The memoized space for ``(spec.name, servers)``."""
        key = (spec.name, tuple(servers))
        space = self._entries.get(key)
        if space is not None and space.spec is spec:
            self.hits += 1
            self._entries.move_to_end(key)
            return space
        # A same-named but distinct spec object (re-registration in
        # tests) must not serve a stale space.
        self.misses += 1
        space = SearchSpace(spec, servers)
        self._entries[key] = space
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return space

    def invalidate(self) -> None:
        """Drop every cached space (discovery / failover events)."""
        self._entries.clear()
