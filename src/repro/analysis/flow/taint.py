"""SPC101 — interprocedural determinism taint.

SPC001/SPC002 flag a wall-clock or global-RNG call *where it happens*.
This pass closes the loophole they leave open: a helper three modules
away reads the host clock, and a decision-path entry point reaches it
through an innocent-looking call chain.  The taint analysis marks every
function whose body contains a nondeterminism **source** — a wall-clock
read, a global-state RNG draw, an environment read — and propagates the
mark backward over the resolved project call graph.  Any **entry
point** (public function of a decision-path package: the simulator, the
solver, the client) that ends up tainted is a finding, reported with
the shortest call chain from the entry point to the source.  The
entry packages can be set per run with the ``entry_packages`` option.
No module in ``src/repro`` may read the host clock, so there are no
sanctioned sources: host timing lives in ``benchmarks/``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from ..core import ProjectRule, RuleConfig, Violation, register_rule
from ..rules.randomness import ALLOWED as _RNG_ALLOWED
from ..rules.randomness import BANNED_PREFIXES as _RNG_PREFIXES
from ..rules.wallclock import BANNED_CALLS as _WALL_CLOCK
from .project import FunctionInfo, ProjectIndex

#: Dotted call paths that read the process environment or host identity —
#: nondeterministic across machines and runs even with the clock tamed.
ENV_CALLS = frozenset({
    "os.getenv", "os.getenvb", "os.urandom", "os.cpu_count",
    "os.getloadavg", "os.getpid",
    "platform.node", "platform.platform", "platform.machine",
    "platform.processor", "platform.system",
    "socket.gethostname", "socket.getfqdn", "socket.gethostbyname",
    "getpass.getuser",
    "uuid.uuid1", "uuid.uuid4",
})

#: Dotted attribute-read prefixes with the same property.
ENV_ATTRS = ("os.environ", "sys.argv")

#: Module prefixes whose calls are secret-grade entropy: always tainted.
ENTROPY_PREFIXES = ("secrets.",)

#: Default decision-path packages: anything publicly callable here must
#: be replay-deterministic.
DEFAULT_ENTRY_PACKAGES = ("repro.sim", "repro.solver", "repro.core")


def _describe_source(fn: FunctionInfo) -> Optional[Tuple[str, int]]:
    """(description, lineno) of the first nondeterminism source in *fn*,
    or None if the function body is clean."""
    hits: List[Tuple[int, str]] = []
    for site in fn.calls:
        path = site.path
        if path is None:
            continue
        line = getattr(site.node, "lineno", 1)
        if path in _WALL_CLOCK:
            hits.append((line, f"wall-clock call {path}()"))
        elif path in ENV_CALLS:
            hits.append((line, f"environment read {path}()"))
        elif any(path.startswith(p) for p in ENTROPY_PREFIXES):
            hits.append((line, f"entropy call {path}()"))
        elif path not in _RNG_ALLOWED and any(
                path.startswith(p) for p in _RNG_PREFIXES):
            hits.append((line, f"global-state RNG call {path}()"))
    for dotted, node in fn.attr_reads:
        if any(dotted == p or dotted.startswith(p + ".")
               for p in ENV_ATTRS):
            hits.append((getattr(node, "lineno", 1),
                         f"environment read {dotted}"))
    if not hits:
        return None
    line, description = min(hits)
    return description, line


@register_rule
class DeterminismTaintRule(ProjectRule):
    code = "SPC101"
    name = "determinism-taint"
    description = ("decision-path entry points must not transitively "
                   "reach wall-clock/RNG/environment sources")
    default_scope = ("src/repro",)
    default_exclude = ("src/repro/analysis",)

    def check_project(self, project, config: RuleConfig,
                      ) -> Iterator[Violation]:
        index: ProjectIndex = project.index
        entry_packages = tuple(config.options.get(
            "entry_packages", DEFAULT_ENTRY_PACKAGES))

        # 1. Direct taint: functions whose own body contains a source.
        taint: Dict[str, Tuple[Optional[str], str, int]] = {}
        frontier: List[str] = []
        for qname, fn in index.functions.items():
            described = _describe_source(fn)
            if described is not None:
                description, line = described
                taint[qname] = (None, description, line)
                frontier.append(qname)

        # 2. Fixpoint over the reverse call graph (BFS => the recorded
        #    chain through each function is a shortest one).
        callers = index.callers()
        frontier.sort()                 # determinism of chain choice
        queue = list(frontier)
        while queue:
            callee = queue.pop(0)
            for caller in callers.get(callee, ()):
                if caller in taint or caller not in index.functions:
                    continue
                _, description, line = taint[callee]
                taint[caller] = (callee, description, line)
                queue.append(caller)

        # 3. Report every tainted public entry point in scope.
        for qname in sorted(taint):
            fn = index.functions[qname]
            if not fn.is_public:
                continue
            if not any(fn.module == p or fn.module.startswith(p + ".")
                       for p in entry_packages):
                continue
            if not self.in_scope(fn.source, config):
                continue
            chain = self._chain(taint, qname)
            _, description, line = taint[self._chain_tail(taint, qname)]
            via = " -> ".join(chain)
            where = ""
            tail_fn = index.functions.get(chain[-1])
            if tail_fn is not None:
                where = f" ({tail_fn.source.posix_path}:{line})"
            yield self.violation(
                fn.source, fn.node,
                f"entry point {qname} reaches nondeterminism: "
                f"{via} -> {description}{where}",
            )

    @staticmethod
    def _chain(taint: Dict[str, Tuple[Optional[str], str, int]],
               qname: str) -> List[str]:
        chain = [qname]
        seen = {qname}
        while True:
            nxt = taint[chain[-1]][0]
            if nxt is None or nxt in seen:
                return chain
            chain.append(nxt)
            seen.add(nxt)

    @classmethod
    def _chain_tail(cls, taint, qname: str) -> str:
        return cls._chain(taint, qname)[-1]
