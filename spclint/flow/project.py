"""The project index: modules, defs, and resolved call edges.

Built once per sweep from the already-parsed
:class:`~spclint.core.SourceFile` set (no re-reads, no
re-parses), the index answers the questions SPC102's path search
asks:

* what module does this file define, and what functions live in it?
* which known function does this call site resolve to?
* which functions can raise, themselves or through a call?

Resolution is deliberately *best-effort static*: bare names resolve to
module-level defs (local, imported, or star-imported), ``self.m()`` and
``cls.m()`` resolve through the enclosing class and its project-local
bases, ``module.func()`` resolves through the alias map, and
``ClassName()`` resolves to ``ClassName.__init__``.  Anything dynamic
(``fns[i]()``, attribute chains through instance fields) stays
unresolved, and SPC102 does not count an unresolved call as an
exception source, which keeps its false-positive rate bounded.

Module names derive from package structure: a file's module path is its
dotted path relative to the nearest ancestor directory that is **not**
a package (has no ``__init__.py``) — so ``src/repro/sim/kernel.py``
indexes as ``repro.sim.kernel`` and a test fixture package under a tmp
dir indexes by its own package name, with no repo-layout assumptions.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..core import SourceFile, dotted_name, resolve_call_path


@dataclass
class FunctionInfo:
    """One function or method definition, project-qualified."""

    qname: str                       # e.g. repro.core.client.SpectraClient.begin
    module: str                      # e.g. repro.core.client
    name: str                        # bare name
    class_name: Optional[str]        # enclosing class, if a method
    node: ast.AST                    # the FunctionDef/AsyncFunctionDef
    source: SourceFile
    #: alias-resolved dotted paths of the body's calls, e.g.
    #: ``self.coda.reintegrate_volume``; dynamic targets are left out
    calls: List[str] = field(default_factory=list)
    contains_raise: bool = False


@dataclass
class ModuleInfo:
    """One parsed module: its classes and import surface."""

    name: str
    source: SourceFile
    #: local class name -> list of base-class dotted names
    classes: Dict[str, List[str]] = field(default_factory=dict)
    #: modules star-imported (``from x import *``)
    star_imports: List[str] = field(default_factory=list)


def module_name_for(path: str, known_files: Set[str]) -> str:
    """Dotted module path of *path* (see module docstring).

    ``known_files`` is the sweep's file set (POSIX paths); a directory
    counts as a package if its ``__init__.py`` is in the sweep or on
    disk, so in-memory fixture projects resolve without touching the
    filesystem.
    """
    posix = path.replace("\\", "/")
    if posix.endswith(".py"):
        posix = posix[:-3]
    parts = posix.split("/")
    # Walk upward while the parent directory is a package.
    start = len(parts) - 1
    while start > 0:
        parent = "/".join(parts[:start])
        init = f"{parent}/__init__.py" if parent else "__init__.py"
        if init in known_files or os.path.isfile(init):
            start -= 1
        else:
            break
    dotted = [p for p in parts[start:] if p]
    if dotted and dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted) or posix.rsplit("/", 1)[-1]


class _FunctionCollector:
    """Collect the calls and raises of one function body.

    Nested function and lambda bodies are folded into the enclosing
    function (a conservative over-approximation: a helper defined here
    is almost always called here); nested *class* bodies are not — their
    methods index as functions of their own.
    """

    def __init__(self, info: FunctionInfo, aliases: Dict[str, str]):
        self.info = info
        self.aliases = aliases

    def walk(self, node: ast.AST, top: bool = True) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # fold the nested body in, but not its decorators/defaults
                for stmt in child.body:
                    self.walk(stmt, top=False)
                    self._visit(stmt)
                continue
            self._visit(child)
            self.walk(child, top=False)

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            path = resolve_call_path(node.func, self.aliases)
            if path is not None:
                self.info.calls.append(path)
        elif isinstance(node, ast.Raise):
            self.info.contains_raise = True


class ProjectIndex:
    """Modules + functions + resolved call edges for one file set."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: caller qname -> callee qnames (resolved, deduplicated, sorted)
        self._edges: Optional[Dict[str, List[str]]] = None
        self._can_raise: Optional[Set[str]] = None

    # -- construction ------------------------------------------------------------

    @classmethod
    def build(cls, files: Dict[str, SourceFile]) -> "ProjectIndex":
        """Index every parsed file; never raises on any parseable input."""
        index = cls()
        known = {path.replace("\\", "/") for path in files}
        for path in sorted(files):
            source = files[path]
            module = module_name_for(source.posix_path, known)
            if module in index.modules:
                # Two files mapping to one module name (odd layouts,
                # fixture collisions): first wins, deterministically.
                continue
            index._index_module(module, source)
        return index

    def _index_module(self, module: str, source: SourceFile) -> None:
        info = ModuleInfo(name=module, source=source)
        self.modules[module] = info
        aliases = source.aliases
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ImportFrom) and any(
                    alias.name == "*" for alias in node.names):
                if node.module:
                    info.star_imports.append(node.module)
        self._index_body(module, source, info, source.tree.body,
                         class_name=None, prefix=module, aliases=aliases)

    def _index_body(self, module: str, source: SourceFile,
                    info: ModuleInfo, body: List[ast.stmt],
                    class_name: Optional[str], prefix: str,
                    aliases: Dict[str, str]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = f"{prefix}.{node.name}"
                if qname in self.functions:
                    continue        # redefinition: first wins
                fn = FunctionInfo(
                    qname=qname, module=module, name=node.name,
                    class_name=class_name, node=node, source=source,
                )
                _FunctionCollector(fn, aliases).walk(node)
                self.functions[qname] = fn
            elif isinstance(node, ast.ClassDef):
                bases = [b for b in (dotted_name(base) for base in node.bases)
                         if b is not None]
                cls_qname = f"{prefix}.{node.name}"
                if class_name is None:
                    info.classes[node.name] = bases
                self._index_body(module, source, info, node.body,
                                 class_name=node.name, prefix=cls_qname,
                                 aliases=aliases)

    # -- resolution --------------------------------------------------------------

    def resolve(self, fn: FunctionInfo, path: str) -> Optional[str]:
        """Project function a dotted call path refers to, if known."""
        if path.startswith(("self.", "cls.")):
            rest = path.split(".", 1)[1]
            if "." in rest or fn.class_name is None:
                return None         # chains through instance fields: dynamic
            return self._resolve_method(fn.module, fn.class_name, rest)
        # Fully-qualified (alias-resolved) path: repro.sim.kernel.spawn
        direct = self.functions.get(path)
        if direct is not None:
            return direct.qname
        init = self.functions.get(f"{path}.__init__")
        if init is not None:        # ClassName(...) -> its constructor
            return init.qname
        if "." not in path:
            return self._resolve_bare(fn.module, path)
        # Class.method with a local or imported class
        head, _, rest = path.partition(".")
        module = self.modules.get(fn.module)
        if module is not None and head in module.classes and rest:
            return self._resolve_method(fn.module, head, rest.split(".")[0])
        return None

    def _resolve_bare(self, module: str, name: str) -> Optional[str]:
        local = self.functions.get(f"{module}.{name}")
        if local is not None:
            return local.qname
        init = self.functions.get(f"{module}.{name}.__init__")
        if init is not None:
            return init.qname
        info = self.modules.get(module)
        for star in (info.star_imports if info is not None else ()):
            hit = self.functions.get(f"{star}.{name}") \
                or self.functions.get(f"{star}.{name}.__init__")
            if hit is not None:
                return hit.qname
        return None

    def _resolve_method(self, module: str, class_name: str,
                        method: str, _depth: int = 0) -> Optional[str]:
        if _depth > 16:             # pathological base-class cycles
            return None
        hit = self.functions.get(f"{module}.{class_name}.{method}")
        if hit is not None:
            return hit.qname
        info = self.modules.get(module)
        if info is None:
            return None
        for base in info.classes.get(class_name, ()):
            base_module, base_name = module, base
            if "." in base:
                # module-qualified base: resolve its module via aliases
                head, _, rest = base.partition(".")
                resolved = info.source.aliases.get(head, head)
                base_module, base_name = resolved, rest.split(".")[-1]
            else:
                # bare base imported from elsewhere: follow the alias
                target = info.source.aliases.get(base)
                if target is not None and "." in target:
                    base_module, base_name = target.rsplit(".", 1)
            found = self._resolve_method(base_module, base_name, method,
                                         _depth + 1)
            if found is not None:
                return found
        return None

    # -- derived views -----------------------------------------------------------

    def edges(self) -> Dict[str, List[str]]:
        """caller qname -> sorted unique callee qnames (resolved only)."""
        if self._edges is None:
            edges: Dict[str, List[str]] = {}
            for fn in self.functions.values():
                targets: Set[str] = set()
                for path in fn.calls:
                    resolved = self.resolve(fn, path)
                    if resolved is not None and resolved != fn.qname:
                        targets.add(resolved)
                edges[fn.qname] = sorted(targets)
            self._edges = edges
        return self._edges

    def callers(self) -> Dict[str, List[str]]:
        """callee qname -> sorted caller qnames (the reverse graph)."""
        reverse: Dict[str, Set[str]] = {}
        for caller, callees in self.edges().items():
            for callee in callees:
                reverse.setdefault(callee, set()).add(caller)
        return {k: sorted(v) for k, v in reverse.items()}

    def can_raise(self) -> Set[str]:
        """Functions that contain ``raise`` or transitively call one."""
        if self._can_raise is None:
            tainted = {q for q, fn in self.functions.items()
                       if fn.contains_raise}
            callers = self.callers()
            frontier = list(tainted)
            while frontier:
                current = frontier.pop()
                for caller in callers.get(current, ()):
                    if caller not in tainted:
                        tainted.add(caller)
                        frontier.append(caller)
            self._can_raise = tainted
        return self._can_raise
