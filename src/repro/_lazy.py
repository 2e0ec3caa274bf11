"""Package re-exports that import their submodule on first access.

A package ``__init__`` imports eagerly only what a scenario run uses and
hands the rest of its public names to :func:`lazy_exports` (PEP 562).
"""

from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Tuple


def lazy_exports(
    package: str, namespace: Dict[str, Any],
    table: Mapping[str, Tuple[str, ...]],
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, names)`` for *package*, whose globals are
    *namespace*; *table* maps each submodule to the names it exports, and
    *names* lists them in table order for the package's ``__all__``.

    The first access to a name imports its submodule and caches the name
    in *namespace*, so the hook runs once per name.
    """
    home = {name: module for module, names in table.items()
            for name in names}

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(
            import_module(f"{package}.{module}"), name)
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | home.keys())

    return __getattr__, __dir__, list(home)
