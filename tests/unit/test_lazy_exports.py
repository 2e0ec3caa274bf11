"""Lazy package re-exports keep the public API.

``repro.apps``, ``repro.core``, ``repro.predictors``, ``repro.scenarios``,
``repro.solver`` and ``repro.telemetry`` import eagerly only what a
scenario run uses and resolve the rest of their ``__all__`` on first access
(:mod:`repro._lazy`).  Whether a name was imported eagerly or lazily,
it must be the object its defining submodule holds, be listed by
``dir()``, bind under ``from package import *``, and an unknown name
must fail with an ``AttributeError`` that names the package.
"""

import importlib
import pkgutil

import pytest

PACKAGES = ("repro", "repro.apps", "repro.core", "repro.predictors",
            "repro.scenarios", "repro.solver", "repro.telemetry")


def exports(package):
    module = importlib.import_module(package)
    return [(module, name) for name in module.__all__]


def submodule_values(package, name):
    """The value every submodule of *package* that defines *name* holds."""
    found = []
    for info in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        if name in vars(module):
            found.append(vars(module)[name])
    return found


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_is_its_submodules_object(package):
    for module, name in exports(package):
        value = getattr(module, name)
        if name == "__version__":
            continue
        home = getattr(value, "__module__", None)
        if isinstance(home, str) and home.startswith("repro."):
            assert getattr(importlib.import_module(home), name) is value, name
        else:
            candidates = submodule_values(module, name)
            assert candidates, f"{package}.{name} is defined nowhere below it"
            assert all(candidate is value for candidate in candidates), name
        # the first access caches the name: the hook runs once per name
        assert vars(module)[name] is value


@pytest.mark.parametrize("package", PACKAGES)
def test_dir_lists_every_export(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_every_name(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(module, name)
               for name in module.__all__)


@pytest.mark.parametrize("package", PACKAGES)
def test_an_unknown_name_raises_attribute_error_naming_the_package(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"'{package}'.*'no_such_name'"):
        getattr(module, "no_such_name")
    with pytest.raises(ImportError, match="no_such_name"):
        exec(f"from {package} import no_such_name", {})
