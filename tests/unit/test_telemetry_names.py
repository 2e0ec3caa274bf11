"""Telemetry names are imported constants, never string literals.

Writers (``metrics.counter(...)``, ``tracer.start_span(...)``, ...) and
readers (forensics, decision explanation, report counters) share the
names declared in :mod:`repro.telemetry.names`, so a misspelled name
is an ``ImportError`` when its module loads.  These checks walk every
module under ``src/repro`` and close the gaps an import cannot:

* no string literal in the name argument of a telemetry call;
* no literal read back as a name (compared, prefix-matched, or looked
  up) that is declared or lies in a declared namespace such as
  ``rpc.``;
* nothing in ``names.py`` that no other module uses.
"""

import ast
import inspect
import pathlib

import pytest

from repro.telemetry import names

NAMES_PATH = pathlib.Path(names.__file__).resolve()
PACKAGE_ROOT = NAMES_PATH.parents[1]           # src/repro
WRITER_METHODS = {"counter", "gauge", "histogram", "start_span", "span",
                  "child"}
READER_METHODS = {"startswith", "get"}

DECLARED = {key: value for key, value in vars(names).items()
            if not key.startswith("_")
            and (key.isupper() or inspect.isfunction(value))}
HELPERS = [fn for fn in DECLARED.values() if inspect.isfunction(fn)]
NAME_VALUES = {value for value in DECLARED.values()
               if isinstance(value, str)}
#: ``PHASE_SPAN_PREFIX`` plus each runtime family's static head
#: (``spectra.ops.``, ``spectra.begin.``).
PREFIXES = ({value for key, value in DECLARED.items()
             if key.endswith("_PREFIX")}
            | {fn("\0").partition("\0")[0] for fn in HELPERS})
#: First dotted segments (``rpc.``, ``spectra.``, ...): a literal in
#: one of these is a reader spelling a name, misspelled or not.
NAMESPACES = {value.split(".")[0] + "." for value in NAME_VALUES
              if "." in value}


@pytest.fixture(scope="module")
def modules():
    """``(dotted module name, relative path, tree)`` for every other module."""
    out = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        if path == NAMES_PATH:
            continue
        parts = path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts
        out.append((".".join(parts), path.relative_to(PACKAGE_ROOT.parent),
                    ast.parse(path.read_text(), filename=str(path))))
    return out


def _literals(node):
    return [n for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def _is_name(text):
    return (text in NAME_VALUES
            or text.startswith(tuple(PREFIXES | NAMESPACES)))


def test_declarations_are_nonempty():
    assert len(NAME_VALUES) > 30
    assert PREFIXES == {"phase:", "spectra.ops.", "spectra.begin."}


def test_no_literal_name_at_a_telemetry_call(modules):
    offenders = []
    for _, rel, tree in modules:
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in WRITER_METHODS):
                continue
            name_args = node.args[:1] + [k.value for k in node.keywords
                                         if k.arg == "name"]
            for arg in name_args:
                for lit in _literals(arg):
                    offenders.append(f"{rel}:{lit.lineno}: "
                                     f".{node.func.attr}({lit.value!r})")
    assert offenders == []


def test_no_literal_telemetry_name_in_a_reader(modules):
    offenders = []
    for _, rel, tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in READER_METHODS):
                operands = node.args[:1]
            elif isinstance(node, ast.Subscript):
                operands = [node.slice]
            else:
                continue
            for operand in operands:
                for lit in _literals(operand):
                    if _is_name(lit.value):
                        offenders.append(f"{rel}:{lit.lineno}: {lit.value!r}")
    assert offenders == []


def _imports_from_names(module, tree):
    """Names this module imports from ``repro.telemetry.names``."""
    package = module.split(".")[:-1]
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        base = package[:len(package) - node.level + 1] if node.level else []
        target = ".".join(base + ([node.module] if node.module else []))
        if target == names.__name__:
            imported.update(alias.asname or alias.name
                            for alias in node.names)
    return imported


def test_every_declaration_is_used_elsewhere(modules):
    used = set()
    for module, _, tree in modules:
        loads = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= _imports_from_names(module, tree) & loads
    assert sorted(set(DECLARED) - used) == []
