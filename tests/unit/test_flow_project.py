"""Unit tests for the whole-program index (spclint.flow.project).

Covers module naming from package structure, function/method indexing,
call resolution (bare names, ``self.``/``cls.`` through base classes,
``ClassName()`` to ``__init__``, star imports), and the derived views
(edges, reverse edges, transitive can-raise).
"""

import ast
import textwrap

from spclint.core import SourceFile
from spclint.flow.project import ProjectIndex, module_name_for


def parse(files):
    """{relpath: source} -> {relpath: SourceFile} (dedented)."""
    out = {}
    for path, text in files.items():
        text = textwrap.dedent(text)
        out[path] = SourceFile(path, text, ast.parse(text, filename=path))
    return out


def build(files):
    return ProjectIndex.build(parse(files))


class TestModuleNaming:
    def test_package_relative_names(self):
        known = {"src/pkg/__init__.py", "src/pkg/sub/__init__.py",
                 "src/pkg/sub/mod.py"}
        assert module_name_for("src/pkg/sub/mod.py", known) == "pkg.sub.mod"

    def test_init_names_the_package(self):
        known = {"src/pkg/__init__.py"}
        assert module_name_for("src/pkg/__init__.py", known) == "pkg"

    def test_non_package_dir_stops_the_walk(self):
        # src has no __init__.py, so it is not part of the dotted path.
        known = {"src/pkg/__init__.py", "src/pkg/mod.py"}
        assert module_name_for("src/pkg/mod.py", known) == "pkg.mod"

    def test_lone_file_is_its_own_module(self):
        assert module_name_for("scratch/tool.py", set()) == "tool"


class TestIndexing:
    FILES = {
        "pkg/__init__.py": "",
        "pkg/shapes.py": """\
            class Base:
                def area(self):
                    raise NotImplementedError

            class Square(Base):
                def __init__(self, side):
                    self.side = side

                def describe(self):
                    return self.area()
        """,
        "pkg/use.py": """\
            from pkg.shapes import Square


            def make():
                return Square(2)


            def helper():
                return make()
        """,
    }

    def test_functions_and_methods_indexed(self):
        index = build(self.FILES)
        assert "pkg.shapes.Square.describe" in index.functions
        assert "pkg.use.make" in index.functions
        fn = index.functions["pkg.shapes.Square.describe"]
        assert fn.class_name == "Square"
        assert fn.module == "pkg.shapes"

    def test_constructor_call_resolves_to_init(self):
        index = build(self.FILES)
        edges = index.edges()
        assert edges["pkg.use.make"] == ["pkg.shapes.Square.__init__"]

    def test_bare_local_call_resolves(self):
        index = build(self.FILES)
        assert index.edges()["pkg.use.helper"] == ["pkg.use.make"]

    def test_self_call_through_base_class(self):
        index = build(self.FILES)
        # Square.describe calls self.area(), defined only on Base.
        assert index.edges()["pkg.shapes.Square.describe"] == \
            ["pkg.shapes.Base.area"]

    def test_callers_is_the_reverse_graph(self):
        index = build(self.FILES)
        callers = index.callers()
        assert callers["pkg.use.make"] == ["pkg.use.helper"]

    def test_can_raise_propagates_transitively(self):
        index = build(self.FILES)
        can = index.can_raise()
        assert "pkg.shapes.Base.area" in can          # contains raise
        assert "pkg.shapes.Square.describe" in can    # calls it
        assert "pkg.use.make" not in can              # clean chain

    def test_dynamic_targets_stay_unresolved(self):
        index = build({
            "pkg/__init__.py": "",
            "pkg/dyn.py": """\
                def caller(fns):
                    return fns[0]()
            """,
        })
        assert index.edges()["pkg.dyn.caller"] == []


class TestStarImports:
    def test_star_imported_name_resolves(self):
        index = build({
            "pkg/__init__.py": "",
            "pkg/util.py": """\
                def shared():
                    return 1
            """,
            "pkg/use.py": """\
                from pkg.util import *


                def caller():
                    return shared()
            """,
        })
        assert index.edges()["pkg.use.caller"] == ["pkg.util.shared"]


class TestRobustness:
    def test_base_class_cycle_terminates(self):
        index = build({
            "pkg/__init__.py": "",
            "pkg/cycle.py": """\
                class A(B):
                    def via_a(self):
                        return self.nowhere()

                class B(A):
                    def via_b(self):
                        return self.via_a()
            """,
        })
        edges = index.edges()      # must not recurse forever
        assert edges["pkg.cycle.B.via_b"] == ["pkg.cycle.A.via_a"]
        assert edges["pkg.cycle.A.via_a"] == []

    def test_colliding_module_names_first_wins(self):
        index = build({
            "a/pkg/mod.py": "def first():\n    return 1\n",
            "b/pkg/mod.py": "def second():\n    return 2\n",
        })
        # Both files map to module "mod" (no packages): deterministic
        # first-wins, no crash, no merge.
        assert "mod" in index.modules
        names = {fn.name for fn in index.functions.values()}
        assert names == {"first"}

    def test_nested_function_calls_fold_into_encloser(self):
        index = build({
            "pkg/__init__.py": "",
            "pkg/nested.py": """\
                def target():
                    return 1


                def outer():
                    def inner():
                        return target()
                    return inner
            """,
        })
        assert index.edges()["pkg.nested.outer"] == ["pkg.nested.target"]

    def test_rebuild_is_deterministic(self):
        first = build(self.cycle_free())
        second = build(self.cycle_free())
        assert sorted(first.functions) == sorted(second.functions)
        assert first.edges() == second.edges()
        assert first.callers() == second.callers()

    @staticmethod
    def cycle_free():
        return dict(TestIndexing.FILES)
