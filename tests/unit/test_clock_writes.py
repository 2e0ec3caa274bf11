"""Only the kernel moves the simulated clock.

``Simulator.now`` is a plain slot attribute, read several times per
event, so nothing at runtime stops another module from assigning it.
This check keeps the guarantee the read-only property used to give: no
module under ``src/repro`` but ``sim/kernel.py`` assigns an attribute
named ``now``.
"""

import ast
import pathlib

import repro

PACKAGE = pathlib.Path(repro.__file__).resolve().parent
KERNEL = PACKAGE / "sim" / "kernel.py"


def now_writes(tree):
    """Line numbers of every store to an attribute ``now`` in *tree*:
    plain, augmented and annotated assignments (tuple targets included),
    deletions, and ``setattr(obj, "now", ...)``."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "now"
                and isinstance(node.ctx, (ast.Store, ast.Del))):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("setattr", "delattr")
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value == "now"):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_probe_sees_every_kind_of_write():
    tree = ast.parse(
        "sim.now = 1.0\n"
        "sim.now += 1.0\n"
        "a, sim.now = 1, 2\n"
        "sim.now: float = 3.0\n"
        "del sim.now\n"
        "setattr(sim, 'now', 4.0)\n"
        "x = sim.now\n"
    )
    assert now_writes(tree) == [1, 2, 3, 4, 5, 6]


def test_only_the_kernel_assigns_now():
    assert now_writes(ast.parse(KERNEL.read_text())), "kernel probe broken"
    writers = {
        str(path.relative_to(PACKAGE)): lines
        for path in sorted(PACKAGE.rglob("*.py"))
        if path != KERNEL
        for lines in [now_writes(ast.parse(path.read_text()))]
        if lines
    }
    assert writers == {}
