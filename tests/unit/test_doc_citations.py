"""The docs cite only tests that exist, and quote only pinned digests.

DESIGN.md, README.md and EXPERIMENTS.md name the tests that hold each
invariant.  A test file that is renamed or deleted, or a test class or
function that moves, would leave the docs pointing at nothing.  These
checks keep that map honest:

* every ``test_*.py`` the docs name exists under ``tests/``,
  ``benchmarks/`` or ``bench/`` (a bare file name may sit anywhere
  there; a path must be exact);
* every ``path::Name`` or ``path::Class::name`` they cite is defined in
  that file, checked on its AST, not by importing it;
* every digest they or the verify notes quote as a 12-hex prefix
  followed by ``…`` starts a digest that a pin file holds, so a quote
  cannot outlive a re-pin.
"""

import ast
import pathlib
import re

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md")
TEST_ROOTS = ("tests", "benchmarks", "bench")

#: a test file name, optionally with its directories, then any number
#: of ``::Name`` parts (a line break may fall after the ``::``)
CITATION = re.compile(r"((?:[\w.-]+/)*test_\w+\.py)((?:::\s*\w+)*)")

#: the docs whose quoted digests must be pinned
DIGEST_DOCS = DOCS + (".claude/skills/verify/SKILL.md",)
#: the files that pin full sha256 digests
PIN_FILES = ("tests/integration/full_scale_digests.txt",
             "tests/integration/test_report_digests.py",
             "tests/integration/test_predictor_persistence.py",
             "examples/stdout.sha256")
QUOTED_DIGEST = re.compile(r"\b([0-9a-f]{12})…")
FULL_DIGEST = re.compile(r"\b[0-9a-f]{64}\b")


def citations():
    """(doc, cited path, [names]) for every citation in the docs."""
    found = []
    for doc in DOCS:
        text = (REPO_ROOT / doc).read_text(encoding="utf-8")
        for match in CITATION.finditer(text):
            names = [part.strip() for part in match.group(2).split("::")
                     if part.strip()]
            found.append((doc, match.group(1), names))
    return found


def resolve(cited):
    """The file *cited* names, or None when no test root holds it."""
    if "/" in cited:
        path = REPO_ROOT / cited
        inside = cited.split("/")[0] in TEST_ROOTS
        return path if inside and path.is_file() else None
    for root in TEST_ROOTS:
        for path in sorted((REPO_ROOT / root).rglob(cited)):
            return path
    return None


def defines(tree, names):
    """Whether the module *tree* defines the nested *names*."""
    body = tree.body
    for name in names:
        node = next((node for node in body
                     if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                     and node.name == name), None)
        if node is None:
            return False
        body = node.body
    return True


def test_the_docs_cite_tests():
    """Guard against the pattern silently matching nothing."""
    assert len({cited for _doc, cited, _names in citations()}) > 30


def test_every_cited_test_file_exists():
    missing = sorted({f"{doc}: {cited}" for doc, cited, _names in citations()
                      if resolve(cited) is None})
    assert missing == []


def test_every_cited_test_name_is_defined():
    trees = {}
    undefined = []
    for doc, cited, names in citations():
        path = resolve(cited)
        if not names or path is None:
            continue
        if path not in trees:
            trees[path] = ast.parse(path.read_text(encoding="utf-8"))
        if not defines(trees[path], names):
            undefined.append(f"{doc}: {cited}::{'::'.join(names)}")
    assert undefined == []


def test_every_quoted_digest_is_pinned():
    pinned = set()
    for pin_file in PIN_FILES:
        text = (REPO_ROOT / pin_file).read_text(encoding="utf-8")
        pinned.update(digest[:12] for digest in FULL_DIGEST.findall(text))
    assert len(pinned) >= 10
    quoted = [(doc, prefix) for doc in DIGEST_DOCS
              for prefix in QUOTED_DIGEST.findall(
                  (REPO_ROOT / doc).read_text(encoding="utf-8"))]
    assert len(quoted) >= 8
    assert [f"{doc}: {prefix}…" for doc, prefix in quoted
            if prefix not in pinned] == []
