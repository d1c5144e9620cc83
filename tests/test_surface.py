"""Every public top-level function and class of `esl` is wired into a pipeline.

A name counts as wired when some module of the package refers to it, by
name or as an attribute, outside its own definition.  Imports do not count,
so re-exporting a name from `esl/__init__.py` does not wire it in.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "esl"

# Library entry points that no pipeline calls yet.
ALLOWED = {
    # Loader of the published JSON schema that every report validates against.
    ("report", "report_schema"),
    # Threshold from log-resolution data, which the exact pipeline cannot
    # compute yet: README Caveats, ROADMAP item 16.
    ("lct", "lct_from_resolution"),
}


def _references(node: ast.AST) -> Counter:
    """Names and attribute names read anywhere under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unwired_names() -> set[tuple[str, str]]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    return {(module, node.name) for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and everywhere[node.name] == _references(node)[node.name]}


def test_every_public_name_has_a_caller_in_the_package():
    assert unwired_names() - ALLOWED == set()


def test_every_allowed_name_still_exists_without_a_caller():
    assert ALLOWED <= unwired_names()
