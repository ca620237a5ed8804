"""Every name an import binds is read in its module.

A stdlib-only check over the package and the tests: names listed in
``__all__`` count as read, and ``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(REPO_ROOT.glob("src/cocycle_forge/*.py")) + sorted(REPO_ROOT.glob("tests/*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"), str(path))) == []


def test_the_check_finds_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\nimport json as j\nfrom math import gcd, lcm\n"
        "__all__ = ['lcm']\nj.dumps(os)\n"
    )
    assert unused_imports(tree) == ["line 4: gcd"]
