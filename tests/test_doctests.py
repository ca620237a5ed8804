"""The worked examples in the package docstring and the README must
actually run, and every name the package exports must exist."""

import ast
import doctest
import re
from fractions import Fraction
from pathlib import Path

import cocycle_forge

README = Path(__file__).resolve().parent.parent / "README.md"
# a statement whose line ends in "# Fraction(a, b)" must evaluate to a/b
_EXPECTED = re.compile(r"#\s*Fraction\((-?\d+), (\d+)\)\s*$")


def test_package_docstring_examples():
    results = doctest.testmod(cocycle_forge, verbose=False)
    assert results.attempted > 0
    assert results.failed == 0


def test_every_exported_name_resolves():
    missing = [name for name in cocycle_forge.__all__ if not hasattr(cocycle_forge, name)]
    assert missing == []


def test_readme_quick_tour_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    namespace = {}
    values = []
    for block in blocks:  # in order, in one namespace
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            expected = _EXPECTED.search(lines[stmt.end_lineno - 1])
            if expected and isinstance(stmt, ast.Expr):
                value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
                assert value == Fraction(int(expected[1]), int(expected[2]))
                values.append(value)
            else:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert values == [Fraction(1, 2), Fraction(-1, 6)]
