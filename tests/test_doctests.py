"""The worked example in the package docstring must actually run, and every
name the package exports must exist."""

import doctest

import cocycle_forge


def test_package_docstring_examples():
    results = doctest.testmod(cocycle_forge, verbose=False)
    assert results.attempted > 0
    assert results.failed == 0


def test_every_exported_name_resolves():
    missing = [name for name in cocycle_forge.__all__ if not hasattr(cocycle_forge, name)]
    assert missing == []
