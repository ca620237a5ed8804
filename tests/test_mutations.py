"""Mutation matrix: each fault, patched in alone, makes a named report fail.

Every test runs ``cli.main`` in-process on a shipped scenario, first on
the sound engine and then with one monkeypatched fault, and asserts what
the report says under both.  A fault that no check row can see, because
the identities hold for any group elements, is pinned by the value it
corrupts instead.
"""

import json
from pathlib import Path

import pytest

from cocycle_forge import cli
from cocycle_forge.diffeo import PolyDiffeo

R2 = str(Path(__file__).resolve().parent.parent / "scenarios" / "r2_area.json")

ORIGINAL_COMPOSE = PolyDiffeo.compose


def swapped_compose(self, other, **kwargs):
    """The fault: g.compose(h) builds h(g(x)) instead of g(h(x))."""
    return ORIGINAL_COMPOSE(other, self, **kwargs)


def unswapped_inverted(self):
    """The fault: g.inverted() returns g itself under the label g^-1."""
    return PolyDiffeo._raw(self.forward, self.inverse, f"{self.label}^-1")


def report(capsys, *argv):
    cli.main(list(argv))
    return json.loads(capsys.readouterr().out)


def failing_rows(capsys, *argv):
    return {row["name"] for row in report(capsys, *argv)["checks"] if not row["pass"]}


@pytest.mark.parametrize(
    "command, rows",
    [
        ("check-cocycle-identity", {"cocycle_condition", "point_cycle_independence"}),
        ("check-calculus", {"right_action_law"}),
    ],
)
def test_swapped_compose_fails_named_rows(capsys, monkeypatch, command, rows):
    argv = (command, "--scenario", R2, "--samples", "3")
    assert failing_rows(capsys, *argv) == set()
    monkeypatch.setattr(PolyDiffeo, "compose", swapped_compose)
    assert failing_rows(capsys, *argv) == rows


def test_unswapped_inverse_corrupts_the_value(capsys, monkeypatch):
    # c(T(a), T(b)) = (1/2) w(a, b); with a = (-1, 0) and b = (0, 1) that is -1/2
    argv = ("eval-cocycle", "--scenario", R2, "--tuple", "T1^-1", "T2")
    assert report(capsys, *argv)["checks"][0]["value"] == "-1/2"
    monkeypatch.setattr(PolyDiffeo, "inverted", unswapped_inverted)
    assert report(capsys, *argv)["checks"][0]["value"] == "1/2"
