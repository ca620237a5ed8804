"""Every CLI report pinned by digest: refactors must leave them byte-identical.

Each case runs ``cli.main`` in-process and hashes its stdout after two
normalizations: the time- and counter-dependent keys ``elapsed_ms`` and
``stats`` are dropped, and the ``scenario`` path is reduced to its file
name so the digests do not depend on where the repository lives.  The
exit code is pinned alongside the digest.

The digests in ``golden_reports.json`` were recorded from the code as it
stood before the cochain and sweep refactor, and are meant to change
only with a deliberate change of report content.  To re-record them:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from cocycle_forge import cli

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"

SCENARIOS = ("r1_line", "r2_area", "r3_volume", "r4_symplectic")
SAMPLED = (
    ("check-cocycle-identity",),
    ("check-triviality", "--subgroup", "linear"),
    ("check-triviality", "--subgroup", "stabilizer"),
    ("check-closed-form",),
    ("check-calculus",),
    ("stokes-check",),
    ("check-fgamma",),
    ("build-cocycle",),
)
EVAL_TUPLES = {
    "r1_line": (("Tm",),),
    "r2_area": (("sigma", "T2"), ("rot90^-1", "sigma*T(1/2,0)")),
    "r3_volume": (("s23", "T1", "T2"),),
    "r4_symplectic": (("q2", "rot34"),),
}
VOLATILE = ("elapsed_ms", "stats")


def _cases():
    cases = []
    for scenario in SCENARIOS:
        for samples in ("0", "3"):
            for command in SAMPLED:
                cases.append((scenario, *command, "--samples", samples))
        for tup in EVAL_TUPLES[scenario]:
            cases.append((scenario, "eval-cocycle", "--tuple", *tup))
        cases.append((scenario, "eval-cocycle"))
    return cases


CASES = _cases()


def _case_id(case) -> str:
    return " ".join(case)


def _strip(node):
    if isinstance(node, dict):
        return {k: _strip(v) for k, v in node.items() if k not in VOLATILE}
    if isinstance(node, list):
        return [_strip(v) for v in node]
    return node


def run_case(case) -> tuple[int, str]:
    """Exit code and sha256 of the normalized report for one case."""
    scenario, command, *rest = case
    path = str(SCENARIO_DIR / f"{scenario}.json")
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main([command, "--scenario", path, *rest])
    text = out.getvalue()
    report = _strip(json.loads(text))
    assert report["scenario"] == path
    report["scenario"] = f"{scenario}.json"
    canonical = json.dumps(report, separators=(",", ":"), sort_keys=True) + "\n"
    return code, hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_case_id(c) for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_report_digest(case, golden):
    code, digest = run_case(case)
    assert {"exit": code, "sha256": digest} == golden[_case_id(case)]


if __name__ == "__main__":
    recorded = {}
    for case in CASES:
        code, digest = run_case(case)
        recorded[_case_id(case)] = {"exit": code, "sha256": digest}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stderr.write(f"recorded {len(recorded)} digests in {GOLDEN.name}\n")
