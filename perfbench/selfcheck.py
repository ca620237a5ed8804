"""Quick self-check of the benchmark itself, in about a minute:

    python3 perfbench/selfcheck.py

- runs each workload at a tiny size (one batch), untraced and traced, and
  asserts that every metric BENCHMARK.json names is printed with its unit,
  and that ``layers.json`` explains every per-layer metric;
- asserts that a traced run gives the same counts twice;
- asserts that a wrong recorded digest and a wrong oracle value each make
  ``wrong_outputs`` positive and the run incorrect;
- asserts that the benchmark exits non-zero, printing no result, in a
  directory that holds only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import oracle
from run import HERE, ROOT, render, run

TINY = {"min_passes": 1, "setup_reps": 1}
COUNT_UNITS = ("count", "bits")


def printed(workload, result) -> dict:
    """name -> unit for every metric line a run prints, checked against its JSON."""
    lines = render(workload, 1, result)
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last
    shown = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and parts[0] in last["metrics"]:
            shown[parts[0]] = parts[2]
    assert shown == {k: v["unit"] for k, v in last["metrics"].items()}, shown
    return shown


def expect_metrics(result, declared, workload):
    assert result["correct"], (workload, result["notes"])
    shown = printed(workload, result)
    want = {m["name"]: m["unit"] for m in declared}
    assert shown == want, (workload, sorted(set(shown) ^ set(want)))


def main():
    os.chdir(ROOT)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(HERE / "layers.json", encoding="utf-8") as fh:
        layers = json.load(fh)
    per_layer = {m["name"] for m in bench["per_layer"]}
    assert set(layers) == per_layer, sorted(set(layers) ^ per_layer)

    for workload in [w["name"] for w in bench["workloads"]]:
        result = run(workload, 1, 0, False, **TINY)
        expect_metrics(result, bench["end_to_end"], workload)
        assert all(v["value"] > 0 for v in result["metrics"].values()), result["metrics"]
        first = run(workload, 1, 0, True, trace_batches=1)
        expect_metrics(first, bench["per_layer"], workload)
        second = run(workload, 1, 0, True, trace_batches=1)
        counts = [
            {k: v["value"] for k, v in r["metrics"].items() if v["unit"] in COUNT_UNITS}
            for r in (first, second)
        ]
        assert counts[0] == counts[1], workload
        print(f"ok {workload}: metrics printed with units, traced counts repeat")

    with open(HERE / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)
    broken = copy.deepcopy(expected)
    for entry in broken["kernel"]:
        entry["reports"][0] = "0" * 16
    result = run("kernel", 1, 0, False, expected=broken, **TINY)
    assert result["wrong_outputs"] > 0 and not result["correct"], result
    key = ("r2_area", ("sigma", "T2"))
    pinned = oracle.PINNED[key]
    oracle.PINNED[key] = pinned + Fraction(1, 3)
    try:
        result = run("eval", 1, 0, False, **TINY)
    finally:
        oracle.PINNED[key] = pinned
    assert result["wrong_outputs"] > 0 and not result["correct"], result
    print("ok: a wrong recorded digest and a wrong oracle value are both caught")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, *bench["command"][1:], "--workload", "eval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok: exits {proc.returncode} with no result where only the benchmark is present")


if __name__ == "__main__":
    main()
