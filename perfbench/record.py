"""Record the report digests that the benchmark checks runs against.

    python3 perfbench/record.py

Runs every batch in every workload's pool once and writes
``perfbench/expected.json``.  It refuses to record when a command fails
or an eval-cocycle value disagrees with the oracle, so a recording only
ever holds reports that passed every check.  Record again only when the
workloads or the report format change on purpose.
"""

from __future__ import annotations

import json
import os
import sys

from run import HERE, ROOT, Package, invoke, oracle_mismatch
from oracle import report_digest
from workloads import batches, load_scenarios, scenario_names


def record(workload: str) -> list[dict]:
    names = scenario_names(workload)
    cli = Package(names).cli
    entries = []
    for batch in batches(workload, load_scenarios(ROOT, names)):
        digests = []
        for op in batch.ops:
            code, report, _ = invoke(cli, op.argv)
            command = " ".join(op.argv)
            if report is None or code != 0 or report.get("pass") is not True:
                sys.exit(f"not recording: exit {code} on {command}")
            mismatch = oracle_mismatch(op, report)
            if mismatch:
                sys.exit(f"not recording: {mismatch} on {command}")
            digests.append(report_digest(report))
        entries.append({"inputs": batch.inputs_digest(), "reports": digests})
    return entries


def main():
    os.chdir(ROOT)
    expected = {w: record(w) for w in ("descent", "kernel", "eval")}
    with open(HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
