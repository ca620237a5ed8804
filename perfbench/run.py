"""The cocycle-forge benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload descent --seed 1 --seconds 40 --trace 0

One process drives every command in-process through
``cocycle_forge.cli.main(argv)``, capturing stdout, with no threads or
child processes.  Workloads are described in ``workloads.py``.  Each
report is checked against ``oracle.py`` and the digests recorded in
``expected.json``; a report that disagrees counts as a wrong output and
makes the run incorrect.

``--trace 0`` measures for ``--seconds`` seconds and reports the
end-to-end metrics; ``--trace 1`` sends the workload's pool twice
untraced, then twice traced, checks that both traced passes give the
same counts, reports the per-layer metrics and writes the spans to
``perfbench/out/``.  The last line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from oracle import digest, report_digest  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import batch_order, batches, load_scenarios, scenario_names, scenario_path  # noqa: E402

PACKAGE = "cocycle_forge"
SETUP_REPS = 5  # at least this many set-ups per run; the median is reported
MIN_PASSES = 3
TIME_LIMIT_S = 170
CPUS = sorted(os.sched_getaffinity(0))

END_TO_END = {
    "samples_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def quietest_cpu(cpus):
    """Pin this process to the CPU of ``cpus`` that runs a short probe fastest.

    Other tenants of the host load one vCPU at a time, for seconds at a
    stretch; the scheduler cannot see that, so the run moves itself.
    """
    if len(cpus) < 2:
        return
    best = None
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        fastest = min(_probe() for _ in range(3))
        if best is None or fastest < best[0]:
            best = (fastest, cpu)
    os.sched_setaffinity(0, {best[1]})


def _probe() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    return time.perf_counter() - start


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Overrun(BaseException):
    """The run exceeded TIME_LIMIT_S (a BaseException so no op handler eats it)."""


def unit(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("hit_ratio", "yield")):
        return "ratio"
    if metric.endswith("_bits"):
        return "bits"
    return "count"


# -- set-up --------------------------------------------------------------------


class Package:
    """The package under test, imported from the checkout's ``src/``."""

    def __init__(self, names):
        self.src = ROOT / "src"
        if not (self.src / PACKAGE / "__init__.py").is_file():
            raise BenchError(f"no {PACKAGE} sources under {self.src}")
        if sys.path[0] != str(self.src):
            sys.path.insert(0, str(self.src))
        self.names = names
        self.setup_times: list[float] = []
        self.setup()
        if not Path(self.cli.__file__).resolve().is_relative_to(self.src):
            raise BenchError(f"imported {self.cli.__file__}, not the checkout's sources")

    def setup(self):
        """Import the package afresh, then load and build each scenario; timed."""
        for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        start = time.perf_counter()
        self.cli = importlib.import_module(PACKAGE + ".cli")
        scenario = importlib.import_module(PACKAGE + ".scenario")
        for name in self.names:
            scenario.load_scenario(scenario_path(name)).build_state()
        self.setup_times.append(time.perf_counter() - start)


# -- running and checking --------------------------------------------------------


class Tally:
    """What a run did and what went wrong, op by op."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []
        self.latencies: list[float] = []
        self.samples: list[int] = []
        self.inputs: list[str] = []  # input digest of each batch run

    def note(self, text):
        if len(self.notes) < 20:
            self.notes.append(text)


def invoke(cli, argv):
    """Run one CLI invocation in-process; returns (exit code, report, seconds)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except (Exception, SystemExit) as exc:
            code = f"raised {exc!r}"
        elapsed = time.perf_counter() - start
    try:
        report = json.loads(buf.getvalue())
    except ValueError:
        report = None
    return code, report, elapsed


def oracle_mismatch(op, report) -> str | None:
    """Why an eval-cocycle value disagrees with the oracle, if it does."""
    if op.expect is None:
        return None
    try:
        value = Fraction(report["checks"][0]["value"])
    except (KeyError, IndexError, TypeError, ValueError):
        value = None
    return None if value == op.expect else f"value {value} != oracle {op.expect}"


def run_op(cli, op, expected_digest, tally) -> int:
    """Run one op, check its report and tally it; returns its samples."""
    code, report, elapsed = invoke(cli, op.argv)
    tally.attempted += 1
    tally.latencies.append(elapsed)
    command = " ".join(op.argv)
    if report is None:
        tally.failed += 1
        tally.wrong += 1
        tally.note(f"no JSON report (exit {code}): {command}")
        return 0
    if code != 0 or report.get("pass") is not True:
        tally.failed += 1
        tally.note(f"exit {code}, pass={report.get('pass')}: {command}")
    if report_digest(report) != expected_digest:
        tally.wrong += 1
        tally.note(f"report digest differs from the recording: {command}")
    mismatch = oracle_mismatch(op, report)
    if mismatch:
        tally.wrong += 1
        tally.note(f"{mismatch}: {command}")
    return sum(c.get("samples", 0) for c in report.get("checks", ()))


def run_batches(package, order, expected, tally, *, tracer=None):
    """Run each batch of ``order`` once, each on the quietest CPU; returns the time of each op."""
    first = len(tally.latencies)
    for batch in order:
        quietest_cpu(CPUS)
        recorded = expected[batch.index]
        if batch.inputs_digest() != recorded["inputs"]:
            raise BenchError(f"batch {batch.index} inputs differ from the recording")
        tally.inputs.append(recorded["inputs"])
        for op, want in zip(batch.ops, recorded["reports"]):
            if tracer is not None:
                tracer.request = tally.attempted
            tally.samples.append(run_op(package.cli, op, want, tally))
    return tally.latencies[first:]


def measure(workload, seed, seconds, expected, *, min_passes=MIN_PASSES, setup_reps=SETUP_REPS):
    """The timed run: returns the tally and the end-to-end metrics.

    The run sends the whole pool in passes, in the seed's batch order, for
    ``seconds`` (a pass that would end later is not started) and at least
    ``min_passes`` times.  An op's time is its fastest pass: other tenants
    of the host slow single passes, and the fastest of passes spread over
    the run is the least disturbed.  The package is set up afresh after
    each pass: the set-up times then sample the whole run, and no state the
    package keeps at module level carries one pass's work into the next.
    Set-up comes once a pass, not once a batch, so that more of the run
    goes to passes: the fastest of more passes spreads less between runs.
    """
    names = scenario_names(workload)
    package = Package(names)
    pool = batches(workload, load_scenarios(ROOT, names))
    order = [pool[i] for i in batch_order(workload, seed)]
    tally = Tally()
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_batches(package, order, expected, tally))
        package.setup()
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    while len(package.setup_times) < setup_reps:
        package.setup()
    samples = sum(tally.samples[: len(passes[0])])
    fastest = [min(times) * 1000 for times in zip(*passes)]
    return tally, {
        "samples_per_s": 1000 * samples / sum(fastest),
        "latency_p50_ms": statistics.median(fastest),
        "latency_p90_ms": statistics.quantiles(fastest, n=10)[8] if len(fastest) > 1 else fastest[0],
        "setup_s": statistics.median(package.setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace(workload, seed, expected, *, trace_batches=None):
    """The traced run: returns the tally and the per-layer metrics.

    Sends the pool (or its first ``trace_batches``) twice untraced, then
    twice traced; the per-layer metrics come from the first traced pass,
    and the second must repeat its counts exactly.
    """
    names = scenario_names(workload)
    package = Package(names)
    pool = batches(workload, load_scenarios(ROOT, names))
    order = [pool[i] for i in batch_order(workload, seed)[:trace_batches]]
    tally = Tally()

    def one_pass(tracer=None):
        return run_batches(package, order, expected, tally, tracer=tracer)

    untraced = [one_pass(), one_pass()]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [one_pass(tracer)]
        metrics = tracer.layer_metrics()
        first = tracer.counters()
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"trace-{workload}-seed{seed}.csv.gz")
        tracer.reset()
        traced.append(one_pass(tracer))
        second = tracer.counters()
    finally:
        tracer.uninstall()
    if tracer.missing:
        tally.note("not traced (absent from the package): " + ", ".join(tracer.missing))
    if first != second:
        tally.wrong += 1
        diff = sorted(k for k in set(first) | set(second) if first.get(k) != second.get(k))
        tally.note("traced counts differ between two passes: " + ", ".join(diff))
    # each op's fastest traced pass minus its fastest untraced pass, summed
    metrics["trace.overhead_s"] = sum(map(min, zip(*traced))) - sum(map(min, zip(*untraced)))
    return tally, metrics


def run(workload, seed, seconds, traced, expected=None, **limits) -> dict:
    """One benchmark run; returns the result object printed last."""
    if expected is None:
        with open(HERE / "expected.json", encoding="utf-8") as fh:
            expected = json.load(fh)
    recorded = expected[workload]
    if traced:
        tally, metrics = trace(workload, seed, recorded, **limits)
    else:
        tally, metrics = measure(workload, seed, seconds, recorded, **limits)
    return {
        "correct": tally.wrong == 0 and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong_outputs": tally.wrong,
        "inputs_digest": digest(tally.inputs),
        "notes": tally.notes,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }


def render(workload, seed, result) -> list[str]:
    """The lines a run prints; the last one is the result as one JSON object."""
    lines = [f"note: {text}" for text in result["notes"]]
    attempted, failed = result["attempted"], result["failed"]
    lines.append(f"workload {workload}, seed {seed}, inputs {result['inputs_digest']}")
    lines.append(f"fail_ratio {failed / attempted:.4f} ({failed} of {attempted} operations)")
    lines.append(f"wrong_outputs {result['wrong_outputs']}")
    for name, metric in result["metrics"].items():
        lines.append(f"{name} {metric['value']} {metric['unit']}")
    keys = ("correct", "attempted", "failed", "metrics")
    lines.append(json.dumps({k: result[k] for k in keys}))
    return lines


def _overrun(signum, frame):
    raise Overrun()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("descent", "kernel", "eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(TIME_LIMIT_S)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace == 1)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Overrun:
        print(f"perfbench: run exceeded {TIME_LIMIT_S} s", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
    print("\n".join(render(args.workload, args.seed, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
