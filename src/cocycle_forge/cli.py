"""Command-line front end: scenario in, deterministic JSON report out.

Commands
--------

build-cocycle          run the descent, report the cochain ladder
eval-cocycle           exact cocycle values on explicit tuples (--tuple)
check-cocycle-identity Dc = 0, staircase consistency, point independence
check-triviality       c = Db on cycle-fixing tuples; comparison identity
check-closed-form      descent vs (1/m!) w(a_1,...,a_m) on translations
check-calculus         wedge/d/h/contraction/pullback identity sweeps
stokes-check           exact Stokes on random simplices
check-fgamma           transgression lemmas in the translation picture

Every run prints exactly one JSON document to stdout, a refused command
line included; only --help prints text instead, wrapped at 78 columns
whatever the terminal.  All numbers in the document are exact rational
strings; reports are byte-identical for identical (scenario, flags),
which the test suite asserts by rerunning commands and comparing raw
bytes.  Timing is therefore opt-in (--timings) and reported as integer
milliseconds.  Exit status is 0 exactly when every check in the report
passed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .checks import (
    build_suite,
    calculus_suite,
    closed_form_suite,
    cocycle_identity_suite,
    eval_suite,
    fgamma_suite,
    stokes_suite,
    triviality_suite,
)
from .errors import CocycleForgeError, ScenarioError
from .scenario import ScenarioConfig, load_scenario
from .serialize import json_ready


# Every command and the suite that returns its report's check records.  A
# suite that needs the descent gets it built before it validates anything
# else.  Each entry looks its suite up when called, so a replaced suite
# takes effect.
COMMANDS = {
    "build-cocycle": lambda cfg, args: build_suite(cfg.build_state()),
    "eval-cocycle": lambda cfg, args: eval_suite(cfg.build_state(), cfg, args.tuple),
    "check-cocycle-identity": lambda cfg, args: cocycle_identity_suite(
        cfg.build_state(), cfg.cycle, cfg.samples, cfg.seed, cfg.max_word_length
    ),
    "check-triviality": lambda cfg, args: triviality_suite(
        cfg.build_state(), cfg.cycle, cfg.samples, cfg.seed, cfg.max_word_length, args.subgroup
    ),
    "check-closed-form": lambda cfg, args: closed_form_suite(
        cfg.build_state(), cfg.samples, cfg.seed
    ),
    "check-calculus": lambda cfg, args: calculus_suite(cfg.group, cfg.samples, cfg.seed),
    "stokes-check": lambda cfg, args: stokes_suite(cfg.dimension, cfg.samples, cfg.seed),
    "check-fgamma": lambda cfg, args: fgamma_suite(cfg.dimension, cfg.samples, cfg.seed),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals print the failure document and exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        _emit(_failure(None, None, ScenarioError(message)), pretty=False)
        self.exit(2)


class _HelpFormatter(argparse.HelpFormatter):
    """Help wrapped at 78 columns, as argparse wraps it with no terminal
    attached, whatever the terminal: no ``shutil.get_terminal_size`` call."""

    def __init__(self, prog):
        super().__init__(prog, width=78)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cocycle-forge",
        formatter_class=_HelpFormatter,
        description=(
            "Exact construction and verification of group cocycles from "
            "invariant polynomial forms on R^n."
        ),
    )
    parser.add_argument("command", choices=COMMANDS, help="what to run")
    parser.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    parser.add_argument(
        "--samples", type=int, default=None, help="override the scenario's sample count"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the scenario's seed"
    )
    parser.add_argument(
        "--tuple",
        nargs="+",
        default=None,
        metavar="GEN-EXPR",
        help="group elements for eval-cocycle, e.g. sigma T(0,1) rot90^-1",
    )
    parser.add_argument(
        "--degree-cap",
        type=int,
        default=None,
        help="override the scenario's composition degree cap",
    )
    parser.add_argument("--pretty", action="store_true", help="indented JSON output")
    parser.add_argument(
        "--subgroup",
        choices=["linear", "stabilizer"],
        default="linear",
        help="which cycle-fixing subgroup check-triviality samples",
    )
    parser.add_argument(
        "--timings",
        action="store_true",
        help="include elapsed milliseconds (makes reports time-dependent)",
    )
    return parser


def run_command(command: str, config: ScenarioConfig, args) -> dict:
    """Execute one command against a loaded scenario; returns the report."""
    started = time.perf_counter()
    checks = COMMANDS[command](config, args)
    report = {
        "command": command,
        "scenario": args.scenario,
        "scenario_name": config.name,
        "seed": config.seed,
        "samples": config.samples,
        "degree_cap": config.degree_cap,
        "checks": checks,
        "pass": all(c.get("pass", False) for c in checks),
    }
    if args.timings:
        report["elapsed_ms"] = int((time.perf_counter() - started) * 1000)
    return report


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_scenario(
            args.scenario, samples=args.samples, seed=args.seed, degree_cap=args.degree_cap
        )
        report = run_command(args.command, config, args)
        payload = json_ready(report)
    except CocycleForgeError as exc:
        _emit(_failure(args.command, args.scenario, exc), args.pretty)
        return 2
    _emit(payload, args.pretty)
    return 0 if report["pass"] else 1


def _failure(command, scenario, exc: CocycleForgeError) -> dict:
    """The document of a run refused with ``exc``."""
    return {
        "command": command,
        "scenario": scenario,
        "error": {"type": type(exc).__name__, "message": str(exc)},
        "pass": False,
    }


def _emit(payload: dict, pretty: bool):
    """Print one JSON document; every value in ``payload`` is already plain."""
    if pretty:
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    sys.stdout.write(text + "\n")


if __name__ == "__main__":
    sys.exit(main())
