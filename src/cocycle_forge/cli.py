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

Every run prints exactly one JSON document to stdout.  All numbers in
the document are exact rational strings; reports are byte-identical for
identical (scenario, flags), which the test suite asserts by rerunning
commands and comparing raw bytes.  Timing is therefore opt-in
(--timings) and reported as integer milliseconds.  Exit status is 0
exactly when every check in the report passed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .chains import Chain
from .checks import (
    calculus_suite,
    closed_form_random_sweep,
    closed_form_scenario_check,
    cocycle_identity_suite,
    fgamma_suite,
    point_independence_suite,
    stokes_suite,
    triviality_suite,
)
from .diffeo import GroupPresentation
from .errors import CocycleForgeError, ScenarioError
from .forms import ext_d
from .scenario import ScenarioConfig, load_scenario, parse_tuple
from .serialize import form_to_json, json_ready
from .zigzag import ZigzagState, cocycle_eval

COMMANDS = (
    "build-cocycle",
    "eval-cocycle",
    "check-cocycle-identity",
    "check-triviality",
    "check-closed-form",
    "check-calculus",
    "stokes-check",
    "check-fgamma",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cocycle-forge",
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
    style = parser.add_mutually_exclusive_group()
    style.add_argument(
        "--json", action="store_true", help="compact JSON output (default)"
    )
    style.add_argument("--pretty", action="store_true", help="indented JSON output")
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


def _apply_overrides(config: ScenarioConfig, args) -> ScenarioConfig:
    if args.samples is not None:
        if args.samples < 0:
            raise ScenarioError("--samples must be >= 0")
        config.samples = args.samples
    if args.seed is not None:
        config.seed = args.seed
    if args.degree_cap is not None:
        if args.degree_cap < 1:
            raise ScenarioError("--degree-cap must be >= 1")
        config.group = GroupPresentation(
            config.group.generators,
            config.group.preserved_forms,
            degree_cap=args.degree_cap,
            _trusted=True,
        )
    return config


def _run_build(config: ScenarioConfig, state: ZigzagState) -> list[dict]:
    m = state.m
    ladder = [
        {"level": i, "group_degree": i, "form_degree": m - i - 1}
        for i in range(state.p + 1)
    ]
    base_ok = (state.omega + ext_d(state.phi(0)())).is_zero()
    sample_values = []
    g = config.group.generators[0]
    for i in range(1, state.p + 1):
        value = state.phi(i)(*([g] * i))
        sample_values.append(
            {"level": i, "tuple": [g.label] * i, "value": form_to_json(value)}
        )
    return [
        {
            "name": "descent_build",
            "samples": 1,
            "failures": 0 if base_ok else 1,
            "pass": base_ok,
            "form_degree": m,
            "depth": state.p,
            "ladder": ladder,
            "phi0": form_to_json(state.phi(0)()),
            "sample_values": sample_values,
        }
    ]


def _run_eval(config: ScenarioConfig, state: ZigzagState, exprs) -> list[dict]:
    if not exprs:
        raise ScenarioError("eval-cocycle needs --tuple with p+1 group elements")
    needed = state.p + 1
    if len(exprs) != needed:
        raise ScenarioError(
            f"eval-cocycle needs exactly {needed} group elements, got {len(exprs)}"
        )
    gs = parse_tuple(exprs, config)
    value = cocycle_eval(state, config.cycle, gs)
    return [
        {
            "name": "eval_cocycle",
            "samples": 1,
            "failures": 0,
            "pass": True,
            "tuple": list(exprs),
            "labels": [g.label for g in gs],
            "value": value,
        }
    ]


def run_command(command: str, config: ScenarioConfig, args) -> dict:
    """Execute one command against a loaded scenario; returns the report."""
    started = time.perf_counter()
    samples = config.samples
    seed = config.seed
    state = None
    if command in (
        "build-cocycle",
        "eval-cocycle",
        "check-cocycle-identity",
        "check-triviality",
        "check-closed-form",
    ):
        state = config.build_state()

    if command == "build-cocycle":
        checks = _run_build(config, state)
    elif command == "eval-cocycle":
        checks = _run_eval(config, state, args.tuple)
    elif command == "check-cocycle-identity":
        checks = cocycle_identity_suite(
            state, config.cycle, samples, seed, config.max_word_length
        )
        checks += point_independence_suite(
            state, min(samples, 50), seed, config.max_word_length
        )
    elif command == "check-triviality":
        checks = triviality_suite(
            state, config.cycle, samples, seed, config.max_word_length, args.subgroup
        )
    elif command == "check-closed-form":
        checks = closed_form_scenario_check(state, samples, seed)
        checks.append(
            closed_form_random_sweep(
                config.dimension, state.m, samples, seed
            )
        )
    elif command == "check-calculus":
        checks = calculus_suite(config.group, samples, seed)
    elif command == "stokes-check":
        checks = stokes_suite(config.dimension, samples, seed)
    elif command == "check-fgamma":
        checks = fgamma_suite(config.dimension, samples, seed)
    else:  # pragma: no cover - argparse rejects unknown commands first
        raise ScenarioError(f"unknown command {command!r}")

    report = {
        "command": command,
        "scenario": args.scenario,
        "scenario_name": config.name,
        "seed": seed,
        "samples": samples,
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
        config = _apply_overrides(load_scenario(args.scenario), args)
        report = run_command(args.command, config, args)
        payload = json_ready(report)
    except CocycleForgeError as exc:
        failure = {
            "command": args.command,
            "scenario": args.scenario,
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "pass": False,
        }
        _emit(failure, args)
        return 2
    _emit(payload, args)
    return 0 if report["pass"] else 1


def _emit(payload: dict, args):
    """Print one JSON document; every value in ``payload`` is already plain."""
    if args.pretty:
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    sys.stdout.write(text + "\n")


if __name__ == "__main__":
    sys.exit(main())
