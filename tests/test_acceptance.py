"""The nine headline acceptance properties, end to end, tolerance zero.

Each test prints exactly one summary line (bypassing pytest's capture,
so the lines show up in any run) and then asserts.  Everything is exact
rational arithmetic: a single off-by-anything sample fails the property.

Covered, in order:

1. descent over translations reproduces (1/m!) w(a_1,...,a_m) on R^4
2. Dc = 0 in bulk on the area and volume scenarios under the degree cap
3. c(sigma, T_(0,1)) = -1/6, cross-checked against the sympy engine
4. c = Db on origin-fixing unimodular tuples + the comparison identity
5. the exterior-calculus identity sweeps
6. exact Stokes on random simplices
7. the transgression lemmas on point and segment-built cycles
8. cocycle values do not depend on which point cycle is integrated over
9. byte-identical reports on repeated CLI runs
"""

import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp

import descent_oracle
from cocycle_forge.chains import Chain
from cocycle_forge.checks import (
    calculus_suite,
    closed_form_random_sweep,
    cocycle_identity_suite,
    fgamma_suite,
    point_independence_suite,
    stokes_suite,
    triviality_suite,
)
from cocycle_forge.scenario import load_scenario
from cocycle_forge.zigzag import cocycle_eval

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
R1 = str(SCENARIO_DIR / "r1_line.json")
R2 = str(SCENARIO_DIR / "r2_area.json")
R3 = str(SCENARIO_DIR / "r3_volume.json")
R4 = str(SCENARIO_DIR / "r4_symplectic.json")


@pytest.fixture(scope="module")
def area():
    config = load_scenario(R2)
    return config, config.build_state()


@pytest.fixture(scope="module")
def volume():
    config = load_scenario(R3)
    return config, config.build_state()


def announce(capsys, number, label, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {number}/9 {label}: {detail}")


def test_1_translation_closed_form(capsys):
    started = time.perf_counter()
    results = [closed_form_random_sweep(4, m, 50, seed=101) for m in (1, 2, 3, 4)]
    elapsed = time.perf_counter() - started
    ok = all(r["failures"] == 0 and r["samples"] == 50 for r in results)
    ok = ok and elapsed < 60
    announce(
        capsys,
        1,
        "translation closed form on R^4",
        ok,
        f"degrees 1-4, 50 fresh descents each, {sum(r['failures'] for r in results)}"
        f" failures, {elapsed:.1f}s",
    )
    assert ok, results


def test_2_cocycle_identity_bulk(capsys, area, volume):
    def cocycle_condition(config, state, samples, max_word_length):
        checks = cocycle_identity_suite(
            state, config.cycle, samples, config.seed, max_word_length
        )
        return next(c for c in checks if c["name"] == "cocycle_condition")

    started = time.perf_counter()
    config2, state2 = area
    report2 = cocycle_condition(config2, state2, 200, 3)
    config3, state3 = volume
    report3 = cocycle_condition(config3, state3, 50, 2)
    elapsed = time.perf_counter() - started
    ok = (
        report2["failures"] == 0
        and report2["samples"] == 200
        and report3["failures"] == 0
        and report3["samples"] == 50
        and config2.degree_cap == 64
        and config3.degree_cap == 64
        and elapsed < 300
    )
    announce(
        capsys,
        2,
        "Dc = 0 in bulk",
        ok,
        f"200 area triples + 50 volume 4-tuples, "
        f"{report2['failures'] + report3['failures']} violations, {elapsed:.1f}s",
    )
    assert ok, (report2, report3)


def test_3_shear_value_against_independent_engine(capsys, area):
    config, state = area
    sigma = config.group.generator("sigma")
    step = config.group.generator("T2")
    ours = cocycle_eval(state, config.cycle, [sigma, step])
    oracle = descent_oracle.shear_translation_value()
    oracle_q = Fraction(int(sp.numer(oracle)), int(sp.denom(oracle)))
    ok = ours == Fraction(-1, 6) == oracle_q
    announce(
        capsys,
        3,
        "shear pair value",
        ok,
        f"package {ours}, sympy engine {oracle_q}, frozen expectation -1/6",
    )
    assert ok


def test_4_stabilizer_triviality(capsys, area):
    config, state = area
    checks = triviality_suite(state, config.cycle, 100, config.seed, 3, "linear")
    by_name = {c["name"]: c for c in checks}
    stab = by_name["coboundary_on_linear_stabilizer"]
    mixed = by_name["coboundary_comparison_identity"]
    ok = (
        stab["failures"] == 0
        and stab["samples"] == 100
        and mixed["failures"] == 0
        and mixed["samples"] == 100
    )
    announce(
        capsys,
        4,
        "triviality on the origin-fixing stabilizer",
        ok,
        f"c = Db on 100 unimodular tuples, comparison identity on 100 mixed"
        f" tuples, {stab['failures'] + mixed['failures']} failures",
    )
    assert ok, checks


def test_5_calculus_suite(capsys, area):
    config, _ = area
    checks = calculus_suite(config.group, 100, config.seed)
    ok = all(c["failures"] == 0 for c in checks) and all(
        c["samples"] >= 100 for c in checks
    )
    announce(
        capsys,
        5,
        "exterior-calculus identities",
        ok,
        f"{len(checks)} identity sweeps x 100 samples, "
        f"{sum(c['failures'] for c in checks)} failures",
    )
    assert ok, checks


def test_6_stokes(capsys):
    checks = stokes_suite(4, 100, seed=29)
    stokes = next(c for c in checks if c["name"] == "stokes_exact")
    ok = stokes["failures"] == 0 and stokes["samples"] == 100
    ok = ok and stokes["max_abs_residual"] == 0
    announce(
        capsys,
        6,
        "exact Stokes",
        ok,
        f"100 random simplices in R^4, coefficient degree <= 4, "
        f"{stokes['failures']} failures",
    )
    assert ok, checks


def test_7_transgression_lemmas(capsys):
    checks = fgamma_suite(2, 50, seed=31)
    names = {c["name"] for c in checks}
    wanted = {
        "point_cycle_identity_on_constants",
        "d_intertwines_fgamma_point",
        "d_intertwines_fgamma_loop",
        "delta_prime_intertwines_Fgamma_point",
        "delta_prime_intertwines_Fgamma_loop",
    }
    ok = wanted <= names and all(c["failures"] == 0 for c in checks)
    announce(
        capsys,
        7,
        "transgression lemmas",
        ok,
        f"point + segment-loop cycles, 50 samples per lemma, "
        f"{sum(c['failures'] for c in checks)} failures",
    )
    assert ok, checks


def test_8_point_cycle_independence(capsys, area):
    config, state = area
    checks = point_independence_suite(state, 50, config.seed, 3)
    check = checks[0]
    ok = (
        check["failures"] == 0
        and check["samples"] == 50
        and check["points"] == [[Fraction(0), Fraction(0)], [Fraction(3), Fraction(-2)]]
    )
    announce(
        capsys,
        8,
        "point-cycle independence",
        ok,
        f"values at (0,0) vs (3,-2) on 50 tuples, {check['failures']} failures",
    )
    assert ok, checks


def test_9_byte_identical_reports(capsys):
    runs = [
        ("build-cocycle", R2, []),
        ("eval-cocycle", R2, ["--tuple", "sigma", "T(0,1)"]),
        ("check-cocycle-identity", R2, []),
        ("check-cocycle-identity", R3, []),
        ("check-triviality", R2, []),
        ("check-closed-form", R2, []),
        ("check-calculus", R2, []),
        ("stokes-check", R2, []),
        ("check-fgamma", R2, []),
    ]
    mismatches = []
    for command, scenario, extra in runs:
        argv = [sys.executable, "-m", "cocycle_forge", command, "--scenario", scenario]
        argv += extra
        # start both runs before waiting on either, so they overlap
        first, second = [
            subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for _ in range(2)
        ]
        first_out, _ = first.communicate()
        second_out, _ = second.communicate()
        if not (
            first.returncode == second.returncode == 0
            and first_out == second_out
            and json.loads(first_out)["pass"] is True
        ):
            mismatches.append((command, scenario, first.returncode, second.returncode))
    ok = not mismatches
    announce(
        capsys,
        9,
        "deterministic reports",
        ok,
        f"{len(runs)} command runs repeated twice, byte-identical"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )
    assert ok, mismatches
