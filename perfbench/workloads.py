"""The benchmark's workloads as seeded batches of CLI invocations.

A batch is a unit of a run: for ``descent`` and ``kernel`` the
workload's check commands on its scenarios, all with one ``--seed``; for
``eval`` a list of ``eval-cocycle`` requests.  Each workload has a fixed
pool of batches whose report digests are recorded in ``expected.json``,
so every output is checked against a recording.  Every run sends the
whole pool; the benchmark seed sets the order.  Runs with different
seeds therefore measure the same work, and their spread is the
machine's, not the inputs'.

Why these workloads:

- ``descent`` stresses the group side: word sampling and the compose in
  each delta-prime merge, memo reuse in the descent cochains, pullbacks
  of phi values, and poincare_h on each rung, on nonlinear shears at
  p = 1 (r2) and p = 2 (r3).
- ``kernel`` spends nearly all its time in polynomial ring operations,
  wedge/pullback and translated simplex integration, with little group
  composition and no descent memo: a group-layer change should read flat
  here and a ring-kernel change should show most clearly.
- ``eval`` is a closed loop with one client sending one eval-cocycle
  request at a time, each a fresh CLI call: scenario load, invariance
  check, descent set-up, tuple parse, one evaluation and serialisation.
  Memos are cold and used once, so a cache that pays off in ``descent``
  but costs on insertion shows here, and so does work moved into set-up.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import NamedTuple

from oracle import PINNED, closed_form, constant_form, digest

# Batches per workload: at least 100 ops in all, so that a p90 over ops
# has ten above it.
POOL = {"descent": 13, "kernel": 17, "eval": 2}

# --samples cycles through this range across the ops of a batch and across
# batches, so that latencies spread over a continuum instead of one cluster
# per command, and every batch has the same mix of sizes.  Larger samples
# make single ops of several hundred ms, whose fastest pass other tenants
# of a shared host disturb the most.
SAMPLES = (1, 2)

CHECKS = {
    "descent": {
        "scenarios": ("r2_area", "r3_volume"),
        "commands": (
            ("check-cocycle-identity",),
            ("check-triviality", "--subgroup", "linear"),
            ("check-triviality", "--subgroup", "stabilizer"),
            ("check-closed-form",),
        ),
    },
    "kernel": {
        "scenarios": ("r4_symplectic", "r2_area"),
        "commands": (("check-calculus",), ("check-fgamma",), ("stokes-check",)),
    },
}

EVAL_SCENARIOS = ("r1_line", "r2_area", "r3_volume", "r4_symplectic")
EVAL_REQUESTS = 100
# Powers in generated expressions.  Large exponents are left out on purpose:
# parsing g^k composes k-1 times, so rot90^200000 does not finish today.
# That is a robustness defect of the parser, not a performance input.
POWERS = (1, 1, 1, -1, 2, -2, 3)
TRANSLATION_ONLY_SHARE = 0.4


class Op(NamedTuple):
    argv: tuple
    # exact value an eval-cocycle report must carry, when the oracle knows it
    expect: Fraction | None = None


class Batch(NamedTuple):
    index: int
    ops: tuple

    def inputs_digest(self) -> str:
        return digest([list(op.argv) for op in self.ops])


def scenario_path(name: str) -> str:
    return f"scenarios/{name}.json"


def load_scenarios(root, names) -> dict:
    out = {}
    for name in names:
        with open(root / scenario_path(name), encoding="utf-8") as fh:
            out[name] = json.load(fh)
    return out


def scenario_names(workload: str) -> tuple:
    if workload == "eval":
        return EVAL_SCENARIOS
    return CHECKS[workload]["scenarios"]


def batches(workload: str, scenarios: dict) -> list[Batch]:
    """All batches of a workload, in pool order."""
    if workload == "eval":
        return [_eval_batch(i, scenarios) for i in range(POOL[workload])]
    spec = CHECKS[workload]
    lo, hi = SAMPLES
    out = []
    for i in range(POOL[workload]):
        argvs = [
            (command[0], "--scenario", scenario_path(name)) + command[1:]
            for name in spec["scenarios"]
            for command in spec["commands"]
        ]
        ops = [
            Op(argv + ("--samples", str(lo + (i + k) % (hi - lo + 1)), "--seed", str(1000 + i)))
            for k, argv in enumerate(argvs)
        ]
        out.append(Batch(i, tuple(ops)))
    return out


def batch_order(workload: str, seed: int) -> list[int]:
    """The order in which a run with this seed visits the pool."""
    order = list(range(POOL[workload]))
    random.Random(seed).shuffle(order)
    return order


# -- eval request generator --------------------------------------------------


def _generator_table(scenario: dict) -> dict:
    """label -> (degree, translation vector or None) for builtin generators."""
    table = {}
    for g in scenario["group"]["generators"]:
        if g["type"] == "translation":
            table[g["label"]] = (1, tuple(Fraction(v) for v in g["vector"]))
        elif g["type"] == "linear":
            table[g["label"]] = (1, None)
        elif g["type"] == "shear":
            table[g["label"]] = (max(1, max(sum(t["exps"]) for t in g["poly"])), None)
    return table


def _factor(rng, table, dim, translations_only):
    labels = [k for k, (_, v) in table.items() if v is not None or not translations_only]
    if not labels or rng.random() < 0.25:
        vector = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim))
        text, degree = "T(" + ",".join(str(v) for v in vector) + ")", 1
    else:
        text = rng.choice(labels)
        degree, vector = table[text]
    k = rng.choice(POWERS)
    if k != 1:
        text += f"^{k}"
    return text, degree ** abs(k), None if vector is None else tuple(k * v for v in vector)


def _expression(rng, table, dim, translations_only):
    """One group element: text, a-priori degree bound, translation vector."""
    factors = [_factor(rng, table, dim, translations_only) for _ in range(rng.choice((1, 1, 2)))]
    bound = 1
    vector = (Fraction(0),) * dim
    for _, degree, vec in factors:
        bound *= degree
        vector = None if vector is None or vec is None else tuple(a + b for a, b in zip(vector, vec))
    return "*".join(f[0] for f in factors), bound, vector


def _eval_request(rng, name, scenario):
    """A tuple whose a-priori degree bound stays within the degree cap.

    Parsing and every merge in the descent compose at most the elements
    of the tuple, and the degree of a composite is at most the product of
    the degrees, so the product of the generator degrees over the whole
    tuple bounds every degree the cap is checked against: the request
    cannot be refused.
    """
    form = scenario["forms"][0]["form"]
    dim = scenario["dimension"]
    width = scenario.get("descent", {}).get("p", form["degree"] - 1) + 1
    cap = scenario.get("verify", {}).get("degree_cap", 64)
    table = _generator_table(scenario)
    translations_only = rng.random() < TRANSLATION_ONLY_SHARE
    while True:
        exprs = [_expression(rng, table, dim, translations_only) for _ in range(width)]
        bound = 1
        for _, b, _ in exprs:
            bound *= b
        if bound <= cap:
            break
    texts = tuple(e[0] for e in exprs)
    vectors = [e[2] for e in exprs]
    expect = PINNED.get((name, texts))
    constant = constant_form(scenario)
    if expect is None and constant is not None and None not in vectors:
        expect = closed_form(constant, vectors)
    return _eval_op(name, texts, expect)


def _eval_op(name, texts, expect):
    return Op(("eval-cocycle", "--scenario", scenario_path(name), "--tuple") + texts, expect)


def _eval_batch(index: int, scenarios: dict) -> Batch:
    """The pinned requests, then the same number of requests per scenario."""
    rng = random.Random(f"eval:{index}")
    ops = [_eval_op(name, texts, value) for (name, texts), value in PINNED.items()]
    names = [EVAL_SCENARIOS[k % len(EVAL_SCENARIOS)] for k in range(EVAL_REQUESTS - len(ops))]
    rng.shuffle(names)
    ops += [_eval_request(rng, name, scenarios[name]) for name in names]
    return Batch(index, tuple(ops))
