"""Scenario files: the user-facing description of (n, forms, group, cycle).

A scenario is a JSON object:

    {
      "name": "area",                     // optional
      "dimension": 2,
      "forms": [ {"name": "area", "form": {...}} ],   // first form drives the descent
      "group": { "generators": [ ... ] },
      "cycle": { "dim": 0, "simplices": [ ... ] },
      "verify": { "samples": 100, "max_word_length": 3, "seed": 7, "degree_cap": 64 }
    }

Generators come either from builtin constructors —

    {"type": "translation", "vector": ["1", "0"], "label": "T1"}
    {"type": "linear", "matrix": [["0","-1"],["1","0"]], "label": "rot90"}
    {"type": "shear", "axis": 1, "poly": [...], "label": "sigma"}

(1-based axis; the shear polynomial may not involve the sheared axis) —
or as an explicit map whose two sides are lists of ``dimension``
polynomials, checked to be inverse to each other:

    {"type": "explicit", "forward": [[...], [...]], "inverse": [[...], [...]], "label": "e"}

Every object, at every level, refuses keys it does not know.
Loading verifies symbolically that every generator preserves every
declared form and names the offending pair when one does not.  The
descent always runs to the top level p = m - 1 for a degree-m form and
cannot be set.  The cycle must be a 0-chain of points (which is always
a cycle) whose weights do not sum to 0: the cocycle is that sum times
its value at one point.

Group elements on the command line are written in a tiny expression
language over the generator labels: ``sigma``, ``T(1,0)``,
``rot90^-1``, ``T(1/2,0)*sigma^2``.
"""

from __future__ import annotations

import json
import re
from typing import Sequence

from .chains import Chain
from .diffeo import DEFAULT_DEGREE_CAP, GroupPresentation, PolyDiffeo
from .errors import InvarianceError, ScenarioError
from .forms import PolyForm
from .serialize import (
    chain_from_json,
    form_from_json,
    is_json_int,
    json_int,
    parse_fraction,
    polynomial_from_json,
    refuse_unknown_keys,
)
from .zigzag import ZigzagState, build_phi_sequence

# the keys each generator type accepts
_GENERATOR_KEYS = {
    "translation": ("type", "vector", "label"),
    "linear": ("type", "matrix", "label"),
    "shear": ("type", "axis", "poly", "label"),
    "explicit": ("type", "forward", "inverse", "label"),
}


class ScenarioConfig:
    """A loaded, validated scenario."""

    __slots__ = (
        "name",
        "dimension",
        "forms",
        "group",
        "cycle",
        "samples",
        "max_word_length",
        "seed",
    )

    def __init__(
        self,
        *,
        name: str,
        dimension: int,
        named_forms: Sequence[tuple[str, PolyForm]],
        group: GroupPresentation,
        cycle: Chain,
        samples: int,
        max_word_length: int,
        seed: int,
    ):
        self.name = name
        self.dimension = dimension
        self.forms = tuple(f for _, f in named_forms)
        self.group = group
        self.cycle = cycle
        self.samples = samples
        self.max_word_length = max_word_length
        self.seed = seed

    @property
    def degree_cap(self) -> int:
        return self.group.degree_cap

    def descent_form(self) -> PolyForm:
        return self.forms[0]

    def build_state(self) -> ZigzagState:
        return build_phi_sequence(self.descent_form(), self.group)


def _require(condition: bool, message: str):
    if not condition:
        raise ScenarioError(message)


def parse_generator_spec(data, dim: int) -> PolyDiffeo:
    _require(isinstance(data, dict), f"generator spec must be an object, got {data!r}")
    kind = data.get("type")
    _require(
        isinstance(kind, str) and kind in _GENERATOR_KEYS,
        f"unknown generator type {kind!r}; expected {', '.join(_GENERATOR_KEYS)}",
    )
    refuse_unknown_keys(data, _GENERATOR_KEYS[kind], f"{kind} generator")
    label = data.get("label", "")
    _require(isinstance(label, str), f"generator label must be a string, got {label!r}")
    if kind == "translation":
        vector = data.get("vector")
        _require(
            isinstance(vector, list) and len(vector) == dim,
            f"translation needs a vector of {dim} rationals",
        )
        return PolyDiffeo.translation([parse_fraction(v) for v in vector], label)
    if kind == "linear":
        matrix = data.get("matrix")
        _require(
            isinstance(matrix, list)
            and len(matrix) == dim
            and all(isinstance(row, list) and len(row) == dim for row in matrix),
            f"linear map needs a {dim}x{dim} matrix",
        )
        try:
            return PolyDiffeo.linear(
                [[parse_fraction(v) for v in row] for row in matrix], label
            )
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
    if kind == "shear":
        axis = data.get("axis")
        _require(
            is_json_int(axis) and 1 <= axis <= dim,
            f"shear axis must be an integer in 1..{dim}",
        )
        poly = polynomial_from_json(data.get("poly"), dim)
        try:
            return PolyDiffeo.shear(dim, axis - 1, poly, label)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
    forward, inverse = data.get("forward"), data.get("inverse")
    for side, comps in (("forward", forward), ("inverse", inverse)):
        _require(
            isinstance(comps, list) and len(comps) == dim,
            f"explicit {side} map needs a list of {dim} polynomials",
        )
    forward = [polynomial_from_json(c, dim) for c in forward]
    inverse = [polynomial_from_json(c, dim) for c in inverse]
    try:
        return PolyDiffeo(forward, inverse, label)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def _setting(value, key: str, minimum: int | None, maximum: int | None) -> int:
    """``value`` as the verify key ``key``: a JSON integer within the bounds."""
    value = json_int(value, key, minimum)
    _require(maximum is None or value <= maximum, f"{key} may be at most {maximum}, got {value}")
    return value


def load_scenario(path: str, *, samples=None, seed=None, degree_cap=None) -> ScenarioConfig:
    """Read, parse, and validate a scenario file.  ``samples``, ``seed`` and
    ``degree_cap``, when given, replace the verify keys of those names by the
    same rules, read once every check on the file has passed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # ValueError: bad JSON or UTF-8, or an int past the str digit limit;
        # RecursionError: nesting deeper than the parser recurses
        raise ScenarioError(f"scenario {path} is not valid JSON: {exc}") from None
    _require(isinstance(data, dict), "scenario must be a JSON object")
    refuse_unknown_keys(
        data,
        ("name", "description", "dimension", "forms", "group", "cycle", "verify"),
        "scenario",
    )

    dimension = data.get("dimension")
    _require(
        is_json_int(dimension) and 1 <= dimension <= MAX_DIMENSION,
        f"dimension must be an integer in 1..{MAX_DIMENSION}, got {dimension!r}",
    )

    raw_forms = data.get("forms")
    _require(
        isinstance(raw_forms, list) and raw_forms,
        "scenario needs a nonempty list of named forms",
    )
    named_forms: list[tuple[str, PolyForm]] = []
    for entry in raw_forms:
        _require(
            isinstance(entry, dict) and set(entry) == {"name", "form"},
            f"each form entry needs exactly name and form, got {entry!r}",
        )
        fname = entry["name"]
        _require(isinstance(fname, str) and fname, "form name must be a nonempty string")
        _require(
            fname not in (n for n, _ in named_forms),
            f"duplicate form name {fname!r}",
        )
        form = form_from_json(entry["form"])
        _require(
            form.dim == dimension,
            f"form {fname!r} lives on R^{form.dim}, scenario is on R^{dimension}",
        )
        named_forms.append((fname, form))

    group_data = data.get("group")
    _require(isinstance(group_data, dict), "scenario needs a group object")
    refuse_unknown_keys(group_data, ("generators",), "group")
    gen_specs = group_data.get("generators")
    _require(
        isinstance(gen_specs, list) and gen_specs,
        "group needs a nonempty generator list",
    )
    generators = [parse_generator_spec(spec, dimension) for spec in gen_specs]
    labels = [g.label for g in generators]
    _require(
        len(set(labels)) == len(labels),
        f"generator labels must be distinct, got {labels}",
    )
    for g in generators:
        for fname, form in named_forms:
            if not g.preserves(form):
                raise InvarianceError(
                    f"generator {g.label!r} does not preserve form {fname!r}"
                )

    verify = data.get("verify", {})
    _require(isinstance(verify, dict), "verify must be an object")
    # each verify key's default and bounds
    keys = {
        "samples": (100, 0, MAX_SAMPLES),
        "max_word_length": (3, 1, MAX_WORD_LENGTH),
        "seed": (0, None, None),
        "degree_cap": (DEFAULT_DEGREE_CAP, 1, MAX_DEGREE_CAP),
    }
    refuse_unknown_keys(verify, keys, "verify")
    settings = {k: _setting(verify.get(k, d), k, lo, hi) for k, (d, lo, hi) in keys.items()}

    cycle_data = data.get("cycle")
    _require(cycle_data is not None, "scenario needs a cycle")
    cycle = chain_from_json(cycle_data, ambient=dimension)

    descent_name, descent_form = named_forms[0]
    _require(
        not descent_form.is_zero(),
        f"form {descent_name!r} drives the descent and must be nonzero",
    )
    m = descent_form.degree
    _require(m >= 1, f"form {descent_name!r} has degree 0 and cannot drive the descent")
    _require(cycle.dim == 0, f"the cycle must be a 0-chain of points, got a {cycle.dim}-chain")
    _require(
        sum(cycle.terms.values()) != 0,
        "the cycle's weights sum to 0, so the cocycle would vanish identically",
    )

    name = data.get("name", "")
    _require(isinstance(name, str), "scenario name must be a string")

    for key, flag in (("samples", samples), ("seed", seed), ("degree_cap", degree_cap)):
        if flag is not None:
            settings[key] = _setting(flag, key, *keys[key][1:])
    cap = settings.pop("degree_cap")
    group = GroupPresentation(
        generators, [f for _, f in named_forms], degree_cap=cap, _trusted=True
    )
    return ScenarioConfig(
        name=name,
        dimension=dimension,
        named_forms=named_forms,
        group=group,
        cycle=cycle,
        **settings,
    )


# -- tuple expressions ------------------------------------------------------

# Largest |k| in g^k: the label names all k factors, and coefficients grow
# with k even where the degree cap never fires, as for a shear.
MAX_EXPONENT = 1000
# Largest verify.max_word_length: every sampled word composes up to that
# many letters, so the cost of a sweep grows with it and nothing else bounds it.
MAX_WORD_LENGTH = 100
# Largest sample count, from the file or --samples.  The suites draw every
# sampled tuple before the first check runs, so memory grows with the count.
MAX_SAMPLES = 10_000
# Largest verify.degree_cap, from the file or --degree-cap.  Each doubling of
# the degree reached costs several times the time: on r2, eval-cocycle of
# six factors sigma*rot90 (degree 64) and T1 took 0.23 s, and of seven
# (degree 128) 1.5 s, whole process on a 2-core machine, nearly all of it
# one pullback along the word; a full top-level d', which also pulls back
# along the word times T1, took 1.4 s and 15 s.
MAX_DEGREE_CAP = 128
# Largest scenario dimension.  Random forms walk all C(n, k) index tuples
# (check-calculus at --samples 1 took 5.2 s on R^10 and over 60 s on R^12,
# 2-core machine).  A monomial of total degree MAX_POLY_EXPONENT spread over
# every variable took 15.8 s to refuse under a translation of every
# coordinate on R^6, and its translate would have 9^8, about 43 M, terms on R^8.
MAX_DIMENSION = 6

_ATOM = re.compile(r"^(T\(([^()]*)\)|[A-Za-z_][A-Za-z0-9_-]*)(\^(-?\d+))?$")


def _parse_factor(text: str, config: ScenarioConfig) -> PolyDiffeo:
    match = _ATOM.match(text)
    if not match:
        raise ScenarioError(
            f"bad group element {text!r}: expected LABEL, T(...), or either with ^k"
        )
    atom, translation_args, _, power = match.groups()
    if translation_args is not None:
        parts = [p.strip() for p in translation_args.split(",")] if translation_args.strip() else []
        if len(parts) != config.dimension:
            raise ScenarioError(
                f"T(...) needs {config.dimension} coordinates, got {len(parts)} in {text!r}"
            )
        base = PolyDiffeo.translation([parse_fraction(p) for p in parts])
        # a translation is a group element only if it preserves the forms
        GroupPresentation([base], config.group.preserved_forms, degree_cap=config.degree_cap)
    else:
        try:
            base = config.group.generator(atom)
        except KeyError:
            known = ", ".join(config.group.labels())
            raise ScenarioError(
                f"unknown generator {atom!r}; scenario defines: {known}"
            ) from None
    if power is None:
        return base
    try:
        k = int(power)
    except ValueError:  # too many digits for int()
        k = None
    if k is None or abs(k) > MAX_EXPONENT:
        raise ScenarioError(
            f"exponent in {text!r} is out of range: |k| may be at most {MAX_EXPONENT}"
        )
    if k == 0:
        return PolyDiffeo.identity(config.dimension)
    if k < 0:
        base = base.inverted()
        k = -k
    # repeated squaring: base^k is the product of base^(2^i) over the set
    # bits i of k, with the label "base*base*...*base" of k factors
    out = None
    while True:
        if k & 1:
            out = base if out is None else out.compose(base, degree_cap=config.degree_cap)
        k >>= 1
        if not k:
            return out
        base = base.compose(base, degree_cap=config.degree_cap)


def parse_group_element(expr: str, config: ScenarioConfig) -> PolyDiffeo:
    """Evaluate one expression like ``sigma^2*T(1,0)`` to a group element."""
    text = expr.strip()
    if not text:
        raise ScenarioError("empty group-element expression")
    out = None
    for factor in text.split("*"):
        factor = factor.strip()
        if not factor:
            raise ScenarioError(f"empty factor in {expr!r}")
        g = _parse_factor(factor, config)
        out = g if out is None else out.compose(g, degree_cap=config.degree_cap)
    return out


def parse_tuple(exprs: Sequence[str], config: ScenarioConfig) -> tuple[PolyDiffeo, ...]:
    return tuple(parse_group_element(e, config) for e in exprs)
