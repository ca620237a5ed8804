"""Scenario files: the user-facing description of (n, forms, group, cycle).

A scenario is a JSON object:

    {
      "name": "area",                     // optional
      "dimension": 2,
      "forms": [ {"name": "area", "form": {...}} ],   // first form drives the descent
      "group": { "generators": [ ... ] },
      "cycle": { "dim": 0, "simplices": [ ... ] },
      "descent": { "p": 1, "homotopy": "poincare-origin" },
      "verify": { "samples": 100, "max_word_length": 3, "seed": 7, "degree_cap": 64 }
    }

Generators come either from builtin constructors —

    {"type": "translation", "vector": ["1", "0"], "label": "T1"}
    {"type": "linear", "matrix": [["0","-1"],["1","0"]], "label": "rot90"}
    {"type": "shear", "axis": 1, "poly": [...], "label": "sigma"}

(1-based axis; the shear polynomial may not involve the sheared axis) —
or as explicit forward/inverse component pairs ({"type": "explicit"}).
Every object, at every level, refuses keys it does not know.
Loading verifies symbolically that every generator preserves every
declared form and names the offending pair when one does not.

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
    diffeo_from_json,
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
        "form_names",
        "forms",
        "group",
        "cycle",
        "descent_p",
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
        descent_p: int,
        samples: int,
        max_word_length: int,
        seed: int,
    ):
        self.name = name
        self.dimension = dimension
        self.form_names = tuple(n for n, _ in named_forms)
        self.forms = tuple(f for _, f in named_forms)
        self.group = group
        self.cycle = cycle
        self.descent_p = descent_p
        self.samples = samples
        self.max_word_length = max_word_length
        self.seed = seed

    @property
    def degree_cap(self) -> int:
        return self.group.degree_cap

    def descent_form(self) -> PolyForm:
        return self.forms[0]

    def build_state(self) -> ZigzagState:
        return build_phi_sequence(self.descent_form(), self.descent_p, self.group)


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
    g = diffeo_from_json(data)
    _require(g.dim == dim, f"explicit generator has dimension {g.dim}, not {dim}")
    return g


def load_scenario(path: str) -> ScenarioConfig:
    """Read, parse, and validate a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario {path} is not valid JSON: {exc}") from None
    _require(isinstance(data, dict), "scenario must be a JSON object")
    refuse_unknown_keys(
        data,
        ("name", "description", "dimension", "forms", "group", "cycle", "descent", "verify"),
        "scenario",
    )

    dimension = data.get("dimension")
    _require(
        is_json_int(dimension) and dimension >= 1,
        f"dimension must be a positive integer, got {dimension!r}",
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
    refuse_unknown_keys(verify, ("samples", "max_word_length", "seed", "degree_cap"), "verify")
    samples = json_int(verify.get("samples", 100), "samples", 0)
    max_word_length = json_int(verify.get("max_word_length", 3), "max_word_length", 1)
    _require(
        max_word_length <= MAX_WORD_LENGTH,
        f"max_word_length may be at most {MAX_WORD_LENGTH}, got {max_word_length}",
    )
    seed = json_int(verify.get("seed", 0), "seed")
    degree_cap = json_int(verify.get("degree_cap", DEFAULT_DEGREE_CAP), "degree_cap", 1)

    group = GroupPresentation(
        generators, [f for _, f in named_forms], degree_cap=degree_cap, _trusted=True
    )

    cycle_data = data.get("cycle")
    _require(cycle_data is not None, "scenario needs a cycle")
    cycle = chain_from_json(cycle_data, ambient=dimension)

    descent = data.get("descent", {})
    _require(isinstance(descent, dict), "descent must be an object")
    refuse_unknown_keys(descent, ("p", "homotopy"), "descent")
    descent_name, descent_form = named_forms[0]
    _require(
        not descent_form.is_zero(),
        f"form {descent_name!r} drives the descent and must be nonzero",
    )
    m = descent_form.degree
    _require(m >= 1, f"form {descent_name!r} has degree 0 and cannot drive the descent")
    descent_p = json_int(descent.get("p", m - 1), "p", 0)
    _require(
        descent_p <= m - 1,
        f"descent p must be in 0..{m - 1} for a degree-{m} form, got {descent_p}",
    )
    homotopy = descent.get("homotopy", "poincare-origin")
    _require(
        homotopy == "poincare-origin",
        f"unsupported homotopy {homotopy!r}; only poincare-origin is implemented",
    )

    name = data.get("name", "")
    _require(isinstance(name, str), "scenario name must be a string")

    return ScenarioConfig(
        name=name,
        dimension=dimension,
        named_forms=named_forms,
        group=group,
        cycle=cycle,
        descent_p=descent_p,
        samples=samples,
        max_word_length=max_word_length,
        seed=seed,
    )


# -- tuple expressions ------------------------------------------------------

# Largest |k| in g^k: the label names all k factors, and coefficients grow
# with k even where the degree cap never fires, as for a shear.
MAX_EXPONENT = 1000
# Largest verify.max_word_length: every sampled word composes up to that
# many letters, so the cost of a sweep grows with it and nothing else bounds it.
MAX_WORD_LENGTH = 100

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
