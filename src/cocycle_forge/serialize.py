"""JSON readers for scenario objects and writers for report values.

Rationals travel as strings ("3", "-1/2") so that exactness survives
serialization; exponent vectors are integer arrays; form component
indices are 1-based in files, matching the dx_1..dx_n naming, and
0-based in memory.  Emission orders every collection deterministically,
which is what makes byte-identical reports possible.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .chains import AffineSimplex, Chain
from .errors import ScenarioError
from .forms import PolyForm
from .polynomial import Polynomial, fraction_to_str

# The rational literals that Python 3.11's ``Fraction`` reads, pinned so
# that every supported interpreter reads the same ones: a sign, then p/q
# with no spaces around "/", or a decimal with an optional exponent; "_"
# only singly between digits.  Matched against the stripped string.
_RATIONAL = re.compile(
    r"[-+]?(?=\d|\.\d)(\d+(_\d+)*)?"
    r"(/\d+(_\d+)*|(\.(\d+(_\d+)*)?)?([eE][-+]?(?P<exp>\d+(_\d+)*))?)"
)
# CPython's default int-to-str digit limit, for where the limit is off or absent
_DEFAULT_DIGIT_LIMIT = 4300
# Largest total degree of one monomial in a scenario polynomial.  Loading
# pulls every form back along every generator and checks every explicit
# inverse by composition, and both expand powers up to this degree: a
# form coefficient x1^1000 on R^4 took 2 s to check on a 2-core machine,
# and the pullback of x^a along a translation of every coordinate has
# prod(a_i + 1) terms.  64 is also the default degree cap, which counts
# total degree too.
MAX_POLY_EXPONENT = 64


def parse_fraction(data) -> Fraction:
    """Parse an exact rational from an int or a string; reject floats.

    A string may be "p/q", an integer, a decimal such as "-0.25" or
    exponent notation such as "3e-2", with digits grouped by single
    underscores ("1_000") and whitespace around it, as Python 3.11's
    ``Fraction`` reads them; the same strings are read on every
    interpreter.  An exponent larger in magnitude than Python's
    int-to-str digit limit (``sys.get_int_max_str_digits()``, or its
    default 4,300 where that limit is off or absent) is refused before
    the value is built, since building 10**exponent takes time without
    bound.
    """
    if isinstance(data, bool):
        raise ScenarioError(f"expected a rational, got {data!r}")
    if isinstance(data, int):
        return Fraction(data)
    if isinstance(data, str):
        literal = _RATIONAL.fullmatch(data.strip())
        if not literal:  # worded as Fraction words it, so reports keep their bytes
            raise ScenarioError(
                f"bad rational literal {data!r}: Invalid literal for Fraction: {data!r}"
            )
        if literal["exp"]:
            digits = literal["exp"].replace("_", "").lstrip("0")
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or _DEFAULT_DIGIT_LIMIT
            if len(digits) > len(str(limit)) or int(digits or 0) > limit:
                raise ScenarioError(
                    f"bad rational literal {data!r}: exponent magnitude above {limit}"
                )
        try:
            return Fraction(literal[0].replace("_", ""))
        except ZeroDivisionError:
            raise ScenarioError(f"bad rational literal {data!r}: zero denominator") from None
        except ValueError as exc:
            raise ScenarioError(f"bad rational literal {data!r}: {exc}") from None
    raise ScenarioError(
        f"expected a rational as string or integer, got {type(data).__name__}"
    )


# -- polynomials ------------------------------------------------------------


def polynomial_to_json(poly: Polynomial) -> list:
    return [
        {"exps": list(exp), "coeff": fraction_to_str(coeff)}
        for exp, coeff in poly.sorted_terms()
    ]


def is_json_int(value) -> bool:
    """Whether ``value`` is a JSON integer: an int, and not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def json_int(value, what: str, minimum: int | None = None) -> int:
    """``value`` itself if it is a JSON integer >= ``minimum`` (when one is
    given); floats, strings and booleans are refused rather than truncated
    or parsed."""
    if is_json_int(value) and (minimum is None or value >= minimum):
        return value
    bound = "" if minimum is None else f" >= {minimum}"
    raise ScenarioError(f"{what} must be an integer{bound}, got {value!r}")


def refuse_unknown_keys(data: dict, allowed, what: str):
    """Raise a ``ScenarioError`` naming every key of ``data`` not in ``allowed``."""
    unknown = set(data) - set(allowed)
    if unknown:
        raise ScenarioError(f"unknown {what} keys: {sorted(unknown)}")


def polynomial_from_json(data, dim: int) -> Polynomial:
    if not isinstance(data, list):
        raise ScenarioError("polynomial must be a list of terms")
    terms: dict[tuple, Fraction] = {}
    for entry in data:
        if not isinstance(entry, dict) or set(entry) != {"exps", "coeff"}:
            raise ScenarioError(f"bad polynomial term {entry!r}")
        exps = entry["exps"]
        if (
            not isinstance(exps, list)
            or len(exps) != dim
            or any(not is_json_int(e) or e < 0 for e in exps)
        ):
            raise ScenarioError(
                f"exponent vector {exps!r} must be {dim} non-negative integers"
            )
        if sum(exps) > MAX_POLY_EXPONENT:
            raise ScenarioError(
                f"exponent vector {exps!r} has total degree above {MAX_POLY_EXPONENT}"
            )
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + parse_fraction(entry["coeff"])
    return Polynomial(dim, terms)


# -- forms ------------------------------------------------------------------


def form_to_json(form: PolyForm) -> dict:
    return {
        "dim": form.dim,
        "degree": form.degree,
        "components": [
            {"idx": [a + 1 for a in idx], "poly": polynomial_to_json(form.components[idx])}
            for idx in sorted(form.components)
        ],
    }


def form_from_json(data) -> PolyForm:
    if not isinstance(data, dict):
        raise ScenarioError("form must be an object")
    refuse_unknown_keys(data, ("dim", "degree", "components"), "form")
    try:
        dim = data["dim"]
        degree = data["degree"]
        raw = data["components"]
    except KeyError as exc:
        raise ScenarioError(f"form needs dim, degree, components: {exc}") from None
    dim = json_int(dim, "form dim", 0)
    degree = json_int(degree, "form degree", 0)
    if not isinstance(raw, list):
        raise ScenarioError("form components must be a list")
    comps = {}
    for entry in raw:
        if not isinstance(entry, dict) or set(entry) != {"idx", "poly"}:
            raise ScenarioError(f"bad form component {entry!r}")
        axes = entry["idx"]
        if not isinstance(axes, list) or any(not is_json_int(a) for a in axes):
            raise ScenarioError(f"component index {axes!r} must be a list of integers")
        if any(not 1 <= a <= dim for a in axes):
            raise ScenarioError(f"component index {axes!r} out of range 1..{dim}")
        idx = tuple(a - 1 for a in axes)
        poly = polynomial_from_json(entry["poly"], dim)
        if idx in comps:
            comps[idx] = comps[idx] + poly
        else:
            comps[idx] = poly
    try:
        return PolyForm(dim, degree, comps)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


# -- chains -----------------------------------------------------------------


def chain_from_json(data, ambient: int) -> Chain:
    if not isinstance(data, dict) or "dim" not in data or "simplices" not in data:
        raise ScenarioError("chain must be an object with dim and simplices")
    refuse_unknown_keys(data, ("dim", "simplices"), "chain")
    dim = json_int(data["dim"], "chain dim", 0)
    raw = data["simplices"]
    if not isinstance(raw, list):
        raise ScenarioError("chain simplices must be a list")
    terms: dict[AffineSimplex, Fraction] = {}
    for entry in raw:
        if not isinstance(entry, dict) or set(entry) != {"coeff", "verts"}:
            raise ScenarioError(f"bad simplex entry {entry!r}")
        verts = entry["verts"]
        if (
            not isinstance(verts, list)
            or len(verts) != dim + 1
            or any(not isinstance(v, list) or len(v) != ambient for v in verts)
        ):
            raise ScenarioError(
                f"a {dim}-simplex in R^{ambient} needs {dim + 1} vertices "
                f"of {ambient} coordinates"
            )
        try:
            simplex = AffineSimplex(
                [[parse_fraction(x) for x in v] for v in verts]
            )
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
        terms[simplex] = terms.get(simplex, 0) + parse_fraction(entry["coeff"])
    return Chain(dim, ambient, terms)


# -- report plumbing --------------------------------------------------------


def json_ready(obj):
    """Recursively convert Fractions to exact strings for JSON emission."""
    if isinstance(obj, Fraction):
        return fraction_to_str(obj)
    if isinstance(obj, dict):
        return {k: json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if isinstance(obj, float):
        raise TypeError(f"floating-point value {obj!r} has no place in a report")
    return obj
