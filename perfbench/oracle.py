"""Output checks that share no code with cocycle_forge.

Everything here reads scenario files and reports as plain JSON and does
its own exact arithmetic in ``fractions.Fraction``, so a change to the
package cannot change what these checks expect.

- ``closed_form`` is the paper's value of the cocycle on translation
  tuples with a point cycle: c(T_a1, ..., T_am) = (1/m!) w(a1, ..., am).
- ``PINNED`` holds values fixed by hand on the area scenario, one of them
  on a nonlinear shear where no closed form applies.
- ``report_digest`` is a canonical hash of a report with its
  time-dependent keys removed, compared against the digests recorded in
  ``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

# Keys whose values may differ between identical runs: wall-clock time now,
# and the operation-count block a later version of the program may add.
VOLATILE_KEYS = frozenset({"elapsed_ms", "stats"})

# (scenario, tuple expressions) -> exact cocycle value.  -1/6 is the value
# the test suite pins against its own sympy implementation of the descent;
# 1/2 is (1/2!) dx^dy(e1, e2).
PINNED = {
    ("r2_area", ("sigma", "T2")): Fraction(-1, 6),
    ("r2_area", ("T1", "T2")): Fraction(1, 2),
}


def digest(obj) -> str:
    """Short stable hash of a JSON-serialisable value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _strip(obj):
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if k not in VOLATILE_KEYS}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


def report_digest(report: dict) -> str:
    return digest(_strip(report))


def det(rows) -> Fraction:
    """Determinant of a square matrix of Fractions by exact elimination."""
    mat = [list(row) for row in rows]
    n = len(mat)
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            result = -result
        result *= mat[col][col]
        for r in range(col + 1, n):
            factor = mat[r][col] / mat[col][col]
            if factor:
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[col])]
    return result


def constant_form(scenario: dict):
    """The descent form of a scenario as [(0-based axes, coefficient)].

    Returns None when a coefficient is not constant, since the closed
    form only holds for constant-coefficient forms.
    """
    out = []
    for comp in scenario["forms"][0]["form"]["components"]:
        coeff = Fraction(0)
        for term in comp["poly"]:
            if any(term["exps"]):
                return None
            coeff += Fraction(term["coeff"])
        out.append((tuple(i - 1 for i in comp["idx"]), coeff))
    return out


def closed_form(form, vectors) -> Fraction:
    """(1/m!) w(a_1, ..., a_m) for a constant form w and m vectors."""
    total = Fraction(0)
    for axes, coeff in form:
        total += coeff * det([[v[a] for a in axes] for v in vectors])
    return total / math.factorial(len(vectors))
