"""Exact group cocycles from invariant polynomial forms on R^n.

The package builds real-valued group cocycles on groups of polynomial
diffeomorphisms preserving a closed form, by descending through the
double complex of form-valued group cochains with an explicit radial
homotopy operator, and verifies every step with exact rational
arithmetic — no floating point anywhere.

Quick tour::

    >>> from fractions import Fraction
    >>> from cocycle_forge import (
    ...     Chain, GroupPresentation, PolyDiffeo, PolyForm,
    ...     build_phi_sequence, cocycle_eval,
    ... )
    >>> area = PolyForm.volume(2)                       # dx^dy
    >>> t1 = PolyDiffeo.translation([1, 0], "T1")
    >>> t2 = PolyDiffeo.translation([0, 1], "T2")
    >>> group = GroupPresentation([t1, t2], [area])
    >>> state = build_phi_sequence(area, 1, group)
    >>> cocycle_eval(state, Chain.point([0, 0]), (t1, t2))
    Fraction(1, 2)

The command-line tool ``cocycle-forge`` drives the same machinery from
JSON scenario files; see the README for the schema.
"""

from .chains import AffineSimplex, Chain, boundary, integrate, is_cycle, pushforward
from .cochain import Cochain, F_gamma, delta_double_prime, delta_prime, f_gamma
from .diffeo import DEFAULT_DEGREE_CAP, GroupPresentation, PolyDiffeo
from .errors import (
    CocycleForgeError,
    DegreeCapExceededError,
    DimensionMismatchError,
    InvarianceError,
    NonAffineImageError,
    NotACycleError,
    NotClosedError,
    ScenarioError,
    ValueTooLargeError,
)
from .forms import (
    PolyForm,
    PolyVectorField,
    evaluate,
    ext_d,
    interior,
    lie_derivative,
    poincare_h,
    pullback,
    wedge,
)
from .polynomial import Polynomial
from .scenario import ScenarioConfig, load_scenario, parse_group_element
from .zigzag import (
    ZigzagState,
    build_phi_sequence,
    closed_form_translation,
    cocycle,
    cocycle_eval,
)

__version__ = "0.1.0"

__all__ = [
    "AffineSimplex",
    "Chain",
    "Cochain",
    "CocycleForgeError",
    "DEFAULT_DEGREE_CAP",
    "DegreeCapExceededError",
    "DimensionMismatchError",
    "F_gamma",
    "GroupPresentation",
    "InvarianceError",
    "NonAffineImageError",
    "NotACycleError",
    "NotClosedError",
    "PolyDiffeo",
    "PolyForm",
    "PolyVectorField",
    "Polynomial",
    "ScenarioConfig",
    "ScenarioError",
    "ValueTooLargeError",
    "ZigzagState",
    "boundary",
    "build_phi_sequence",
    "closed_form_translation",
    "cocycle",
    "cocycle_eval",
    "delta_double_prime",
    "delta_prime",
    "evaluate",
    "ext_d",
    "f_gamma",
    "integrate",
    "interior",
    "is_cycle",
    "lie_derivative",
    "load_scenario",
    "parse_group_element",
    "poincare_h",
    "pullback",
    "pushforward",
    "wedge",
]
