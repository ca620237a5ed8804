"""Zig-zag descent from an invariant exact m-form to a group cocycle.

Starting from a closed m-form w preserved by every generator, the
descent builds cochains phi_i in C^i(G, Omega^{m-i-1}(R^n)):

    phi_0 = -h(w),     so that  w = -d(phi_0),
    phi_i(g_1,...,g_i) = h( (-1)^{i+1} (d'phi_{i-1})(g_1,...,g_i) ),

where h is the radial homotopy operator and d' the group differential.
The sign makes the staircase identity d'phi_{i-1} + d''phi_i = 0 hold
on every tuple, because d(h(eta)) = eta for closed eta of positive
degree and d'' carries the sign (-1)^i.  Each right-hand side is checked
closed before h is applied; a failure means the input was not invariant
or something upstream is broken, so it raises instead of continuing.

Integrating d'phi_p over a cycle of complementary dimension then gives
a real-valued cocycle: the p+1 cochain

    c(g_1,...,g_{p+1}) = int_alpha (d'phi_p)(g_1,...,g_{p+1}),

which satisfies Dc = 0 identically.  On the translation subgroup with a
point cycle, c collapses to the closed form (1/m!) w(a_1,...,a_m), and
this module reproduces that value exactly, not merely up to coboundary.

A companion cochain b(g_1,...,g_p) = int_alpha phi_p(g_1,...,g_p)
controls triviality: in general

    c(g_1,...,g_p,g) = (-1)^{p+1} ( int_{g(alpha)} phi_p(g_1,...,g_p)
                                    - b(g_1,...,g_p) )
                       + (Db)(g_1,...,g_p,g),

so whenever every element under test maps alpha to itself, c = Db on
those tuples.  ``checks.triviality_suite`` checks both sides of this
identity on sampled tuples; their difference must always vanish.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from typing import Sequence

from .chains import Chain, integrate, require_cycle
from .cochain import Cochain, delta_double_prime, delta_prime
from .diffeo import GroupPresentation, PolyDiffeo
from .errors import (
    DimensionMismatchError,
    InvarianceError,
    NotClosedError,
)
from .forms import PolyForm, evaluate, ext_d, poincare_h
from .polynomial import as_point


class ZigzagState:
    """The form, the group, and the descent cochains phi_0..phi_p.

    ``phis[i]`` is an i-cochain valued in forms of degree m-i-1 and
    ``dprimes[i]`` is d'phi_i, one cochain (and one memo table) per
    level, shared by every downstream evaluation.  ``dprimes`` may hand
    in a prefix d'phi_0, d'phi_1, ... already built over these phis;
    the rest are built here.  Direct construction is allowed (the test
    suite uses it to corrupt a level on purpose); ``build_phi_sequence``
    is the checked factory.
    """

    __slots__ = ("omega", "p", "group", "phis", "dprimes")

    def __init__(
        self,
        omega: PolyForm,
        p: int,
        group: GroupPresentation,
        phis: Sequence[Cochain],
        dprimes: Sequence[Cochain] = (),
    ):
        self.omega = omega
        self.p = p
        self.group = group
        self.phis = tuple(phis)
        if len(self.phis) != p + 1:
            raise ValueError(f"descent to depth {p} needs {p + 1} cochains")
        self.dprimes = tuple(dprimes) + tuple(
            delta_prime(phi, group.degree_cap) for phi in self.phis[len(dprimes) :]
        )

    @property
    def m(self) -> int:
        return self.omega.degree

    def phi(self, i: int) -> Cochain:
        return self.phis[i]

    def descent_residual(self, i: int, gs: Sequence[PolyDiffeo]) -> PolyForm:
        """(d'phi_{i-1} + d''phi_i)(g_1..g_i); zero on a sound descent."""
        if not 1 <= i <= self.p:
            raise ValueError(f"descent level {i} out of range 1..{self.p}")
        lhs = self.dprimes[i - 1](*gs)
        rhs = delta_double_prime(self.phis[i])(*gs)
        return lhs + rhs


def build_phi_sequence(omega: PolyForm, p: int, group: GroupPresentation) -> ZigzagState:
    """Run the descent to depth p and return the assembled state.

    Requires a nonzero closed form that every generator preserves; the
    check is skipped when the group was built to preserve it.  On
    R^n only p = m-1 pairs with a cycle of dimension 0 and produces a
    nonvanishing real cocycle; other depths are allowed for
    experimentation but warn.
    """
    if omega.is_zero():
        raise ValueError("the descent needs a nonzero form")
    if omega.dim != group.dim:
        raise DimensionMismatchError("form and group live on different spaces")
    if not ext_d(omega).is_zero():
        raise NotClosedError("the input form is not closed")
    if omega not in group.preserved_forms:
        for g in group.generators:
            if not g.preserves(omega):
                raise InvarianceError(
                    f"generator {g.label or repr(g)} does not preserve the input form"
                )
    m = omega.degree
    if p < 0 or p > m - 1:
        raise ValueError(
            f"descent depth {p} out of range: a degree-{m} form supports 0..{m - 1}"
        )
    if p != m - 1:
        warnings.warn(
            f"descent depth {p} != {m - 1}: the paired cycles have positive "
            "dimension and the resulting real cocycle vanishes identically on R^n",
            stacklevel=2,
        )
    phi0_value = -poincare_h(omega)
    phis = [Cochain(0, m - 1, omega.dim, lambda: phi0_value)]
    # Level i holds d'phi_{i-1} itself and the state is handed the same
    # cochains, so each level has one memo.  Reading it through the state
    # instead would tie the state and its memos into a reference cycle,
    # left for the cyclic garbage collector to free.
    dprimes = []
    for i in range(1, p + 1):
        dprimes.append(delta_prime(phis[i - 1], group.degree_cap))

        def evaluator(*gs, _dp=dprimes[-1], _i=i):
            rhs = _dp(*gs)
            if _i % 2 == 0:
                rhs = -rhs
            if not ext_d(rhs).is_zero():
                raise NotClosedError(
                    f"level-{_i} descent input is not closed on "
                    f"({', '.join(g.label or '?' for g in gs)})"
                )
            return poincare_h(rhs)

        phis.append(Cochain(i, m - i - 1, omega.dim, evaluator))
    return ZigzagState(omega, p, group, phis, dprimes)


def _check_alpha(state: ZigzagState, alpha: Chain):
    if alpha.ambient != state.omega.dim:
        raise DimensionMismatchError("cycle and form live in different spaces")
    expected = state.m - state.p - 1
    if alpha.dim != expected:
        raise DimensionMismatchError(
            f"cycle dimension {alpha.dim} does not match m-p-1 = {expected}"
        )
    require_cycle(alpha, "integration cycle")
    if alpha.dim > 0:
        # Every public entry calls _integral itself, so the caller of that
        # entry is four frames up.
        warnings.warn(
            "positive-dimensional cycle on R^n: the coefficient module is "
            "trivial, so the cocycle vanishes identically",
            stacklevel=4,
        )


def cocycle_eval(
    state: ZigzagState, alpha: Chain, gs: Sequence[PolyDiffeo]
) -> Fraction:
    """The cocycle value int_alpha (d'phi_p)(g_1,...,g_{p+1}): the one-shot
    form of ``cocycle``, which a loop over tuples should build once."""
    return _integral(state, alpha, state.dprimes[state.p])(*gs)


def _integral(state: ZigzagState, alpha: Chain, integrand: Cochain) -> Cochain:
    """The real-valued cochain int_alpha integrand(g_1,...), same group degree."""
    _check_alpha(state, alpha)

    def evaluator(*gs: PolyDiffeo) -> Fraction:
        return integrate(integrand(*gs), alpha)

    return Cochain(integrand.p, None, integrand.dim, evaluator)


def cocycle(state: ZigzagState, alpha: Chain) -> Cochain:
    """The cocycle as a reusable real-valued (p+1)-cochain."""
    return _integral(state, alpha, state.dprimes[state.p])


def closed_form_translation(omega: PolyForm, vectors: Sequence[Sequence]) -> Fraction:
    """(1/m!) w(a_1,...,a_m) for a constant-coefficient m-form w.

    This is the value the full descent produces on translation tuples
    with a point cycle; alternating and multilinear in the vectors.
    """
    if not omega.is_constant_coefficient():
        raise ValueError("closed form needs a constant-coefficient form")
    m = omega.degree
    vecs = [as_point(v, omega.dim) for v in vectors]
    if len(vecs) != m:
        raise ValueError(f"a degree-{m} form pairs with {m} vectors, got {len(vecs)}")
    origin = [0] * omega.dim
    return evaluate(omega, origin, vecs) / math.factorial(m)


def b_cochain(state: ZigzagState, alpha: Chain) -> Cochain:
    """The trivializing cochain as a reusable real-valued p-cochain."""
    return _integral(state, alpha, state.phi(state.p))

