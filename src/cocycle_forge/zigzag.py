"""Zig-zag descent from an invariant exact m-form to a group cocycle.

Starting from a closed m-form w preserved by every generator, the
descent builds cochains phi_i in C^i(G, Omega^{m-i-1}(R^n)):

    phi_0 = -h(w),     so that  w = -d(phi_0),
    phi_i(g_1,...,g_i) = h( (-1)^{i+1} (d'phi_{i-1})(g_1,...,g_i) ),

where h is the radial homotopy operator and d' the group differential.
The sign makes the staircase identity d'phi_{i-1} + d''phi_i = 0 hold
on every tuple, because d(h(eta)) = eta for closed eta of positive
degree and d'' carries the sign (-1)^i.

The levels are evaluated in collapsed form.  h contracts with the Euler
field, so h.h = 0; every value of phi_{i-1} is a value of h, so h kills
every term of d'phi_{i-1} but the last, the pullback along g_i, and

    phi_i(g_1,...,g_i) = -h( g_i^* phi_{i-1}(g_1,...,g_{i-1}) )

exactly, for i >= 2.  A level therefore forms no product of group
elements and reads phi_{i-1} on one tuple only.  Level 1 keeps the
paper's right-hand side phi_0 - g^* phi_0 and checks it closed before
applying h; a level i >= 2 checks that g_i preserves w before pulling
back along it.  By induction every element a level pulls back along has
been checked, and that invariance is what made the right-hand sides
closed.  A failure means the group does not preserve w, so it raises
instead of continuing.  The checks in ``checks`` build the full d' over
these levels (``ZigzagState.descent_residual``, the cocycle condition,
point independence and the comparison identity), so each run tests the
collapse as well.

The descent always runs to the top level p = m - 1, where phi_p is
valued in 0-forms.  Integrating d'phi_p over a 0-chain of points alpha
then gives a real-valued cocycle: the p+1 cochain

    c(g_1,...,g_{p+1}) = int_alpha (d'phi_p)(g_1,...,g_{p+1}),

which satisfies Dc = 0 identically.  (A shallower depth would pair a
closed form of positive degree, which is exact on R^n, with a cycle
that bounds, so its cocycle would vanish identically.)  On the
translation subgroup with a point cycle, c collapses to the closed form
(1/m!) w(a_1,...,a_m), and this module reproduces that value exactly,
not merely up to coboundary.

No h follows the top d', so ``cocycle`` keeps all its terms: it is the
cochain that the checks read, so they test the full top d' on every
run.  One value needs less.  (d'phi_p)(g_1,...,g_m) is a closed 0-form,
hence a constant, and every face but the last is a value of h, which
vanishes at the centre 0; so for alpha = sum_x w_x [x]

    c(g_1,...,g_m) = (-1)^m (sum_x w_x) phi_p(g_1,...,g_p)(g_m(0))

exactly.  ``cocycle_eval`` reads this centre value: one level value at
one point, and no product of group elements.

A companion cochain b(g_1,...,g_p) = int_alpha phi_p(g_1,...,g_p)
controls triviality: in general

    c(g_1,...,g_p,g) = (-1)^{p+1} ( int_{g(alpha)} phi_p(g_1,...,g_p)
                                    - b(g_1,...,g_p) )
                       + (Db)(g_1,...,g_p,g),

so whenever every element under test maps alpha to itself, c = Db on
those tuples.  ``checks.triviality_suite`` checks both sides of this
identity on sampled tuples; their difference must always vanish.  At
alpha = (sum_x w_x)[0], b and Db vanish and the identity is the centre
value itself.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import Sequence

from .chains import Chain, integrate
from .cochain import Cochain, delta_double_prime, delta_prime
from .diffeo import GroupPresentation, PolyDiffeo
from .errors import DimensionMismatchError, NotClosedError
from .forms import PolyForm, evaluate, ext_d, poincare_h
from .polynomial import as_point


class ZigzagState:
    """The form, the group, and the descent cochains phi_0..phi_p, p = m - 1.

    ``phis[i]`` is an i-cochain valued in forms of degree m-i-1; each
    level i >= 1 caches its values, which the level above and the
    cochains built over the state read again.  The levels form no
    products.  ``products`` holds each product g h that a d' over this
    state has formed, keyed by the pair (g, h): the top-level d' of c
    and b and ``descent_residual`` all merge through it, so a product is
    formed once and is one object.  ``build_phi_sequence`` builds both;
    the state only checks that there are p + 1 levels.
    """

    __slots__ = ("omega", "p", "group", "phis", "products")

    def __init__(
        self,
        omega: PolyForm,
        group: GroupPresentation,
        phis: Sequence[Cochain],
        products: dict,
    ):
        self.omega = omega
        self.p = p = omega.degree - 1
        self.group = group
        self.phis = tuple(phis)
        if len(self.phis) != p + 1:
            raise ValueError(f"descent to depth {p} needs {p + 1} cochains phi")
        self.products = products

    def delta_prime(self, c: Cochain) -> Cochain:
        """d'c under the group's degree cap, merging through ``products``."""
        return delta_prime(c, self.group.degree_cap, self.products)

    @property
    def m(self) -> int:
        return self.omega.degree

    def descent_residual(self, i: int, gs: Sequence[PolyDiffeo]) -> PolyForm:
        """(d'phi_{i-1} + d''phi_i)(g_1..g_i); zero on a sound descent."""
        if not 1 <= i <= self.p:
            raise ValueError(f"descent level {i} out of range 1..{self.p}")
        lhs = self.delta_prime(self.phis[i - 1])(*gs)
        rhs = delta_double_prime(self.phis[i])(*gs)
        return lhs + rhs


def build_phi_sequence(omega: PolyForm, group: GroupPresentation) -> ZigzagState:
    """Run the descent to depth p = m - 1 and return the assembled state.

    Requires a nonzero closed form of degree m >= 1 that every generator
    preserves; the invariance check is skipped when the group was built
    to preserve it, and is otherwise the presentation's own.

    Level 1 is h(phi_0 - g^* phi_0), its argument checked closed; level
    i >= 2 is the collapsed -h(g_i^* phi_{i-1}(g_1,...,g_{i-1})), after
    checking that g_i preserves w (see the module docstring).  Either
    check raises ``NotClosedError`` naming the level and the tuple.
    """
    if omega.is_zero():
        raise ValueError("the descent needs a nonzero form")
    if omega.dim != group.dim:
        raise DimensionMismatchError("form and group live on different spaces")
    if not ext_d(omega).is_zero():
        raise NotClosedError("the input form is not closed")
    if omega not in group.preserved_forms:
        GroupPresentation(group.generators, [omega], degree_cap=group.degree_cap)
    m = omega.degree
    if m < 1:
        raise ValueError("the descent needs a form of degree at least 1")
    phi0_value = -poincare_h(omega)
    phis = [Cochain(0, m - 1, omega.dim, lambda: phi0_value)]

    @cache
    def phi1(g):
        rhs = phi0_value - g.pullback_form(phi0_value)
        if not ext_d(rhs).is_zero():
            raise NotClosedError(_not_closed(1, (g,)))
        return poincare_h(rhs)

    if m > 1:
        phis.append(Cochain(1, m - 2, omega.dim, phi1))
    # Each level caches its values, which the levels above read again.  It
    # holds the level below, not the list or the state: either would tie
    # the level caches into a reference cycle.
    for i in range(2, m):

        @cache
        def evaluator(*gs, _below=phis[i - 1], _i=i):
            last = gs[-1]
            if not last.preserves(omega):
                raise NotClosedError(_not_closed(_i, gs))
            return -poincare_h(last.pullback_form(_below(*gs[:-1])))

        phis.append(Cochain(i, m - i - 1, omega.dim, evaluator))
    return ZigzagState(omega, group, phis, {})


def _not_closed(i: int, gs: Sequence[PolyDiffeo]) -> str:
    return (
        f"level-{i} descent input is not closed on "
        f"({', '.join(g.label or '?' for g in gs)})"
    )


def _check_alpha(state: ZigzagState, alpha: Chain):
    if alpha.ambient != state.omega.dim:
        raise DimensionMismatchError("cycle and form live in different spaces")
    # a 0-chain is a cycle, so only its dimension needs checking
    if alpha.dim != 0:
        raise DimensionMismatchError(
            f"the cycle must be a 0-chain of points, got a {alpha.dim}-chain"
        )


def cocycle_eval(
    state: ZigzagState, alpha: Chain, gs: Sequence[PolyDiffeo]
) -> Fraction:
    """The cocycle value int_alpha (d'phi_p)(g_1,...,g_m), read at the centre:
    (-1)^m times the integral of phi_p(g_1,...,g_p) over the point g_m(0)
    weighted by alpha's total weight (see the module docstring).

    The faces dropped are the ones that read g_m inside a level, so g_m is
    checked against w here (``_check_last``); the levels check g_1..g_p.
    """
    _check_alpha(state, alpha)
    weight = sum(alpha.terms.values())

    def centre_value(*gs: PolyDiffeo) -> Fraction:
        centre = Chain.point(_check_last(state, gs).apply([0] * state.omega.dim)) * weight
        value = integrate(state.phis[state.p](*gs[:-1]), centre)
        return -value if state.m % 2 else value

    return Cochain(state.m, None, state.omega.dim, centre_value)(*gs)


def _check_last(state: ZigzagState, gs: Sequence[PolyDiffeo]) -> PolyDiffeo:
    """g_m, refused unless it preserves w, as the first face phi_p(g_2,...,g_m)
    refuses it (for m = 1, as level 1 would on (g))."""
    if not gs[-1].preserves(state.omega):
        raise NotClosedError(_not_closed(max(state.p, 1), gs[1:] or gs))
    return gs[-1]


def _integral(state: ZigzagState, alpha: Chain, integrand: Cochain) -> Cochain:
    """The real-valued cochain int_alpha integrand(g_1,...), same group degree."""
    _check_alpha(state, alpha)

    def evaluator(*gs: PolyDiffeo) -> Fraction:
        return integrate(integrand(*gs), alpha)

    return Cochain(integrand.p, None, integrand.dim, evaluator)


def cocycle(state: ZigzagState, alpha: Chain) -> Cochain:
    """The cocycle as a reusable real-valued (p+1)-cochain.  For m = 1,
    d'phi_0(g) = phi_0 - g^* phi_0 reads no level, so g is checked here."""
    top = state.delta_prime(state.phis[state.p])
    if state.p == 0:
        top = Cochain(1, 0, top.dim, lambda g, d=top: d(_check_last(state, (g,))))
    return _integral(state, alpha, top)


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
    return _integral(state, alpha, state.phis[state.p])

