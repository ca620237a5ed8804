"""Group cochains valued in forms or reals, and the cycle transgression.

``Cochain(p, q, dim, evaluator)`` models an element of C^p(G, M): a
function of p-tuples of diffeomorphisms of R^dim.  The form degree ``q``
picks the module M.  An int q means M = Omega^q(R^dim), polynomial
q-forms, on which the group acts from the right by pullback,
w . g = g^* w.  ``q=None`` means M = R, the reals as a trivial module,
where the cocycle c and the trivializing cochain b live.

Cochains are plain typed functions, not tables of values: the groups
here are infinite, so identities are only ever checked on sampled
tuples.  Each call checks its arguments and its value, and keeps
nothing.  Evaluators must be pure: the descent levels phi_i, whose values
are read again, are cached where ``zigzag.build_phi_sequence`` builds them.

One group differential serves both modules, in the nonhomogeneous
convention

    (d'f)(g_1,...,g_{p+1}) = f(g_2,...,g_{p+1})
        + sum_{i=1}^{p} (-1)^i f(g_1,...,g_i g_{i+1},...,g_{p+1})
        + (-1)^{p+1} f(g_1,...,g_p) . g_{p+1}

with (d'f)(g) = f - g^* f in the bottom degree p = 0; on reals the
last term is plain f(g_1,...,g_p), and d' is the D of Dc = 0 and c = Db.
The form-direction differential is

    (d''c)(g_1,...,g_p) = (-1)^p d(c(g_1,...,g_p)).

These anticommute: d'd'' + d''d' = 0, and each squares to zero.

``f_gamma`` implements the transgression against a chain gamma in the
translation identification G = R^n only: fundamental fields of the
translation action are the constant fields, and the value of the
resulting form on G at g integrates the contracted form over g + gamma.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable

from .chains import Chain, integrate_translated, require_cycle
from .diffeo import DEFAULT_DEGREE_CAP, PolyDiffeo
from .errors import DimensionMismatchError
from .forms import PolyForm, ext_d
from .polynomial import as_fraction


class Cochain:
    """A p-cochain on the diffeomorphism group with values in a module.

    ``q`` selects the module: an int means q-forms on R^dim, acted on by
    pullback; ``None`` means the reals as a trivial module.
    """

    __slots__ = ("p", "q", "dim", "_evaluator")

    def __init__(
        self,
        p: int,
        q: int | None,
        dim: int,
        evaluator: Callable[..., PolyForm | Fraction],
    ):
        if p < 0 or dim < 0 or (q is not None and q < 0):
            raise ValueError("degrees and dimension must be >= 0")
        self.p = p
        self.q = q
        self.dim = dim
        self._evaluator = evaluator

    @classmethod
    def of_form(cls, form: PolyForm) -> Cochain:
        """The 0-cochain whose single value is ``form``."""
        return cls(0, form.degree, form.dim, lambda: form)

    @classmethod
    def constant(cls, dim: int, value) -> Cochain:
        """The real-valued 0-cochain whose single value is ``value``."""
        v = as_fraction(value)
        return cls(0, None, dim, lambda: v)

    def __call__(self, *gs: PolyDiffeo) -> PolyForm | Fraction:
        if len(gs) != self.p:
            raise ValueError(f"{self.p}-cochain called on a {len(gs)}-tuple")
        for g in gs:
            if not isinstance(g, PolyDiffeo):
                raise TypeError(f"cochain argument {g!r} is not a PolyDiffeo")
            if g.dim != self.dim:
                raise DimensionMismatchError(
                    f"cochain on R^{self.dim} called with a map of R^{g.dim}"
                )
        value = self._evaluator(*gs)
        if self.q is None:
            return as_fraction(value)
        if not isinstance(value, PolyForm):
            raise TypeError("cochain evaluator must return a PolyForm")
        if value.degree != self.q or value.dim != self.dim:
            raise ValueError(
                f"evaluator returned a degree-{value.degree} form on "
                f"R^{value.dim}, expected degree {self.q} on R^{self.dim}"
            )
        return value

    def __repr__(self):
        return f"Cochain(p={self.p}, q={self.q}, dim={self.dim})"


def delta_prime(
    c: Cochain,
    degree_cap: int = DEFAULT_DEGREE_CAP,
    products: dict[tuple[PolyDiffeo, PolyDiffeo], PolyDiffeo] | None = None,
) -> Cochain:
    """The nonhomogeneous group differential, on either value module.

    Raises the group degree by one.  The last term acts through the
    right module structure: pullback along the final element on forms,
    trivially on reals.  ``degree_cap`` bounds each merged product.

    Each merged product g_i g_{i+1} is formed once and kept in
    ``products``, keyed by the pair; a refused product raises and is
    not kept.  Differentials that share one table, under one cap, form
    each product once between them (``ZigzagState`` shares its table
    across the differentials built over it); by default the table is
    this cochain's own.
    """
    p = c.p
    if products is None:
        products = {}

    def evaluator(*gs: PolyDiffeo):
        total = c(*gs[1:])
        for i in range(1, p + 1):
            pair = gs[i - 1 : i + 1]
            merged = products.get(pair)
            if merged is None:
                merged = products[pair] = pair[0].compose(pair[1], degree_cap=degree_cap)
            value = c(*gs[: i - 1], merged, *gs[i + 1 :])
            total = total - value if i % 2 else total + value
        last = c(*gs[:-1])
        if c.q is not None:
            last = gs[-1].pullback_form(last)
        total = total + last if (p + 1) % 2 == 0 else total - last
        return total

    return Cochain(p + 1, c.q, c.dim, evaluator)


def delta_double_prime(c: Cochain) -> Cochain:
    """The form-direction differential: (-1)^p times exterior d."""
    sign = -1 if c.p % 2 else 1

    def evaluator(*gs: PolyDiffeo) -> PolyForm:
        d = ext_d(c(*gs))
        return d if sign > 0 else -d

    return Cochain(c.p, c.q + 1, c.dim, evaluator)


def f_gamma(gamma: Chain, omega: PolyForm) -> PolyForm:
    """Transgress a form on R^n to a form on the translation group.

    The result has degree p = deg(omega) - dim(gamma); its value on
    constant vectors X_1..X_p at the translation g is the exact integral
    of i(X_p)...i(X_1) omega over g + gamma.  When deg(omega) < dim(gamma)
    the result is 0.

    The contraction by the basis fields works on indices: for each
    component f dx_I and each p-subset ``pos`` of positions in I, the
    term dx_{I[pos]} of the result receives the integral of
    (-1)^(sum(pos) - p(p-1)/2) f dx_{I minus I[pos]}.  That sign is
    i(e_{a_p})...i(e_{a_1}) with a = I[pos]: each axis is dropped at its
    position among the axes still left.  Each such term is integrated
    once, by one ``integrate_translated`` call.

    Any chain gamma is accepted.  The intertwining identity with the
    exterior derivative needs gamma to have zero boundary; ``F_gamma``
    and ``checks.fgamma_suite`` require that themselves.
    """
    if omega.dim != gamma.ambient:
        raise DimensionMismatchError(
            f"form on R^{omega.dim} against a chain in R^{gamma.ambient}"
        )
    n = omega.dim
    if omega.degree < gamma.dim:
        return PolyForm.zero(n, 0)
    p = omega.degree - gamma.dim
    shift = p * (p - 1) // 2
    # contracted[axes][rest]: the coefficient of dx_rest in the contraction
    # by e_axes; distinct (component, positions) pairs never collide
    contracted = {}
    for idx, poly in omega.components.items():
        for pos in itertools.combinations(range(omega.degree), p):
            axes = tuple(idx[j] for j in pos)
            rest = tuple(a for j, a in enumerate(idx) if j not in pos)
            contracted.setdefault(axes, {})[rest] = (
                -poly if (sum(pos) - shift) % 2 else poly
            )
    comps = {
        axes: integrate_translated(PolyForm._raw(n, gamma.dim, contracted[axes]), gamma)
        for axes in sorted(contracted)
    }
    return PolyForm._raw(n, p, comps)


def F_gamma(c: Cochain, gamma: Chain) -> Cochain:
    """Compose a form-valued cochain with the transgression.

    Values become forms on the translation group; the group degree is
    unchanged and the form degree drops by dim(gamma).  Intertwines the
    two differentials on translation tuples: d' on the group side and d
    under ``f_gamma``.  Gamma must be a cycle.
    """
    require_cycle(gamma, "transgression chain")
    if c.q < gamma.dim:
        q_out = 0
    else:
        q_out = c.q - gamma.dim

    def evaluator(*gs: PolyDiffeo) -> PolyForm:
        return f_gamma(gamma, c(*gs))

    return Cochain(c.p, q_out, c.dim, evaluator)
