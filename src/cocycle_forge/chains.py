"""Affine singular chains in R^n with exact boundary and integration.

A q-simplex is an ordered list of q+1 rational vertices; a chain is a
formal rational combination of simplices of one dimension.  Integration
pulls a polynomial form back along the affine parametrization

    sigma(t) = v_0 + sum_j t_j (v_j - v_0),   t in the standard simplex,

and evaluates monomial integrals with the Dirichlet formula

    int_{Delta^q} t_1^{a_1} ... t_q^{a_q} dt = a_1! ... a_q! / (q + sum a_i)!

with every weight an int over the one denominator (q + top)!, top the
largest sum a_i (``Polynomial.simplex_integral``), so every value is an
exact ``Fraction``.  Stokes' theorem then holds on the nose, which the
test-suite exploits as a consistency oracle.

Each simplex builds its edge vectors and the substitution polynomials of
its parametrization once, on first use, and keeps them; integrating many
forms over one chain therefore builds them once per simplex.  The
Jacobian minors of a form's components come first, and the minors are
folded before composing: the components with a nonzero minor make one
integrand sum_I det(E_I) f_I, composed with the substitution once.  A
component whose minor vanishes never enters it.  A point is a 0-simplex
and takes the same path: its integral is its coefficient composed with
the parametrization, with no minor and no weights.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .errors import DimensionMismatchError, NotACycleError
from .forms import PolyForm
from .polynomial import Immutable, Polynomial, as_fraction, as_point, det


class AffineSimplex(Immutable):
    """An ordered affine q-simplex (q+1 rational vertices in R^n), q <= n.

    The edge vectors v_j - v_0 and the substitution polynomials of the
    parametrization are built on first use and kept with the simplex.
    """

    __slots__ = ("dim", "ambient", "vertices", "_hash", "_edges", "_substitutions")

    def __init__(self, vertices: Sequence[Sequence]):
        verts = [tuple(as_fraction(v) for v in vertex) for vertex in vertices]
        if not verts:
            raise ValueError("a simplex needs at least one vertex")
        ambient = len(verts[0])
        for v in verts:
            if len(v) != ambient:
                raise DimensionMismatchError("simplex vertices disagree on ambient dimension")
        q = len(verts) - 1
        if q > ambient:
            raise ValueError(
                f"a {q}-simplex does not fit in R^{ambient} (needs q <= n)"
            )
        self._fill(q, ambient, tuple(verts))

    def _fill(self, q: int, ambient: int, vertices: tuple):
        _set_dim(self, q)
        _set_ambient(self, ambient)
        _set_vertices(self, vertices)
        _set_hash(self, hash(vertices))
        _set_edges(self, None)
        _set_substitutions(self, {})

    def face(self, i: int) -> AffineSimplex:
        """The i-th face, obtained by dropping vertex i."""
        if not 0 <= i <= self.dim:
            raise ValueError(f"face index {i} out of range")
        if not self.dim:
            raise ValueError("a 0-simplex has no faces")
        face = object.__new__(AffineSimplex)
        face._fill(self.dim - 1, self.ambient, self.vertices[:i] + self.vertices[i + 1 :])
        return face

    def translate(self, vector: Sequence) -> AffineSimplex:
        vec = as_point(vector, self.ambient)
        return AffineSimplex(
            tuple(tuple(x + d for x, d in zip(v, vec)) for v in self.vertices)
        )

    def edges(self) -> tuple[tuple[Fraction, ...], ...]:
        """The edge vectors v_j - v_0 for j = 1..q."""
        edges = self._edges
        if edges is None:
            n = self.ambient
            v0 = self.vertices[0]
            edges = tuple(
                tuple(v[i] - v0[i] for i in range(n)) for v in self.vertices[1:]
            )
            _set_edges(self, edges)
        return edges

    def substitution(self, translated: bool) -> tuple[Polynomial, ...]:
        """The coordinates x_i = v0_i (+ g_i) + sum_j t_j (v_j - v_0)_i of
        the parametrization, as polynomials in g_1..g_n, t_1..t_q; the g_i
        term is present only when ``translated``."""
        substitution = self._substitutions.get(translated)
        if substitution is None:
            n = self.ambient
            big = n + self.dim  # variables: g_1..g_n, then t_1..t_q
            v0 = self.vertices[0]
            edges = self.edges()
            substitution = []
            for i in range(n):
                coord = Polynomial.constant(big, v0[i])
                if translated:
                    coord = coord + Polynomial.variable(big, i)
                for j, edge in enumerate(edges):
                    if edge[i]:
                        coord = coord + Polynomial.variable(big, n + j) * edge[i]
                substitution.append(coord)
            substitution = tuple(substitution)
            self._substitutions[translated] = substitution
        return substitution

    def __eq__(self, other):
        if not isinstance(other, AffineSimplex):
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self):
        return self._hash

    def __repr__(self):
        pts = ", ".join("(" + ",".join(str(x) for x in v) + ")" for v in self.vertices)
        return f"AffineSimplex[{pts}]"


_set_dim, _set_ambient, _set_vertices, _set_hash, _set_edges, _set_substitutions = (
    AffineSimplex.__dict__[name].__set__ for name in AffineSimplex.__slots__
)


class Chain(Immutable):
    """Formal rational combination of affine simplices of one dimension."""

    __slots__ = ("dim", "ambient", "terms")

    def __init__(self, dim: int, ambient: int, terms: Mapping[AffineSimplex, object] | None = None):
        clean: dict[AffineSimplex, Fraction] = {}
        if terms:
            for simplex, coeff in terms.items():
                if simplex.dim != dim:
                    raise DimensionMismatchError(
                        f"{simplex.dim}-simplex in a chain of dimension {dim}"
                    )
                if simplex.ambient != ambient:
                    raise DimensionMismatchError("mixed ambient dimensions in one chain")
                c = as_fraction(coeff)
                if c:
                    clean[simplex] = c
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def point(cls, point: Sequence) -> Chain:
        simplex = AffineSimplex([point])
        return cls(0, simplex.ambient, {simplex: 1})

    @classmethod
    def segment(cls, start: Sequence, end: Sequence) -> Chain:
        simplex = AffineSimplex([start, end])
        return cls(1, simplex.ambient, {simplex: 1})

    @classmethod
    def simplex(cls, vertices: Sequence[Sequence]) -> Chain:
        s = AffineSimplex(vertices)
        return cls(s.dim, s.ambient, {s: 1})

    @classmethod
    def triangle_loop(cls, a: Sequence, b: Sequence, c: Sequence) -> Chain:
        """The 1-cycle [a,b] + [b,c] + [c,a]."""
        return cls.segment(a, b) + cls.segment(b, c) + cls.segment(c, a)

    # -- algebra -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def _require_compatible(self, other: Chain):
        if self.dim != other.dim or self.ambient != other.ambient:
            raise DimensionMismatchError("adding chains of different dimensions")

    def __add__(self, other: Chain) -> Chain:
        self._require_compatible(other)
        terms = dict(self.terms)
        for s, c in other.terms.items():
            terms[s] = terms.get(s, 0) + c
        return Chain(self.dim, self.ambient, terms)

    def __neg__(self) -> Chain:
        return Chain(self.dim, self.ambient, {s: -c for s, c in self.terms.items()})

    def __sub__(self, other: Chain) -> Chain:
        return self + (-other)

    def __mul__(self, scalar) -> Chain:
        c = as_fraction(scalar)
        return Chain(self.dim, self.ambient, {s: c * v for s, v in self.terms.items()})

    __rmul__ = __mul__

    def translate(self, vector: Sequence) -> Chain:
        return Chain(
            self.dim,
            self.ambient,
            {s.translate(vector): c for s, c in self.terms.items()},
        )

    def __eq__(self, other):
        if not isinstance(other, Chain):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.ambient == other.ambient
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return f"Chain({self.dim}, R^{self.ambient}, 0)"
        body = " + ".join(f"({c})*{s!r}" for s, c in sorted(
            self.terms.items(), key=lambda kv: kv[0].vertices
        ))
        return f"Chain({body})"


def boundary(chain: Chain) -> Chain:
    """Alternating-sign face sum; defined for chains of dimension >= 1."""
    if chain.dim < 1:
        raise ValueError("boundary needs a chain of dimension >= 1")
    terms: dict[AffineSimplex, Fraction] = {}
    for simplex, coeff in chain.terms.items():
        for i in range(simplex.dim + 1):
            face = simplex.face(i)
            terms[face] = terms.get(face, 0) + (coeff if i % 2 == 0 else -coeff)
    return Chain(chain.dim - 1, chain.ambient, terms)


def is_cycle(chain: Chain) -> bool:
    """True iff the boundary cancels to zero; every 0-chain is a cycle."""
    if chain.dim == 0:
        return True
    return boundary(chain).is_zero()


def require_cycle(chain: Chain, what: str = "chain"):
    if not is_cycle(chain):
        raise NotACycleError(f"{what} has nonzero boundary")


def _simplex_integral(form: PolyForm, simplex: AffineSimplex, translated: bool) -> Polynomial:
    """Integral of ``form`` over the g-translate of ``simplex``.

    Returns a polynomial in the n translation coordinates g_1..g_n; with
    ``translated`` false, g = 0 is substituted first and the result is
    the constant integral over ``simplex`` itself.  A point (q = 0) gives
    its coefficient at g + vertex.  Otherwise the components are folded
    into one integrand sum_I det(E_I) f_I over the nonzero Jacobian minors,
    which is composed with the parametrization once and integrated over
    the standard simplex (exact by linearity); when every minor vanishes,
    nothing is composed.
    """
    if not simplex.dim:
        return form.coefficient(()).compose(simplex.substitution(translated))
    edges = simplex.edges()
    integrand = Polynomial.zero(simplex.ambient)
    for idx, poly in form.components.items():
        jac = det([[edge[a] for a in idx] for edge in edges])
        if jac:
            integrand = integrand + poly * jac
    if integrand.is_zero():
        return integrand
    return integrand.compose(simplex.substitution(translated)).simplex_integral(simplex.dim)


def _check_match(form: PolyForm, chain: Chain):
    if form.dim != chain.ambient:
        raise DimensionMismatchError(
            f"form on R^{form.dim} integrated over a chain in R^{chain.ambient}"
        )
    if form.degree != chain.dim:
        raise DimensionMismatchError(
            f"degree-{form.degree} form integrated over a {chain.dim}-chain"
        )


def integrate(form: PolyForm, chain: Chain) -> Fraction:
    """Exact integral of a degree-q form over a q-chain.

    Linear in both arguments; for q = 0 this is signed evaluation.
    """
    _check_match(form, chain)
    total = Fraction(0)
    for simplex, coeff in chain.terms.items():
        total += coeff * _simplex_integral(form, simplex, translated=False).constant_term()
    return total


def integrate_translated(form: PolyForm, chain: Chain) -> Polynomial:
    """The function g |-> integral of ``form`` over ``g + chain``.

    The result is an exact polynomial in the translation vector g,
    living in the n-variable ring; evaluating it at 0 recovers
    ``integrate(form, chain)``.
    """
    _check_match(form, chain)
    total = Polynomial.zero(chain.ambient)
    for simplex, coeff in chain.terms.items():
        total = total + _simplex_integral(form, simplex, translated=True) * coeff
    return total


def pushforward(diffeo, chain: Chain) -> Chain:
    """The image of a 0-chain of points under a polynomial diffeomorphism.

    Each point maps to its image and keeps its weight.  Every cycle the
    descent pairs with is a 0-chain, so a chain of positive dimension is
    refused.
    """
    if diffeo.dim != chain.ambient:
        raise DimensionMismatchError("map and chain live in different spaces")
    if chain.dim:
        raise DimensionMismatchError(
            f"pushforward takes a 0-chain of points, got a {chain.dim}-chain"
        )
    return Chain(
        0,
        chain.ambient,
        {AffineSimplex([diffeo.apply(s.vertices[0])]): c for s, c in chain.terms.items()},
    )
