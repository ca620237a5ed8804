"""Exact exterior calculus on R^n with polynomial coefficients.

A k-form is a sparse combination of basis products dx_{i1}^...^dx_{ik}
(strictly increasing axes, stored 0-based) with ``Polynomial``
coefficients.  The operations here -- wedge, exterior derivative,
interior product, pullback, the radial homotopy operator, Lie
derivative, pointwise evaluation -- are all pure functions on immutable
values, so they can be evaluated in parallel with no coordination.

Sign conventions, fixed once for the whole package:

* ``(dx_{i1}^...^dx_{ik})(v_1, ..., v_k) = det[(v_r)_{i_c}]`` with rows
  indexed by the vectors and columns by the axes;
* the interior product fills the FIRST argument slot, so
  ``i(X_p)...i(X_1) w``, applied to no further vectors, equals
  ``w(X_1, ..., X_p)``.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .errors import DimensionMismatchError
from .polynomial import Immutable, Polynomial, as_point, det

Index = tuple[int, ...]  # strictly increasing 0-based axes


def _check_index(idx: Index, degree: int, dim: int):
    if len(idx) != degree:
        raise ValueError(f"index {idx} has length != degree {degree}")
    if any(not 0 <= a < dim for a in idx):
        raise ValueError(f"index {idx} out of range for dimension {dim}")
    if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
        raise ValueError(f"index {idx} is not strictly increasing")


def _merge_sign(left: Index, right: Index) -> tuple[Index, int]:
    """Sort the concatenation of two disjoint increasing indices.

    Returns the merged index and the sign (-1)^inversions of the shuffle.
    """
    merged = []
    sign = 1
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] < right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            j += 1
            if (len(left) - i) % 2:
                sign = -sign
    merged.extend(left[i:])
    merged.extend(right[j:])
    return tuple(merged), sign


def _accumulate(comps: dict, idx: Index, poly: Polynomial):
    """comps[idx] += poly; zero sums stay in place for ``PolyForm._raw`` to drop."""
    s = comps.get(idx)
    comps[idx] = poly if s is None else s + poly


class PolyForm(Immutable):
    """Differential form on R^n with polynomial coefficients.

    ``components`` maps increasing axis tuples of length ``degree`` to
    nonzero polynomials; the zero form has an empty map.  Degrees above
    the ambient dimension are allowed and always denote the zero form.
    """

    __slots__ = ("dim", "degree", "components")

    def __init__(self, dim: int, degree: int, components: Mapping[Index, object] | None = None):
        if dim < 0 or degree < 0:
            raise ValueError("dimension and degree must be >= 0")
        clean: dict[Index, Polynomial] = {}
        if components:
            for idx, poly in components.items():
                idx = tuple(int(a) for a in idx)
                _check_index(idx, degree, dim)
                if not isinstance(poly, Polynomial):
                    poly = Polynomial.constant(dim, poly)
                if poly.dim != dim:
                    raise DimensionMismatchError(
                        f"coefficient of {idx} lives in dimension {poly.dim}, not {dim}"
                    )
                if not poly.is_zero():
                    clean[idx] = poly
        _set_dim(self, dim)
        _set_degree(self, degree)
        _set_components(self, clean)

    @classmethod
    def _raw(cls, dim: int, degree: int, components: Mapping[Index, Polynomial]) -> PolyForm:
        """Trusted constructor for the results of form operations: every
        index is valid and every coefficient a dimension-``dim`` polynomial.
        Zero coefficients are dropped."""
        form = object.__new__(cls)
        _set_dim(form, dim)
        _set_degree(form, degree)
        _set_components(form, {i: p for i, p in components.items() if not p.is_zero()})
        return form

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, degree: int) -> PolyForm:
        return cls(dim, degree)

    @classmethod
    def from_polynomial(cls, poly: Polynomial) -> PolyForm:
        """Wrap a polynomial as a 0-form."""
        return cls(poly.dim, 0, {(): poly})

    @classmethod
    def constant_function(cls, dim: int, value) -> PolyForm:
        return cls.from_polynomial(Polynomial.constant(dim, value))

    @classmethod
    def dx(cls, dim: int, axis: int) -> PolyForm:
        """The basis 1-form dx_axis (0-based axis)."""
        return cls(dim, 1, {(axis,): Polynomial.constant(dim, 1)})

    @classmethod
    def basis(cls, dim: int, axes: Sequence[int]) -> PolyForm:
        """dx_{axes[0]}^...^dx_{axes[-1]} for strictly increasing axes."""
        return cls(dim, len(axes), {tuple(axes): Polynomial.constant(dim, 1)})

    @classmethod
    def volume(cls, dim: int) -> PolyForm:
        return cls.basis(dim, tuple(range(dim)))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.components

    def coefficient(self, idx: Sequence[int]) -> Polynomial:
        return self.components.get(tuple(idx), Polynomial.zero(self.dim))

    def is_constant_coefficient(self) -> bool:
        return all(p.degree() == 0 for p in self.components.values())

    # -- linear structure --------------------------------------------------

    def _require_compatible(self, other: PolyForm):
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"form dimensions differ: {self.dim} vs {other.dim}"
            )
        if self.degree != other.degree:
            raise ValueError(f"form degrees differ: {self.degree} vs {other.degree}")

    def __add__(self, other: PolyForm) -> PolyForm:
        self._require_compatible(other)
        comps = dict(self.components)
        for idx, p in other.components.items():
            _accumulate(comps, idx, p)
        return PolyForm._raw(self.dim, self.degree, comps)

    def __neg__(self) -> PolyForm:
        return PolyForm._raw(self.dim, self.degree, {i: -p for i, p in self.components.items()})

    def __sub__(self, other: PolyForm) -> PolyForm:
        """self + (-other) in one pass: only a component that self lacks is negated."""
        self._require_compatible(other)
        comps = dict(self.components)
        for idx, p in other.components.items():
            s = comps.get(idx)
            comps[idx] = -p if s is None else s - p
        return PolyForm._raw(self.dim, self.degree, comps)

    def __mul__(self, scalar) -> PolyForm:
        """Multiply by a rational or polynomial scalar function."""
        if not isinstance(scalar, Polynomial):
            scalar = Polynomial.constant(self.dim, scalar)
        return PolyForm._raw(
            self.dim, self.degree, {i: p * scalar for i, p in self.components.items()}
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, PolyForm):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.degree == other.degree
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.dim, self.degree, frozenset(self.components.items())))

    def __repr__(self):
        return f"PolyForm({self.dim}, {self.degree}, {self.to_str()!r})"

    def to_str(self) -> str:
        if not self.components:
            return "0"
        pieces = []
        for idx in sorted(self.components):
            poly = self.components[idx]
            basis = "^".join(f"dx{a + 1}" for a in idx) if idx else ""
            coeff = poly.to_str()
            if basis:
                pieces.append(f"({coeff})*{basis}")
            else:
                pieces.append(coeff)
        return " + ".join(pieces)


_set_dim, _set_degree, _set_components = (
    PolyForm.__dict__[name].__set__ for name in PolyForm.__slots__
)


class PolyVectorField(Immutable):
    """Vector field on R^n with polynomial components."""

    __slots__ = ("dim", "components")

    def __init__(self, components: Sequence[Polynomial]):
        comps = tuple(components)
        if not comps:
            raise ValueError("vector field needs at least one component")
        dim = comps[0].dim
        for c in comps:
            if c.dim != dim:
                raise DimensionMismatchError("vector field components disagree on dimension")
        if len(comps) != dim:
            raise DimensionMismatchError(
                f"vector field on R^{dim} needs {dim} components, got {len(comps)}"
            )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "components", comps)

    @classmethod
    def constant(cls, dim: int, vector: Sequence) -> PolyVectorField:
        vec = as_point(vector, dim)
        return cls(tuple(Polynomial.constant(dim, v) for v in vec))

    @classmethod
    def euler(cls, dim: int) -> PolyVectorField:
        """The radial field x = sum_i x_i d/dx_i."""
        return cls(tuple(Polynomial.variable(dim, i) for i in range(dim)))

    def bracket(self, other: PolyVectorField) -> PolyVectorField:
        """Lie bracket [X, Y]^i = sum_j X^j dY^i/dx_j - Y^j dX^i/dx_j."""
        if self.dim != other.dim:
            raise DimensionMismatchError("bracket of fields on different spaces")
        out = []
        for i in range(self.dim):
            acc = Polynomial.zero(self.dim)
            for j in range(self.dim):
                acc = acc + self.components[j] * other.components[i].partial(j)
                acc = acc - other.components[j] * self.components[i].partial(j)
            out.append(acc)
        return PolyVectorField(tuple(out))

    def __eq__(self, other):
        if not isinstance(other, PolyVectorField):
            return NotImplemented
        return self.components == other.components

    def __repr__(self):
        return f"PolyVectorField([{', '.join(c.to_str() for c in self.components)}])"


# -- operations -------------------------------------------------------------


def wedge(alpha: PolyForm, beta: PolyForm) -> PolyForm:
    """Exterior product; bilinear, associative, graded-commutative."""
    if alpha.dim != beta.dim:
        raise DimensionMismatchError(
            f"wedge of forms on R^{alpha.dim} and R^{beta.dim}"
        )
    n = alpha.dim
    k = alpha.degree + beta.degree
    comps: dict[Index, Polynomial] = {}
    if k <= n:
        for i1, p1 in alpha.components.items():
            set1 = set(i1)
            for i2, p2 in beta.components.items():
                if set1.intersection(i2):
                    continue
                merged, sign = _merge_sign(i1, i2)
                _accumulate(comps, merged, p1 * p2 if sign > 0 else -(p1 * p2))
    return PolyForm._raw(n, k, comps)


def ext_d(alpha: PolyForm) -> PolyForm:
    """Exterior derivative; linear, raises degree by one, d.d = 0."""
    n = alpha.dim
    comps: dict[Index, Polynomial] = {}
    for idx, poly in alpha.components.items():
        for axis, dp in poly.gradient().items():
            if axis in idx:
                continue
            # dx_axis moves right past the pos axes of idx below it
            pos = bisect_left(idx, axis)
            _accumulate(comps, idx[:pos] + (axis,) + idx[pos:], -dp if pos % 2 else dp)
    return PolyForm._raw(n, alpha.degree + 1, comps)


def interior(field: PolyVectorField, alpha: PolyForm) -> PolyForm:
    """Interior product i(X) filling the first argument slot.

    On 0-forms the result is the zero 0-form.  An antiderivation:
    i(X)(a^b) = i(X)a ^ b + (-1)^deg(a) a ^ i(X)b.
    """
    if field.dim != alpha.dim:
        raise DimensionMismatchError("field and form live on different spaces")
    n = alpha.dim
    if alpha.degree == 0:
        return PolyForm.zero(n, 0)
    comps: dict[Index, Polynomial] = {}
    for idx, poly in alpha.components.items():
        for j, axis in enumerate(idx):
            comp = field.components[axis]
            if comp.is_zero():
                continue
            reduced = idx[:j] + idx[j + 1 :]
            add = poly * comp
            _accumulate(comps, reduced, -add if j % 2 else add)
    return PolyForm._raw(n, alpha.degree - 1, comps)


def pullback(map_components: Sequence[Polynomial], alpha: PolyForm) -> PolyForm:
    """Pull back ``alpha`` along the polynomial map with the given components.

    The map goes from R^m to R^n where m is the common dimension of the
    components and n = len(components) must equal the form's dimension.
    Coefficients are substituted and each dx_i becomes the differential
    of the i-th component.  Contravariant functoriality holds exactly:
    pulling back along f then g equals pulling back along f.g.
    """
    comps = list(map_components)
    if len(comps) != alpha.dim:
        raise DimensionMismatchError(
            f"map has {len(comps)} components, form lives on R^{alpha.dim}"
        )
    if alpha.dim == 0:
        return alpha
    m = comps[0].dim
    for c in comps:
        if c.dim != m:
            raise DimensionMismatchError("map components disagree on source dimension")
    # the nonzero entries (j, dg_a/dx_j) of row a of the Jacobian, for
    # each axis a that occurs in alpha; the components share them
    rows = {}
    for idx in alpha.components:
        for a in idx:
            if a not in rows:
                rows[a] = comps[a].gradient().items()
    out: dict[Index, Polynomial] = {}
    for idx, poly in alpha.components.items():
        # expand dg_{i1}^...^dg_{ik} one row at a time over the coefficient
        # dict of the partial product; None stands for the coefficient 1
        minors: dict[Index, Polynomial | None] = {(): None}
        for a in idx:
            grown: dict[Index, Polynomial] = {}
            for lead, p in minors.items():
                for j, d in rows[a]:
                    if j in lead:
                        continue
                    pos = bisect_left(lead, j)
                    # dx_lead ^ dx_j: dx_j moves left past the axes above it
                    term = d if p is None else p * d
                    merged = lead[:pos] + (j,) + lead[pos:]
                    _accumulate(grown, merged, -term if (len(lead) - pos) % 2 else term)
            minors = grown
        f = poly.compose(comps)
        for lead, p in minors.items():
            _accumulate(out, lead, f if p is None else f * p)
    return PolyForm._raw(m, alpha.degree, out)


def poincare_h(alpha: PolyForm) -> PolyForm:
    """Radial homotopy operator centered at the origin.

    Acts monomial-by-monomial: a k-form component with coefficient
    monomial of total degree s contributes its radial contraction scaled
    by 1/(k+s), an int over lcm(k, ..., k + the component's degree).
    Satisfies d.h + h.d = id on forms of degree >= 1, and h(df) = f - f(0)
    on functions.  On 0-forms the operator is zero.
    """
    n = alpha.dim
    k = alpha.degree
    if k == 0:
        return PolyForm.zero(n, 0)
    comps: dict[Index, Polynomial] = {}
    for idx, poly in alpha.components.items():
        den = lcm(*range(k, k + poly.degree() + 1))
        for j, axis in enumerate(idx):
            sign = -1 if j % 2 else 1

            def contract(exp):
                new_exp = list(exp)
                new_exp[axis] += 1
                return tuple(new_exp), sign * (den // (k + sum(exp)))

            _accumulate(comps, idx[:j] + idx[j + 1 :], poly.map_monomials(n, contract, den))
    return PolyForm._raw(n, k - 1, comps)


def lie_derivative(field: PolyVectorField, alpha: PolyForm) -> PolyForm:
    """Lie derivative via the Cartan formula L_X = d i(X) + i(X) d.

    On functions the first term is vacuous (i(X) kills 0-forms), so
    only the directional-derivative term i(X) d survives.
    """
    if alpha.degree == 0:
        return interior(field, ext_d(alpha))
    return ext_d(interior(field, alpha)) + interior(field, ext_d(alpha))


def evaluate(alpha: PolyForm, point: Sequence, vectors: Sequence[Sequence] = ()) -> Fraction:
    """Evaluate at a rational point on deg-many rational vectors.

    Multilinear and alternating in the vectors; substitutes the point
    into every coefficient.
    """
    n = alpha.dim
    pt = as_point(point, n)
    vecs = [as_point(v, n) for v in vectors]
    if len(vecs) != alpha.degree:
        raise ValueError(
            f"degree-{alpha.degree} form needs {alpha.degree} vectors, got {len(vecs)}"
        )
    total = Fraction(0)
    for idx, poly in alpha.components.items():
        c = poly.evaluate(pt)
        if not c:
            continue
        if idx:
            c *= det([[v[a] for a in idx] for v in vecs])
        total += c
    return total
