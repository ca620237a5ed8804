"""Sparse multivariate polynomials over exact rationals.

A polynomial in n variables is stored as a map from exponent vectors
(length-n tuples of non-negative ints) to nonzero integer numerators
over one common denominator, so ring operations are integer arithmetic
plus one gcd per result.  Everything downstream -- forms, pullbacks,
integrals, cocycle values -- reduces to arithmetic in this ring, so no
floating point ever enters the package.

Also hosts the little exact linear algebra the rest of the code needs:
determinants and matrix inverses over the rationals, both by Bareiss's
fraction-free elimination on integer rows.  ``Polynomial.affine`` writes
an affine function straight into the integer layout, so translations and
linear maps are built without ring ops.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm, prod
from operator import add, mul
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatchError, ValueTooLargeError


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def fraction_to_str(value) -> str:
    """The "p/q" text of a rational; ``ValueTooLargeError`` where Python's
    int-to-str digit limit refuses to print it."""
    value = Fraction(value)
    try:
        return str(value)
    except ValueError:  # past the int-to-str digit limit
        bits = max(value.numerator.bit_length(), value.denominator.bit_length())
        raise ValueTooLargeError(
            f"a {bits}-bit rational has more digits than Python will print"
        ) from None


class Immutable:
    """Base of the value types: once built, an instance refuses every
    assignment and deletion with "<Type> is immutable".

    Caches and hashes key on these values, so they must never change.
    Each subclass declares ``__slots__`` (instances have no ``__dict__``).
    Its constructors and its fills on first use write through the slot
    descriptors' setters, bound once per module as ``_set_<slot>``, or
    through ``object.__setattr__``; neither passes ``__setattr__``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Polynomial(Immutable):
    """Immutable sparse polynomial with exact rational coefficients.

    The coefficients are integer numerators over one common denominator,
    the layout of FLINT's ``fmpq_poly``: ``num`` maps exponent tuples to
    nonzero ints and ``den`` is a positive int, kept reduced so that
    gcd(den, every numerator) = 1.  Equal polynomials therefore have
    equal ``num`` and ``den``, and instances hash on them, so they can
    key dicts and caches.  ``terms`` is a read-only view of the coefficients
    as Fractions; the zero polynomial has no terms.
    """

    __slots__ = ("dim", "num", "den")

    def __init__(self, dim: int, terms: Mapping[tuple, object] | None = None):
        if dim < 0:
            raise ValueError(f"dimension must be >= 0, got {dim}")
        clean = {}
        if terms:
            for exp, coeff in terms.items():
                exp = tuple(int(e) for e in exp)
                if len(exp) != dim:
                    raise ValueError(f"exponent {exp} has length != {dim}")
                if any(e < 0 for e in exp):
                    raise ValueError(f"negative exponent in {exp}")
                c = as_fraction(coeff)
                if c:
                    clean[exp] = c
        # over the lcm of reduced denominators the numerators share no
        # factor with it, so the result is already reduced
        den = lcm(*(c.denominator for c in clean.values()))
        _set_dim(self, dim)
        _set_num(self, {e: c.numerator * (den // c.denominator) for e, c in clean.items()})
        _set_den(self, den)

    @classmethod
    def _raw(cls, dim: int, num: dict, den: int = 1) -> Polynomial:
        """Trusted constructor for ring-op results: ``num`` already maps
        length-``dim`` exponent tuples to nonzero ints over the positive
        ``den`` and is not copied.  Their common factor is divided out."""
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {e: c // g for e, c in num.items()}
                den //= g
        poly = object.__new__(cls)
        _set_dim(poly, dim)
        _set_num(poly, num)
        _set_den(poly, den)
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> Polynomial:
        return cls._raw(dim, {})

    @classmethod
    def constant(cls, dim: int, value) -> Polynomial:
        c = value if isinstance(value, int) else as_fraction(value)
        return cls._raw(dim, {(0,) * dim: c.numerator} if c else {}, c.denominator)

    @classmethod
    def affine(cls, constant, coeffs: Sequence) -> Polynomial:
        """The affine function c0 + sum_j c_j x_j on R^len(coeffs), from
        ints and Fractions: each numerator is written over the lcm of the
        reduced denominators, which leaves the result reduced, so no ring
        op and no Fraction arithmetic runs."""
        dim = len(coeffs)
        den = lcm(constant.denominator, *[c.denominator for c in coeffs])
        num = {(0,) * dim: constant.numerator * (den // constant.denominator)} if constant else {}
        for j, c in enumerate(coeffs):
            if c:
                num[(0,) * j + (1,) + (0,) * (dim - j - 1)] = c.numerator * (den // c.denominator)
        return cls._raw(dim, num, den)

    @classmethod
    def variable(cls, dim: int, axis: int) -> Polynomial:
        """The coordinate function x_axis (0-based axis)."""
        if not 0 <= axis < dim:
            raise ValueError(f"axis {axis} out of range for dimension {dim}")
        exp = [0] * dim
        exp[axis] = 1
        return cls._raw(dim, {tuple(exp): 1})

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> Mapping[tuple, Fraction]:
        """The nonzero coefficients as Fractions, keyed by exponent tuple."""
        return MappingProxyType({e: Fraction(c, self.den) for e, c in self.num.items()})

    def is_zero(self) -> bool:
        return not self.num

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return max((sum(e) for e in self.num), default=0)

    def constant_term(self) -> Fraction:
        return Fraction(self.num.get((0,) * self.dim, 0), self.den)

    def sorted_terms(self):
        """Terms in a canonical order (ascending exponent tuples)."""
        return sorted(self.terms.items())

    # -- ring operations ---------------------------------------------------

    def _require_same_dim(self, other: Polynomial):
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"polynomial dimensions differ: {self.dim} vs {other.dim}"
            )

    def __add__(self, other):
        return self._plus(other, False)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.dim, {e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other):
        return self._plus(other, True)

    def __rsub__(self, other):
        return Polynomial.constant(self.dim, other)._plus(self, True)

    def _plus(self, other, negate: bool) -> Polynomial:
        """self + other, or self - other when ``negate``, in one pass over
        other's terms: no negated copy is built."""
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.dim, other)
        self._require_same_dim(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            num, scale = dict(self.num), 1
        else:
            g = gcd(d1, d2)
            scale = d1 // g
            num = {e: c * (d2 // g) for e, c in self.num.items()}
        den = d2 * scale
        if negate:
            scale = -scale
        for exp, c in other.num.items():
            s = num.get(exp, 0) + c * scale
            if s:
                num[exp] = s
            else:
                del num[exp]
        return Polynomial._raw(self.dim, num, den)

    def _scaled(self, n: int, d: int) -> Polynomial:
        """self * n/d for ints n and d > 0; self itself when n/d is 1."""
        if not n:
            return Polynomial.zero(self.dim)
        if n == d:
            return self
        return Polynomial._raw(self.dim, {e: v * n for e, v in self.num.items()}, self.den * d)

    def _scalar(self):
        """(numerator, den) of a nonzero constant polynomial, else None."""
        if len(self.num) == 1:
            ((exp, c),) = self.num.items()
            if not any(exp):
                return c, self.den
        return None

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            # leave other operands, such as a PolyForm, their own __rmul__
            if not isinstance(other, (int, Fraction, str)):
                return NotImplemented
            c = as_fraction(other)
            return self._scaled(c.numerator, c.denominator)
        self._require_same_dim(other)
        scalar = other._scalar()
        if scalar:
            return self._scaled(*scalar)
        scalar = self._scalar()
        if scalar:
            return other._scaled(*scalar)
        acc: dict[tuple, int] = {}
        get = acc.get
        for e1, c1 in self.num.items():
            for e2, c2 in other.num.items():
                exp = tuple(map(add, e1, e2))
                acc[exp] = get(exp, 0) + c1 * c2
        return Polynomial._raw(
            self.dim, {e: c for e, c in acc.items() if c}, self.den * other.den
        )

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative int")
        result = Polynomial.constant(self.dim, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- calculus / substitution ------------------------------------------

    def partial(self, axis: int) -> Polynomial:
        """Partial derivative with respect to x_axis."""
        acc: dict[tuple, int] = {}
        for exp, c in self.num.items():
            e = exp[axis]
            if e == 0:
                continue
            new = list(exp)
            new[axis] = e - 1
            acc[tuple(new)] = c * e
        return Polynomial._raw(self.dim, acc, self.den)

    def gradient(self) -> dict[int, Polynomial]:
        """The nonzero partial derivatives, keyed by ascending axis, from one
        pass over the terms; an axis whose partial is zero is absent."""
        accs: list[dict[tuple, int]] = [{} for _ in range(self.dim)]
        for exp, c in self.num.items():
            for axis, e in enumerate(exp):
                if e:
                    accs[axis][exp[:axis] + (e - 1,) + exp[axis + 1 :]] = c * e
        return {
            axis: Polynomial._raw(self.dim, acc, self.den) for axis, acc in enumerate(accs) if acc
        }

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.dim:
            raise DimensionMismatchError(
                f"point has length {len(point)}, expected {self.dim}"
            )
        pt = [as_fraction(v) for v in point]
        total = 0
        for exp, c in self.num.items():
            v = c
            for base, e in zip(pt, exp):
                if e:
                    v *= base**e
            total += v
        return Fraction(total, self.den)

    def compose(self, args: Sequence[Polynomial]) -> Polynomial:
        """Substitute args[i] for x_i; args live in a common target ring."""
        if len(args) != self.dim:
            raise DimensionMismatchError(
                f"need {self.dim} substitution polynomials, got {len(args)}"
            )
        if self.dim == 0:
            return self
        target = args[0].dim
        for a in args:
            if a.dim != target:
                raise DimensionMismatchError("substitution polynomials disagree on dimension")
        if len(self.num) == 1:
            ((exp, c),) = self.num.items()
            degree = sum(exp)
            if degree == 0:  # a constant stays itself
                return Polynomial._raw(target, {(0,) * target: c}, self.den)
            if degree == 1:  # c * x_i becomes c * args[i]
                return args[exp.index(1)]._scaled(c, self.den)
        # powers[i][e] is args[i]**e for 1 <= e <= the top exponent of x_i,
        # and one transposing pass over the exponent tuples finds every top.
        # args[i]**e has denominator args[i].den**e (Gauss's lemma), so den
        # is a multiple of every term's denominator.
        powers = []
        den = 1
        for a, top in zip(args, map(max, zip(*self.num))):
            table, power = [None], None
            for _ in range(top):
                power = a if power is None else power * a
                table.append(power)
            powers.append(table)
            den *= a.den**top
        origin = (0,) * target
        acc: dict[tuple, int] = {}
        get = acc.get
        for exp, c in self.num.items():
            term = None
            for table, e in zip(powers, exp):
                if e:
                    term = table[e] if term is None else term * table[e]
            if term is None:  # the constant term
                acc[origin] = get(origin, 0) + c * den
                continue
            c *= den // term.den
            for e, v in term.num.items():
                acc[e] = get(e, 0) + c * v
        return Polynomial._raw(target, {e: v for e, v in acc.items() if v}, den * self.den)

    def map_monomials(self, dim: int, fn, den: int) -> Polynomial:
        """The sum of c * (w/den) * x^e' over the terms c * x^e of self, where
        ``fn(e)`` returns a length-``dim`` exponent tuple e' and an int weight
        w over the int ``den`` > 0: the one integer pass behind every exact
        integral, the radial homotopy's 1/(k+s) and the simplex's weights."""
        acc: dict[tuple, int] = {}
        get = acc.get
        for exp, c in self.num.items():
            new, w = fn(exp)
            acc[new] = get(new, 0) + c * w
        return Polynomial._raw(dim, {e: c for e, c in acc.items() if c}, den * self.den)

    def simplex_integral(self, q: int) -> Polynomial:
        """Integrate the trailing q variables over the standard q-simplex
        {t >= 0, t_1 + ... + t_q <= 1}; the result lives in the leading
        dim - q variables.

        A monomial t^b integrates to b_1!...b_q!/(q + |b|)! (the Dirichlet
        formula).  Every weight is taken as an int over the one denominator
        (q + top)!, where top is the largest |b|, so the pass is integer
        arithmetic plus one gcd.
        """
        n = self.dim - q
        top = max((sum(e[n:]) for e in self.num), default=0)
        fact = list(accumulate(range(1, q + top + 1), mul, initial=1))
        den = fact[-1]
        # the weight of t^b is prod(b!) * scale[|b|] over den
        scale = [den // fact[q + s] for s in range(top + 1)]

        def weigh(exp):
            b = exp[n:]
            return exp[:n], prod(map(fact.__getitem__, b)) * scale[sum(b)]

        return self.map_monomials(n, weigh, den)

    def homogeneous_parts(self) -> dict[int, Polynomial]:
        """Split into homogeneous pieces, keyed by total degree."""
        buckets: dict[int, dict[tuple, int]] = {}
        for exp, c in self.num.items():
            buckets.setdefault(sum(exp), {})[exp] = c
        return {s: Polynomial._raw(self.dim, t, self.den) for s, t in sorted(buckets.items())}

    # -- comparisons / display --------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.dim, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dim == other.dim and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.dim, self.den, frozenset(self.num.items())))

    def __repr__(self):
        return f"Polynomial({self.dim}, {self.to_str()!r})"

    def to_str(self) -> str:
        """Deterministic human-readable rendering, highest degree first."""
        if not self.num:
            return "0"
        names = [f"x{i + 1}" for i in range(self.dim)]
        pieces = []
        for exp, c in sorted(
            self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True
        ):
            factors = [
                names[i] if e == 1 else f"{names[i]}^{e}"
                for i, e in enumerate(exp)
                if e
            ]
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            pieces.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(pieces)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


_set_dim, _set_num, _set_den = (
    Polynomial.__dict__[name].__set__ for name in Polynomial.__slots__
)


# -- exact linear algebra ---------------------------------------------------


def det(rows: Sequence[Sequence]) -> Fraction:
    """Determinant of a square rational matrix.

    Each row is scaled to integers by the lcm of its denominators, and the
    integer matrix is reduced by Bareiss's fraction-free elimination, whose
    every division is exact; the scales are divided out at the end.
    """
    n = len(rows)
    mat = []
    scale = 1
    for row in rows:
        row = [as_fraction(v) for v in row]
        if len(row) != n:
            raise ValueError("matrix is not square")
        d = lcm(*(v.denominator for v in row))
        mat.append([v.numerator * (d // v.denominator) for v in row])
        scale *= d
    sign, prev = 1, 1
    for k in range(n - 1):
        if not mat[k][k]:
            pivot = next((r for r in range(k + 1, n) if mat[r][k]), None)
            if pivot is None:
                return Fraction(0)
            mat[k], mat[pivot] = mat[pivot], mat[k]
            sign = -sign
        p, top = mat[k][k], mat[k]
        for r in range(k + 1, n):
            row = mat[r]
            a = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * p - a * top[j]) // prev
        prev = p
    return Fraction(sign * mat[-1][-1] if n else 1, scale)


def invert_matrix(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    """Exact inverse of a square rational matrix, fraction-free.

    Each row of A is scaled to integers by the lcm d_i of its denominators,
    and [D A | I] is reduced by Bareiss's elimination carried through the
    rows above each pivot as well (Gauss-Jordan), whose every division is
    exact.  That leaves [P I | P (D A)^-1] for the last pivot P, so
    (A^-1)_ij = R_ij d_j / P, one division per entry.

    Raises ValueError on a singular matrix.
    """
    n = len(rows)
    mat = []
    scales = []
    for i, row in enumerate(rows):
        row = [as_fraction(v) for v in row]
        if len(row) != n:
            raise ValueError("matrix is not square")
        d = lcm(*(v.denominator for v in row))
        unit = [int(i == j) for j in range(n)]
        mat.append([v.numerator * (d // v.denominator) for v in row] + unit)
        scales.append(d)
    prev = 1
    for k in range(n):
        if not mat[k][k]:
            pivot = next((r for r in range(k + 1, n) if mat[r][k]), None)
            if pivot is None:
                raise ValueError("matrix is singular")
            mat[k], mat[pivot] = mat[pivot], mat[k]
        p, top = mat[k][k], mat[k]
        for r in range(n):
            if r != k:
                a = mat[r][k]
                mat[r] = [(v * p - a * t) // prev for v, t in zip(mat[r], top)]
        prev = p
    return [[Fraction(v * d, prev) for v, d in zip(row[n:], scales)] for row in mat]


def as_point(values: Iterable, dim: int) -> tuple[Fraction, ...]:
    """Normalize a point/vector in Q^dim to a tuple of Fractions."""
    pt = tuple(as_fraction(v) for v in values)
    if len(pt) != dim:
        raise DimensionMismatchError(f"expected {dim} coordinates, got {len(pt)}")
    return pt
