"""Exact sparse polynomial arithmetic."""

import ast
import gc
from fractions import Fraction
from itertools import permutations
from math import factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cocycle_forge.polynomial as polynomial_module
from cocycle_forge.polynomial import (
    Polynomial,
    as_fraction,
    as_point,
    det,
    invert_matrix,
)


def poly_strategy(dim, max_degree=3, max_terms=4):
    """Random sparse polynomials with small rational coefficients."""
    exps = st.tuples(*[st.integers(0, max_degree) for _ in range(dim)])
    coeff = st.fractions(
        min_value=-4, max_value=4, max_denominator=6
    )
    return st.dictionaries(exps, coeff, max_size=max_terms).map(
        lambda terms: Polynomial(dim, terms)
    )


def point_strategy(dim):
    return st.tuples(
        *[st.fractions(min_value=-3, max_value=3, max_denominator=4) for _ in range(dim)]
    )


class TestConstruction:
    def test_zero(self):
        z = Polynomial.zero(3)
        assert z.is_zero()
        assert z.degree() == 0
        assert z.evaluate((1, 2, 3)) == 0

    def test_constant(self):
        c = Polynomial.constant(2, Fraction(3, 7))
        assert c.constant_term() == Fraction(3, 7)
        assert c.evaluate((5, -1)) == Fraction(3, 7)

    def test_variable(self):
        y = Polynomial.variable(3, 1)
        assert y.evaluate((10, 20, 30)) == 20

    def test_zero_coefficients_dropped(self):
        p = Polynomial(2, {(1, 0): 0, (0, 1): Fraction(1)})
        assert p == Polynomial.variable(2, 1)

    def test_immutable(self):
        p = Polynomial.constant(1, 1)
        with pytest.raises(AttributeError):
            p.dim = 2

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            Polynomial(1, {(1,): 0.5})

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            Polynomial(2, {(1,): 1})  # wrong arity
        with pytest.raises(ValueError):
            Polynomial(2, {(-1, 0): 1})


class TestArithmetic:
    def test_add_sub(self):
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        assert (x + y) - y == x
        assert x - x == Polynomial.zero(2)

    def test_scalar_ops(self):
        x = Polynomial.variable(1, 0)
        assert (x * Fraction(1, 2)).evaluate((4,)) == 2
        assert (x + 1).evaluate((0,)) == 1
        assert (1 - x).evaluate((3,)) == -2

    def test_product_degree(self):
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        p = (x + y) * (x - y)
        assert p == x * x - y * y
        assert p.degree() == 2

    def test_power(self):
        x = Polynomial.variable(1, 0)
        assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1
        assert (x**0) == Polynomial.constant(1, 1)
        with pytest.raises(ValueError):
            x ** (-1)

    @given(poly_strategy(2), poly_strategy(2), point_strategy(2))
    @settings(max_examples=60, deadline=None)
    def test_evaluation_is_ring_homomorphism(self, p, q, pt):
        assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
        assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)

    @given(poly_strategy(3), poly_strategy(3), poly_strategy(3))
    @settings(max_examples=40, deadline=None)
    def test_ring_axioms(self, p, q, r):
        assert p * (q + r) == p * q + p * r
        assert (p * q) * r == p * (q * r)
        assert p + q == q + p


class TestCalculusHelpers:
    def test_partial(self):
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        p = x**2 * y + y**3
        assert p.partial(0) == 2 * x * y
        assert p.partial(1) == x**2 + 3 * y**2

    def test_partials_commute(self):
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        p = x**3 * y**2 + x * y
        assert p.partial(0).partial(1) == p.partial(1).partial(0)

    def test_compose_identity(self):
        p = Polynomial(2, {(2, 1): Fraction(5, 3), (0, 0): -2})
        coords = [Polynomial.variable(2, i) for i in range(2)]
        assert p.compose(coords) == p

    @given(poly_strategy(2, 2, 3), point_strategy(2))
    @settings(max_examples=40, deadline=None)
    def test_compose_agrees_with_evaluate(self, p, pt):
        # substituting constants == evaluating
        consts = [Polynomial.constant(2, v) for v in pt]
        assert p.compose(consts).constant_term() == p.evaluate(pt)

    def test_compose_cross_dimension(self):
        # substitute 3-variable arguments into a 2-variable polynomial
        p = Polynomial(2, {(1, 1): 1})
        args = [Polynomial.variable(3, 0), Polynomial.variable(3, 2)]
        assert p.compose(args) == Polynomial(3, {(1, 0, 1): 1})

    def test_homogeneous_parts(self):
        x = Polynomial.variable(1, 0)
        p = 1 + x + 3 * x**2
        parts = p.homogeneous_parts()
        assert set(parts) == {0, 1, 2}
        assert sum(parts.values(), Polynomial.zero(1)) == p
        for k, part in parts.items():
            assert all(sum(e) == k for e, _ in part.sorted_terms())


class TestLinearAlgebra:
    def test_det_2x2(self):
        assert det([[1, 2], [3, 4]]) == -2

    def test_det_permutation_sign(self):
        assert det([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == -1

    @given(
        st.integers(0, 5).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(
                        st.fractions(min_value=-4, max_value=4, max_denominator=5),
                        min_size=n,
                        max_size=n,
                    ),
                    min_size=n,
                    max_size=n,
                ),
                st.booleans(),
                st.booleans(),
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_det_matches_leibniz(self, case):
        rows, zero_pivot, singular = case
        if rows and zero_pivot:
            rows[0][0] = Fraction(0)
        if len(rows) > 1 and singular:
            # the last row, a combination of two others (2 * rows[0] when n = 2)
            rows[-1] = [a * 3 - b for a, b in zip(rows[0], rows[-2])]
        assert det(rows) == ref_det(rows)
        if len(rows) > 1 and singular:
            assert det(rows) == 0

    def test_invert_matrix_roundtrip(self):
        m = [[Fraction(2), Fraction(1)], [Fraction(7), Fraction(4)]]
        inv = invert_matrix(m)
        prod = [
            [sum(m[i][k] * inv[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)
        ]
        assert prod == [[1, 0], [0, 1]]

    def test_invert_singular(self):
        with pytest.raises(ValueError):
            invert_matrix([[1, 2], [2, 4]])

    def test_as_point(self):
        assert as_point(["1/2", 3], 2) == (Fraction(1, 2), Fraction(3))
        with pytest.raises(ValueError):
            as_point([1], 2)

    def test_as_fraction_rejects_float(self):
        with pytest.raises(TypeError):
            as_fraction(0.25)


def test_to_str_stable():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = x * y * Fraction(-1, 2) + y**2
    assert p.to_str() == (x * y * Fraction(-1, 2) + y**2).to_str()
    assert "x1" in p.to_str() or "x" in p.to_str()


# -- a dict-of-Fraction reference ------------------------------------------
#
# Each function below works on plain {exponent tuple: Fraction} dicts, the
# way the ring is defined on paper, and shares no code with Polynomial.


def _clean(terms):
    return {e: c for e, c in terms.items() if c}


def ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return _clean(out)


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return _clean(out)


def ref_power(a, k, dim):
    out = {(0,) * dim: Fraction(1)}
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_compose(a, args, target):
    out = {}
    for e, c in a.items():
        term = {(0,) * target: c}
        for arg, k in zip(args, e):
            term = ref_mul(term, ref_power(arg, k, target))
        out = ref_add(out, term)
    return out


def ref_partial(a, axis):
    out = {}
    for e, c in a.items():
        if e[axis]:
            new = list(e)
            new[axis] -= 1
            out[tuple(new)] = c * e[axis]
    return out


def ref_det(rows):
    """The Leibniz sum over permutations, each signed by its inversions."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def ref_simplex_integral(a, q):
    """Integrate the trailing q variables over the standard q-simplex, one
    Fraction a!/(q+|a|)! per monomial."""
    out = {}
    for e, c in a.items():
        lead, b = e[: len(e) - q], e[len(e) - q :]
        weight = Fraction(prod(factorial(k) for k in b), factorial(q + sum(b)))
        out = ref_add(out, {lead: c * weight})
    return out


def ref_evaluate(a, pt):
    total = Fraction(0)
    for e, c in a.items():
        v = c
        for x, k in zip(pt, e):
            v *= Fraction(x) ** k
        total += v
    return total


def ref_homogeneous_parts(a):
    parts = {}
    for e, c in a.items():
        parts.setdefault(sum(e), {})[e] = c
    return parts


def terms_strategy(dim, max_degree=3, max_terms=4):
    exps = st.tuples(*[st.integers(0, max_degree) for _ in range(dim)])
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    return st.dictionaries(exps, coeff, max_size=max_terms).map(_clean)


# a product with a constant factor (0, 1, -1 or 3/2) scales the other's numerators
terms_or_constant = terms_strategy(2) | st.sampled_from(
    [Fraction(0), Fraction(1), Fraction(-1), Fraction(3, 2)]
).map(lambda c: _clean({(0, 0): c}))


class TestAgainstFractionReference:
    """Every ring operation agrees with the dict-of-Fraction reference."""

    @given(terms_or_constant, terms_or_constant)
    @settings(max_examples=80, deadline=None)
    def test_add_sub_mul(self, a, b):
        p, q = Polynomial(2, a), Polynomial(2, b)
        assert dict((p + q).terms) == ref_add(a, b)
        assert dict((p - q).terms) == ref_add(a, b, -1)
        assert dict((p * q).terms) == ref_mul(a, b)

    @given(terms_strategy(2), st.fractions(min_value=-5, max_value=5, max_denominator=7))
    @settings(max_examples=60, deadline=None)
    def test_scalar_ops(self, a, c):
        p = Polynomial(2, a)
        const = {(0, 0): c} if c else {}
        assert dict((p * c).terms) == ref_mul(a, const)
        assert dict((p + c).terms) == ref_add(a, const)
        assert dict((c - p).terms) == ref_add(const, a, -1)

    @given(
        terms_strategy(2, 3, 3),
        terms_strategy(3, 2, 3),
        terms_strategy(3, 2, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_compose(self, a, f, g):
        args = [Polynomial(3, f), Polynomial(3, g)]
        assert dict(Polynomial(2, a).compose(args).terms) == ref_compose(a, [f, g], 3)

    @given(
        terms_strategy(3, 3, 4),
        st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool),
        st.permutations([0, 1, 3]),
        st.lists(terms_strategy(2, 2, 3), min_size=3, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_compose_constant_term_and_mixed_tops(self, a, c, tops, args):
        # clip every exponent to the variable's top, reach each top once
        # and add a constant term, so x1..x3 have top exponents 0, 1 and 3
        clipped = {}
        for e, v in a.items():
            clipped = ref_add(clipped, {tuple(map(min, e, tops)): v})
        for i, top in enumerate(tops):
            if top:
                clipped = ref_add(clipped, {tuple(top if j == i else 0 for j in range(3)): 1})
        clipped = ref_add(clipped, {(0, 0, 0): c})
        polys = [Polynomial(2, t) for t in args]
        assert dict(Polynomial(3, clipped).compose(polys).terms) == ref_compose(clipped, args, 2)

    @given(st.integers(0, 4).flatmap(lambda q: st.tuples(st.just(q), terms_strategy(q + 2, 3, 5))))
    @settings(max_examples=80, deadline=None)
    def test_simplex_integral(self, case):
        q, a = case
        result = Polynomial(q + 2, a).simplex_integral(q)
        assert result.dim == 2
        assert dict(result.terms) == ref_simplex_integral(a, q)

    @given(terms_strategy(3), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_partial(self, a, axis):
        assert dict(Polynomial(3, a).partial(axis).terms) == ref_partial(a, axis)

    @given(terms_strategy(3, 3, 5))
    @settings(max_examples=80, deadline=None)
    def test_gradient_is_the_nonzero_partials(self, a):
        p = Polynomial(3, a)
        grad = p.gradient()
        partials = {axis: p.partial(axis) for axis in range(3)}
        assert grad == {axis: d for axis, d in partials.items() if not d.is_zero()}
        assert list(grad) == sorted(grad)
        assert {axis: dict(d.terms) for axis, d in grad.items()} == {
            axis: ref_partial(a, axis) for axis in range(3) if ref_partial(a, axis)
        }

    @given(
        st.integers(1, 4).flatmap(
            lambda target: st.tuples(
                st.just(target), st.lists(terms_strategy(target, 2, 3), min_size=3, max_size=3)
            )
        ),
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
        st.integers(0, 2),
    )
    @settings(max_examples=80, deadline=None)
    def test_compose_constant_zero_and_degree_one_term(self, case, c, axis):
        # the shortcuts: a constant stays itself and c * x_axis becomes
        # c * args[axis], in a target ring of any dimension
        target, args = case
        polys = [Polynomial(target, t) for t in args]
        unit = tuple(int(i == axis) for i in range(3))
        for terms in ({}, {(0, 0, 0): c}, {unit: c}, {unit: Fraction(1)}):
            terms = _clean(terms)
            result = Polynomial(3, terms).compose(polys)
            assert result.dim == target
            assert dict(result.terms) == ref_compose(terms, args, target)

    @given(terms_strategy(2), point_strategy(2))
    @settings(max_examples=80, deadline=None)
    def test_evaluate(self, a, pt):
        assert Polynomial(2, a).evaluate(pt) == ref_evaluate(a, pt)

    @given(terms_strategy(3))
    @settings(max_examples=60, deadline=None)
    def test_homogeneous_parts(self, a):
        parts = Polynomial(3, a).homogeneous_parts()
        assert {s: dict(p.terms) for s, p in parts.items()} == ref_homogeneous_parts(a)


class TestSubtraction:
    """a - b is a + (-b), whichever denominators and zeros meet."""

    @given(terms_or_constant, terms_or_constant)
    @settings(max_examples=80, deadline=None)
    def test_matches_adding_the_negation(self, a, b):
        p, q = Polynomial(2, a), Polynomial(2, b)
        assert p - q == p + (-q) and hash(p - q) == hash(p + (-q))
        assert q - p == -(p - q)

    def test_mixed_denominators(self):
        p = Polynomial(2, {(1, 0): Fraction(1, 3), (0, 0): Fraction(1, 4)})
        q = Polynomial(2, {(0, 1): "1/6", (0, 0): "-1/4", (1, 0): "1/3"})
        want = Polynomial(2, {(0, 1): Fraction(-1, 6), (0, 0): Fraction(1, 2)})
        assert p - q == p + (-q) == want
        assert (p - q).constant_term() == Fraction(1, 2)

    def test_full_cancellation(self):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        p = x * Fraction(1, 2) + y * Fraction(1, 3)
        q = Polynomial(2, {(1, 0): "3/6", (0, 1): "2/6"})
        assert p - q == Polynomial.zero(2) == p + (-q)
        assert (p - q).is_zero() and (p - q).degree() == 0

    def test_zero_operands(self):
        p = Polynomial(2, {(2, 1): Fraction(-5, 4), (0, 0): Fraction(7, 3)})
        zero = Polynomial.zero(2)
        assert p - zero == p == p + (-zero)
        assert zero - p == -p == zero + (-p)
        assert zero - zero == zero
        assert p - 0 == p and 0 - p == -p

    @pytest.mark.parametrize("c", [3, Fraction(-2, 5), "1/2", 0])
    def test_rsub_with_a_constant(self, c):
        p = Polynomial(2, {(1, 1): Fraction(2, 3), (0, 0): Fraction(1, 6)})
        assert c - p == (-p) + c == Polynomial.constant(2, c) + (-p)
        assert p - c == p + (-Polynomial.constant(2, c))
        assert (c - p).dim == 2


class TestOneValueOneRepresentation:
    """Equal values are == and hash alike, whatever route built them."""

    @given(terms_strategy(2))
    @settings(max_examples=60, deadline=None)
    def test_scale_and_unscale(self, a):
        p = Polynomial(2, a)
        q = p * 2 * Fraction(1, 2)
        assert q == p and hash(q) == hash(p)
        r = p * Fraction(3, 7) * Fraction(7, 3)
        assert r == p and hash(r) == hash(p)

    def test_routes_to_one_half_x(self):
        x = Polynomial.variable(1, 0)
        routes = [
            Polynomial(1, {(1,): Fraction(1, 2)}),
            Polynomial(1, {(1,): "2/4"}),
            x * Fraction(1, 2),
            (x * 3 + x) * Fraction(1, 8),
            (x * x * Fraction(1, 4)).partial(0),
            Polynomial(1, {(2,): Fraction(1, 2), (1,): Fraction(1, 2)}) - x * x * Fraction(1, 2),
            Polynomial(1, {(1,): Fraction(1, 4)}).compose([x * 2]),
        ]
        for p in routes:
            assert p == routes[0] and hash(p) == hash(routes[0])
        assert len(set(routes)) == 1

    def test_cancellation_to_zero(self):
        p = Polynomial(2, {(1, 0): Fraction(1, 3), (0, 2): Fraction(-5, 6)})
        z = p - p
        assert z == Polynomial.zero(2) and hash(z) == hash(Polynomial.zero(2))
        assert z == 0

    def test_constant_compares_with_numbers(self):
        assert Polynomial.constant(2, Fraction(6, 4)) == Fraction(3, 2)
        assert Polynomial.constant(2, 4) * Fraction(1, 4) == 1


def test_compose_leaves_no_reference_cycle():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x * x * y + x + 3) * (y * y + x * Fraction(1, 3))
    args = [x + y * y * Fraction(2, 5), y * 2 + 1]
    gc.collect()
    gc.disable()
    try:
        result = p.compose(args)
        del result
        assert gc.collect() == 0
    finally:
        gc.enable()


def layout_reads(path: Path) -> list[str]:
    """Where the module at ``path`` reads ``num``/``den`` or calls ``Polynomial._raw``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Attribute):
            continue
        raw = node.attr == "_raw" and isinstance(node.value, ast.Name) and node.value.id == "Polynomial"
        if node.attr in ("num", "den") or raw:
            found.append(f"{path.name}:{node.lineno} .{node.attr}")
    return found


def test_only_polynomial_module_touches_the_coefficient_layout():
    # the int-numerator layout may change without touching any other module
    package = Path(polynomial_module.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert package / "polynomial.py" in modules
    assert layout_reads(package / "polynomial.py")  # the walker does see the layout
    found = [hit for path in modules if path.name != "polynomial.py" for hit in layout_reads(path)]
    assert found == []
