"""Exterior calculus on polynomial forms: d, wedge, contraction, h, pullback."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocycle_forge.forms import (
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
from cocycle_forge.polynomial import Polynomial
from cocycle_forge.sampling import (
    random_form,
    random_fraction,
    random_polynomial,
    random_polynomial_map,
    random_vector_field,
)


def seeded(name: str) -> random.Random:
    return random.Random(f"forms:{name}")


@st.composite
def small_form(draw, dim=2, max_coeff_degree=2):
    degree = draw(st.integers(0, dim))
    seed = draw(st.integers(0, 10**6))
    return random_form(random.Random(seed), dim, degree, max_coeff_degree)


def reference_pullback(map_components, alpha):
    """Pullback by its definition: each f dx_I becomes the wedge product
    (f o g) dg_{i1}^...^dg_{ik} of whole forms, summed over I."""
    m = map_components[0].dim
    differentials = [
        PolyForm(m, 1, {(j,): g.partial(j) for j in range(m)}) for g in map_components
    ]
    result = PolyForm.zero(m, alpha.degree)
    for idx, poly in alpha.components.items():
        piece = PolyForm.from_polynomial(poly.compose(map_components))
        for axis in idx:
            piece = wedge(piece, differentials[axis])
        result = result + piece
    return result


def ref_poincare_h(degree, comps):
    """h(x^a dx_I) = sum_j (-1)^j x^(a + e_{I_j}) / (k + |a|) dx_{I minus I_j},
    one Fraction per monomial and position, on {index: {exponent: Fraction}}
    dicts; shares no code with the package."""
    out = {}
    for idx, terms in comps.items():
        for a, c in terms.items():
            for j, axis in enumerate(idx):
                exp = tuple(e + (i == axis) for i, e in enumerate(a))
                slot = out.setdefault(idx[:j] + idx[j + 1 :], {})
                slot[exp] = slot.get(exp, Fraction(0)) + (-1) ** j * c / (degree + sum(a))
    out = {i: {e: c for e, c in t.items() if c} for i, t in out.items()}
    return {i: t for i, t in out.items() if t}


@st.composite
def form_terms(draw):
    """(dim, degree, {index: {exponent: Fraction}}) for a form on R^1..R^4
    whose coefficients have total degree up to 8, so 1/(k+s) spans many k+s."""
    dim = draw(st.integers(1, 4))
    degree = draw(st.integers(0, dim))
    indices = draw(
        st.lists(st.sampled_from(list(combinations(range(dim), degree))), unique=True, max_size=3)
    )
    exps = st.tuples(*[st.integers(0, 8 // dim)] * dim)
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)
    comps = {idx: draw(st.dictionaries(exps, coeff, min_size=1, max_size=4)) for idx in indices}
    return dim, degree, comps


@st.composite
def map_and_form(draw):
    """A form on R^n, n = 2..4, of any degree, and a map R^m -> R^n whose
    components have zero, constant or polynomial partials."""
    dim = draw(st.integers(2, 4))
    source = draw(st.integers(1, dim))
    rng = random.Random(draw(st.integers(0, 10**6)))
    comps = []
    for kind in draw(st.lists(st.sampled_from("zcap"), min_size=dim, max_size=dim)):
        if kind == "z":  # the zero component
            comps.append(Polynomial.zero(source))
        elif kind == "c":  # a constant: every partial is zero
            comps.append(Polynomial.constant(source, random_fraction(rng)))
        elif kind == "a":  # affine: constant partials
            comps.append(
                sum(
                    (Polynomial.variable(source, j) * random_fraction(rng) for j in range(source)),
                    Polynomial.constant(source, random_fraction(rng)),
                )
            )
        else:
            comps.append(random_polynomial(rng, source, 2))
    degree = draw(st.integers(0, dim))
    return comps, random_form(rng, dim, degree, 2)


class TestPolyForm:
    def test_immutable(self):
        w = PolyForm.dx(2, 0)
        with pytest.raises(AttributeError):
            w.degree = 2
        with pytest.raises(AttributeError):
            w.components = {}

    def test_components_normalized(self):
        # reversed index pairs must be rejected; only increasing tuples are keys
        with pytest.raises(ValueError):
            PolyForm(2, 2, {(1, 0): Polynomial.constant(2, 1)})
        with pytest.raises(ValueError):
            PolyForm(2, 2, {(0, 0): Polynomial.constant(2, 1)})

    def test_degree_above_dim_is_zero(self):
        w = PolyForm(2, 3)
        assert w.is_zero()

    def test_volume(self):
        vol = PolyForm.volume(3)
        assert vol.degree == 3
        assert vol.coefficient((0, 1, 2)) == Polynomial.constant(3, 1)

    def test_add_requires_matching_degree(self):
        with pytest.raises(ValueError):
            PolyForm.dx(2, 0) + PolyForm.volume(2)

    def test_scalar_and_polynomial_multiplication(self):
        x = Polynomial.variable(2, 0)
        w = PolyForm.dx(2, 1) * x
        assert w.coefficient((1,)) == x
        assert (w * Fraction(2)).coefficient((1,)) == 2 * x

    def test_polynomial_scalar_multiplies_from_either_side(self):
        x = Polynomial.variable(2, 0)
        w = PolyForm.dx(2, 1) + PolyForm.dx(2, 0) * Fraction(1, 3)
        assert x * w == w * x
        with pytest.raises(TypeError):
            x * 0.5

    def test_evaluate_against_determinant(self):
        vol = PolyForm.volume(2)
        assert evaluate(vol, (0, 0), [(1, 0), (0, 1)]) == 1
        assert evaluate(vol, (0, 0), [(0, 1), (1, 0)]) == -1
        assert evaluate(vol, (5, 5), [(2, 0), (1, 3)]) == 6

    def test_evaluate_alternating(self):
        rng = seeded("alternating")
        w = random_form(rng, 3, 2, 2)
        pt = (1, -1, 2)
        u, v = (1, 2, 0), (0, 1, 3)
        assert evaluate(w, pt, [u, v]) == -evaluate(w, pt, [v, u])
        assert evaluate(w, pt, [u, u]) == 0


class TestHashContract:
    """Equal forms hash alike, whatever route built them."""

    def test_routes_to_one_form(self):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        coeff = Polynomial(2, {(0, 0): 1, (1, 1): "1/2"})
        w = PolyForm(2, 2, {(0, 1): coeff})
        vol = PolyForm.volume(2)
        routes = [
            PolyForm(2, 2, {(0, 1): 1 + x * y * Fraction(1, 2)}),
            vol + vol * (x * y * Fraction(1, 2)),
            (w + w) - w,
            pullback([x, y], w),
            ext_d(poincare_h(w)),
        ]
        for v in routes:
            assert v == w and hash(v) == hash(w)
        assert len({w, *routes}) == 1

    def test_cancellation_to_zero(self):
        w = PolyForm(2, 1, {(0,): Polynomial.variable(2, 1), (1,): "3/4"})
        z = w - w
        assert z == PolyForm.zero(2, 1) and hash(z) == hash(PolyForm.zero(2, 1))


@st.composite
def form_pair(draw):
    """Two forms of one degree on one R^n, with mixed-denominator coefficients."""
    dim = draw(st.integers(1, 3))
    degree = draw(st.integers(0, dim))
    rng = random.Random(draw(st.integers(0, 10**6)))
    return random_form(rng, dim, degree, 2), random_form(rng, dim, degree, 2)


class TestSubtraction:
    """w - v is w + (-v), built without the negated copy."""

    @given(form_pair())
    @settings(max_examples=60, deadline=None)
    def test_matches_adding_the_negation(self, pair):
        w, v = pair
        assert w - v == w + (-v) and hash(w - v) == hash(w + (-v))
        assert v - w == -(w - v)

    def test_mixed_denominators(self):
        x = Polynomial.variable(2, 0)
        w = PolyForm(2, 1, {(0,): x * Fraction(1, 3), (1,): "1/4"})
        v = PolyForm(2, 1, {(0,): x * Fraction(1, 6), (1,): "-1/6"})
        want = PolyForm(2, 1, {(0,): x * Fraction(1, 6), (1,): "5/12"})
        assert w - v == w + (-v) == want

    def test_full_cancellation(self):
        y = Polynomial.variable(2, 1)
        w = PolyForm(2, 1, {(0,): y * Fraction(1, 2), (1,): "3/4"})
        v = PolyForm(2, 1, {(0,): y * Fraction(2, 4), (1,): "6/8"})
        assert w - v == PolyForm.zero(2, 1) == w + (-v)
        assert (w - v).components == {}

    def test_zero_operands(self):
        w = PolyForm(3, 2, {(0, 2): Polynomial.variable(3, 1) * Fraction(-2, 7)})
        zero = PolyForm.zero(3, 2)
        assert w - zero == w == w + (-zero)
        assert zero - w == -w == zero + (-w)
        assert zero - zero == zero

    def test_degrees_must_match(self):
        with pytest.raises(ValueError):
            PolyForm.dx(2, 0) - PolyForm.volume(2)


class TestWedge:
    def test_basis_wedge(self):
        dx = PolyForm.dx(2, 0)
        dy = PolyForm.dx(2, 1)
        assert wedge(dx, dy) == PolyForm.volume(2)
        assert wedge(dy, dx) == -PolyForm.volume(2)
        assert wedge(dx, dx).is_zero()

    def test_function_wedge_is_multiplication(self):
        f = PolyForm.from_polynomial(Polynomial.variable(2, 0))
        dy = PolyForm.dx(2, 1)
        assert wedge(f, dy) == dy * Polynomial.variable(2, 0)

    @given(small_form(3), small_form(3))
    @settings(max_examples=50, deadline=None)
    def test_graded_commutativity(self, a, b):
        sign = -1 if (a.degree * b.degree) % 2 else 1
        assert wedge(a, b) == wedge(b, a) * sign

    @given(small_form(2), small_form(2), small_form(2))
    @settings(max_examples=40, deadline=None)
    def test_associativity(self, a, b, c):
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


class TestExteriorDerivative:
    def test_d_of_function(self):
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        df = ext_d(PolyForm.from_polynomial(x * y))
        assert df.coefficient((0,)) == y
        assert df.coefficient((1,)) == x

    @given(small_form(3))
    @settings(max_examples=60, deadline=None)
    def test_d_squared_zero(self, w):
        assert ext_d(ext_d(w)).is_zero()

    @given(small_form(2), small_form(2))
    @settings(max_examples=40, deadline=None)
    def test_leibniz(self, a, b):
        sign = -1 if a.degree % 2 else 1
        lhs = ext_d(wedge(a, b))
        rhs = wedge(ext_d(a), b) + wedge(a, ext_d(b)) * sign
        assert lhs == rhs


class TestInterior:
    def test_first_slot_convention(self):
        # i(X) fills the FIRST argument slot
        vol = PolyForm.volume(2)
        x_field = PolyVectorField.constant(2, (1, 0))
        contracted = interior(x_field, vol)
        # vol(e1, .) = dy
        assert contracted == PolyForm.dx(2, 1)

    def test_zero_on_functions(self):
        f = PolyForm.from_polynomial(Polynomial.variable(2, 0))
        x_field = PolyVectorField.constant(2, (1, 1))
        assert interior(x_field, f).is_zero()

    def test_double_contraction_antisymmetry(self):
        rng = seeded("double")
        w = random_form(rng, 3, 3, 2)
        u = random_vector_field(rng, 3, 1)
        v = random_vector_field(rng, 3, 1)
        assert interior(u, interior(v, w)) == -interior(v, interior(u, w))

    def test_contraction_matches_evaluation(self):
        rng = seeded("eval")
        w = random_form(rng, 3, 2, 2)
        vec = (2, -1, 3)
        field = PolyVectorField.constant(3, vec)
        pt = (1, 1, -2)
        other = (0, 1, 1)
        assert evaluate(interior(field, w), pt, [other]) == evaluate(
            w, pt, [vec, other]
        )


class TestHomotopyOperator:
    @given(small_form(3))
    @settings(max_examples=60, deadline=None)
    def test_dh_plus_hd_identity_positive_degree(self, w):
        if w.degree == 0:
            return
        assert ext_d(poincare_h(w)) + poincare_h(ext_d(w)) == w

    @given(form_terms())
    @settings(max_examples=80, deadline=None)
    def test_matches_per_monomial_reference(self, case):
        dim, degree, comps = case
        w = PolyForm(dim, degree, {i: Polynomial(dim, t) for i, t in comps.items()})
        h = poincare_h(w)
        assert (h.dim, h.degree) == (dim, max(degree - 1, 0))
        assert {i: dict(p.terms) for i, p in h.components.items()} == ref_poincare_h(
            degree, comps
        )

    def test_degree_zero_recovers_value_at_origin(self):
        rng = seeded("h0")
        for _ in range(20):
            p = random_form(rng, 2, 0, 3)
            f = p.coefficient(())
            recovered = poincare_h(ext_d(p))
            expected = f - f.evaluate((0, 0))
            assert recovered.coefficient(()) == expected

    def test_h_squared_is_zero(self):
        # h contracts with the radial field twice, and i(E) i(E) = 0; the
        # collapsed descent levels in ``zigzag`` rest on this identity
        rng = seeded("hh")
        nonzero = 0
        for dim in range(1, 5):
            for degree in range(dim + 1):
                for _ in range(4):
                    a = random_form(rng, dim, degree, 3)
                    nonzero += not poincare_h(a).is_zero()
                    assert poincare_h(poincare_h(a)).is_zero()
        assert nonzero > 20

    def test_h_vanishes_on_functions(self):
        f = PolyForm.from_polynomial(Polynomial.variable(2, 0))
        assert poincare_h(f).is_zero()

    def test_primitive_of_volume(self):
        # h(dx^dy) = (x dy - y dx)/2, an explicit primitive
        prim = poincare_h(PolyForm.volume(2))
        assert ext_d(prim) == PolyForm.volume(2)
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        assert prim.coefficient((1,)) == x * Fraction(1, 2)
        assert prim.coefficient((0,)) == y * Fraction(-1, 2)


class TestPullback:
    @given(map_and_form())
    @settings(max_examples=150, deadline=None)
    def test_matches_wedge_of_differentials(self, case):
        comps, w = case
        assert pullback(comps, w) == reference_pullback(comps, w)

    def test_identity_map(self):
        rng = seeded("pb_id")
        w = random_form(rng, 3, 2, 2)
        coords = [Polynomial.variable(3, i) for i in range(3)]
        assert pullback(coords, w) == w

    def test_functoriality(self):
        rng = seeded("pb_fun")
        for _ in range(15):
            w = random_form(rng, 2, rng.randint(0, 2), 2)
            f = random_polynomial_map(rng, 2, 2)
            g = random_polynomial_map(rng, 2, 2)
            composed = [p.compose(g) for p in f]
            assert pullback(composed, w) == pullback(g, pullback(f, w))

    def test_commutes_with_d(self):
        rng = seeded("pb_d")
        for _ in range(15):
            w = random_form(rng, 2, rng.randint(0, 1), 2)
            f = random_polynomial_map(rng, 2, 2)
            assert pullback(f, ext_d(w)) == ext_d(pullback(f, w))

    def test_source_dimension_may_differ(self):
        # pull a plane form back to a line
        w = PolyForm.dx(2, 0) * Polynomial.variable(2, 1)
        t = Polynomial.variable(1, 0)
        restricted = pullback([t, t * t], w)  # along t -> (t, t^2)
        assert restricted.coefficient((0,)) == t * t


class TestVectorFieldsAndCartan:
    def test_euler_field(self):
        e = PolyVectorField.euler(2)
        assert e.components[0] == Polynomial.variable(2, 0)

    def test_bracket_antisymmetry(self):
        rng = seeded("bracket")
        u = random_vector_field(rng, 2, 2)
        v = random_vector_field(rng, 2, 2)
        w = u.bracket(v)
        assert w == PolyVectorField(
            [-c for c in v.bracket(u).components]
        )

    def test_cartan_magic_formula(self):
        rng = seeded("cartan")
        for _ in range(15):
            w = random_form(rng, 2, rng.randint(0, 2), 2)
            x = random_vector_field(rng, 2, 2)
            lhs = lie_derivative(x, w)
            if w.degree == 0:
                rhs = interior(x, ext_d(w))
            else:
                rhs = interior(x, ext_d(w)) + ext_d(interior(x, w))
            assert lhs == rhs

    def test_euler_grading(self):
        # L_E acts as multiplication by (form degree + coefficient degree)
        # on monomial pieces
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        w = PolyForm.dx(2, 1) * (x**2 * y)
        assert lie_derivative(PolyVectorField.euler(2), w) == w * Fraction(4)
