"""Affine chains, boundaries, and exact integration of polynomial forms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocycle_forge import chains
from cocycle_forge.chains import (
    AffineSimplex,
    Chain,
    boundary,
    integrate,
    integrate_translated,
    is_cycle,
    pushforward,
    require_cycle,
)
from cocycle_forge.diffeo import PolyDiffeo
from cocycle_forge.errors import DimensionMismatchError, NotACycleError
from cocycle_forge.forms import PolyForm, ext_d
from cocycle_forge.polynomial import Polynomial
from cocycle_forge.sampling import random_form, random_simplex


def seeded(name):
    return random.Random(f"chains:{name}")


class TestSimplexAndChain:
    def test_simplex_validation(self):
        with pytest.raises(ValueError):
            AffineSimplex([])  # no vertices
        with pytest.raises(ValueError):
            AffineSimplex([(0, 0), (1,)])  # ragged
        with pytest.raises(ValueError):
            # 3 affinely parametrized vertices need ambient dim >= 2
            AffineSimplex([(0,), (1,), (2,)])

    def test_face(self):
        tri = AffineSimplex([(0, 0), (1, 0), (0, 1)])
        assert tri.face(0) == AffineSimplex([(1, 0), (0, 1)])
        assert tri.face(2) == AffineSimplex([(0, 0), (1, 0)])

    @given(st.integers(0, 10**6), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_face_matches_fresh_simplex(self, seed, q):
        sigma = random_simplex(random.Random(seed), 3, q)
        for i in range(q + 1):
            face = sigma.face(i)
            fresh = AffineSimplex(sigma.vertices[:i] + sigma.vertices[i + 1 :])
            assert face == fresh
            assert hash(face) == hash(fresh)
            assert (face.dim, face.ambient) == (fresh.dim, fresh.ambient)
            if q > 1:
                assert face.face(0) == fresh.face(0)
            else:
                with pytest.raises(ValueError):
                    face.face(0)
            with pytest.raises(AttributeError):
                face.vertices = ()
            with pytest.raises(AttributeError):
                face.dim = 0

    def test_chain_algebra(self):
        a = Chain.point([0, 0])
        b = Chain.point([1, 1])
        combo = a * 2 - b
        assert not combo.is_zero()
        assert (combo - a * 2 + b).is_zero()

    def test_zero_coefficients_dropped(self):
        a = Chain.point([0])
        assert (a - a).is_zero()
        assert (a - a) == Chain(0, 1)

    def test_translate(self):
        seg = Chain.segment([0, 0], [1, 0])
        moved = seg.translate(["1/2", 1])
        expected = Chain.segment([Fraction(1, 2), 1], [Fraction(3, 2), 1])
        assert moved == expected


class TestBoundary:
    def test_segment_boundary(self):
        seg = Chain.segment([0, 0], [2, 3])
        assert boundary(seg) == Chain.point([2, 3]) - Chain.point([0, 0])

    def test_triangle_boundary_closes(self):
        tri = Chain.simplex([(0, 0), (1, 0), (0, 1)])
        assert boundary(boundary(tri)).is_zero()

    def test_triangle_boundary_edges(self):
        # boundary writes the closing edge as -[a,c]; triangle_loop as +[c,a].
        # They differ formally but integrate every 1-form identically.
        tri = Chain.simplex([(0, 0), (1, 0), (0, 1)])
        edges = boundary(tri)
        loop = Chain.triangle_loop((0, 0), (1, 0), (0, 1))
        assert is_cycle(edges)
        rng = seeded("edges")
        for _ in range(10):
            w = random_form(rng, 2, 1, 3)
            assert integrate(w, edges) == integrate(w, loop)

    def test_boundary_squared_zero_random(self):
        rng = seeded("ddzero")
        for _ in range(25):
            q = rng.randint(2, 3)
            sigma = random_simplex(rng, 3, q)
            assert boundary(boundary(Chain(q, 3, {sigma: 1}))).is_zero()

    def test_boundary_needs_positive_dimension(self):
        with pytest.raises(ValueError):
            boundary(Chain.point([0]))


class TestCycles:
    def test_point_is_cycle(self):
        assert is_cycle(Chain.point([5, 5]))

    def test_segment_is_not_cycle(self):
        assert not is_cycle(Chain.segment([0], [1]))

    def test_triangle_loop_is_cycle(self):
        assert is_cycle(Chain.triangle_loop((0, 0), (1, 0), (0, 1)))

    def test_require_cycle_raises(self):
        with pytest.raises(NotACycleError):
            require_cycle(Chain.segment([0], [1]))


class TestIntegration:
    def test_area_of_standard_triangle(self):
        tri = Chain.simplex([(0, 0), (1, 0), (0, 1)])
        assert integrate(PolyForm.volume(2), tri) == Fraction(1, 2)

    def test_line_integral(self):
        # x dy along the diagonal (0,0) -> (1,1)
        seg = Chain.segment([0, 0], [1, 1])
        x_dy = PolyForm.dx(2, 1) * Polynomial.variable(2, 0)
        assert integrate(x_dy, seg) == Fraction(1, 2)

    def test_dirichlet_monomial(self):
        # xy over the standard triangle: 1!1!/4! = 1/24
        tri = Chain.simplex([(0, 0), (1, 0), (0, 1)])
        xy = Polynomial.variable(2, 0) * Polynomial.variable(2, 1)
        assert integrate(PolyForm.volume(2) * xy, tri) == Fraction(1, 24)

    def test_point_evaluation(self):
        f = PolyForm.from_polynomial(Polynomial.variable(2, 0) ** 2)
        assert integrate(f, Chain.point([3, 1])) == 9

    def test_orientation_flip(self):
        flipped = Chain.simplex([(1, 0), (0, 0), (0, 1)])
        assert integrate(PolyForm.volume(2), flipped) == Fraction(-1, 2)

    def test_linearity_in_chain(self):
        rng = seeded("linearity")
        w = random_form(rng, 2, 1, 3)
        a = Chain.segment([0, 0], [1, 2])
        b = Chain.segment([1, 2], [0, 3])
        assert integrate(w, a + b * 3) == integrate(w, a) + 3 * integrate(w, b)

    def test_degree_dimension_mismatch(self):
        with pytest.raises(ValueError):
            integrate(PolyForm.volume(2), Chain.segment([0, 0], [1, 1]))

    def test_green_area_formula(self):
        # closed loop integral of x dy equals the enclosed area
        loop = Chain.triangle_loop((0, 0), (2, 0), (0, 2))
        x_dy = PolyForm.dx(2, 1) * Polynomial.variable(2, 0)
        assert integrate(x_dy, loop) == 2


    @given(st.integers(0, 10**6), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_repeat_integration_matches_fresh_simplex(self, seed, q):
        # the parametrization a simplex keeps after its first integral
        # gives the same values as one built afresh, in either order of
        # fixed and translated integrals
        rng = random.Random(seed)
        sigma = random_simplex(rng, 3, q)
        chain = Chain(q, 3, {sigma: 1})
        forms = [random_form(rng, 3, q, 3) for _ in range(3)]
        for w in forms:
            fresh = Chain(q, 3, {AffineSimplex(sigma.vertices): 1})
            assert integrate_translated(w, chain) == integrate_translated(w, fresh)
            assert integrate(w, chain) == integrate(w, fresh)
        for w in forms:
            fresh = Chain(q, 3, {AffineSimplex(sigma.vertices): 1})
            assert integrate(w, chain) == integrate(w, fresh)
            assert integrate_translated(w, chain) == integrate_translated(w, fresh)

    def test_vanishing_minors_integrate_to_zero(self, monkeypatch):
        # the triangle lies in the plane x1 = 0, so every minor of the
        # dx1-components vanishes and nothing needs composing
        tri = Chain.simplex([(0, 0, 0), (0, 1, 0), (0, 2, 3)])
        w = PolyForm(
            3,
            2,
            {
                (0, 1): Polynomial.variable(3, 2) + 1,
                (0, 2): Polynomial.variable(3, 1) * Polynomial.variable(3, 0),
            },
        )

        def refuse(self, args):
            raise AssertionError("a vanishing minor was composed")

        monkeypatch.setattr(Polynomial, "compose", refuse)
        assert integrate(w, tri) == 0
        assert integrate_translated(w, tri).is_zero()
        seg = Chain.segment([1, 2, 3], [1, 2, 5])
        assert integrate_translated(PolyForm.dx(3, 0) + PolyForm.dx(3, 1), seg).is_zero()

    def test_point_integral_has_no_minor(self, monkeypatch):
        # a point's translated integral is its coefficient at g + vertex:
        # no determinant and no simplex weights
        def refuse(rows):
            raise AssertionError("a point integral took a determinant")

        monkeypatch.setattr(chains, "det", refuse)
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        f = x * x * y * Fraction(1, 2) - y + 3
        points = Chain.point([Fraction(1, 3), -2]) * 2 - Chain.point([0, 5])
        moved = [[x + Fraction(1, 3), y - 2], [x, y + 5]]
        assert integrate_translated(PolyForm.from_polynomial(f), points) == (
            f.compose(moved[0]) * 2 - f.compose(moved[1])
        )


class TestStokes:
    @given(st.integers(0, 10**6), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_stokes_random(self, seed, q):
        rng = random.Random(seed)
        dim = 3
        sigma = random_simplex(rng, dim, q)
        alpha = random_form(rng, dim, q - 1, 4)
        chain = Chain(q, dim, {sigma: Fraction(1)})
        assert integrate(ext_d(alpha), chain) == integrate(alpha, boundary(chain))


class TestTranslatedIntegration:
    def test_matches_pointwise_translation(self):
        rng = seeded("translated")
        for _ in range(15):
            q = rng.randint(0, 2)
            sigma = random_simplex(rng, 2, q)
            chain = Chain(q, 2, {sigma: 1})
            w = random_form(rng, 2, q, 3)
            sym = integrate_translated(w, chain)
            for _ in range(3):
                g = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
                assert sym.evaluate(g) == integrate(w, chain.translate(g))

    def test_constant_form_is_translation_invariant(self):
        loop = Chain.triangle_loop((0, 0), (1, 0), (0, 1))
        x_dy = PolyForm.dx(2, 1) * Polynomial.variable(2, 0)
        sym = integrate_translated(x_dy, loop)
        # Green: area 1/2 independent of the base point
        assert sym == Polynomial.constant(2, Fraction(1, 2))


class TestPushforward:
    def test_point_pushforward_any_degree(self):
        sigma = PolyDiffeo.shear(2, 0, Polynomial(2, {(0, 2): Fraction(1)}))
        moved = pushforward(sigma, Chain.point([0, 2]))
        assert moved == Chain.point([4, 2])

    def test_nonaffine_rejected_on_positive_dimension(self):
        # only 0-chains are pushed forward, under any map
        sigma = PolyDiffeo.shear(2, 0, Polynomial(2, {(0, 2): Fraction(1)}))
        rot = PolyDiffeo.linear([[0, -1], [1, 0]])
        for g in (sigma, rot):
            with pytest.raises(DimensionMismatchError, match="got a 1-chain"):
                pushforward(g, Chain.segment([0, 0], [0, 1]))

    def test_change_of_variables(self):
        # integral of the pullback equals integral over the image
        a = PolyDiffeo.linear([[1, 1], [0, 1]])
        tri = Chain.simplex([(0, 0), (1, 0), (0, 1)])
        rng = seeded("cov")
        w = random_form(rng, 2, 2, 3)
        image = Chain.simplex([a.apply(v) for v in ((0, 0), (1, 0), (0, 1))])
        assert integrate(a.pullback_form(w), tri) == integrate(w, image)
