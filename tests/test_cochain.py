"""Group cochains with form and real values; the two differentials; transgression."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocycle_forge.chains import Chain, integrate_translated
from cocycle_forge.cochain import (
    Cochain,
    F_gamma,
    delta_double_prime,
    delta_prime,
    f_gamma,
)
from cocycle_forge.diffeo import GroupPresentation, PolyDiffeo
from cocycle_forge.errors import (
    DegreeCapExceededError,
    DimensionMismatchError,
    NotACycleError,
)
from cocycle_forge.forms import PolyForm, PolyVectorField, ext_d, interior
from cocycle_forge.polynomial import Polynomial
from cocycle_forge.sampling import random_form, random_vector


def seeded(name):
    return random.Random(f"cochain:{name}")


def sample_group():
    gens = [
        PolyDiffeo.translation([1, 0], "T1"),
        PolyDiffeo.translation([0, 1], "T2"),
        PolyDiffeo.shear(2, 0, Polynomial(2, {(0, 2): Fraction(1)}), "sigma"),
    ]
    return GroupPresentation(gens, [PolyForm.volume(2)])


class TestCochainBasics:
    def test_of_form_ignores_arguments(self):
        w = PolyForm.volume(2)
        c = Cochain.of_form(w)
        assert c.p == 0
        assert c() == w

    def test_arity_enforced(self):
        c = Cochain.of_form(PolyForm.volume(2))
        with pytest.raises(ValueError):
            c(PolyDiffeo.identity(2))

    def test_dimension_enforced(self):
        c = Cochain(1, 0, 2, lambda g: PolyForm.constant_function(2, 1))
        with pytest.raises(DimensionMismatchError):
            c(PolyDiffeo.identity(3))

    def test_real_cochain_type_checks(self):
        c = Cochain.constant(2, "2/3")
        assert c() == Fraction(2, 3)
        with pytest.raises(TypeError):
            Cochain(1, None, 2, lambda g: Fraction(1))("not a map")


class TestDeltaPrime:
    def test_degree_zero_formula(self):
        # (d'f)(g) = f - g*f for a 0-cochain
        x = Polynomial.variable(2, 0)
        w = PolyForm.dx(2, 1) * x
        c = Cochain.of_form(w)
        g = PolyDiffeo.translation([2, 0])
        assert delta_prime(c)(g) == w - g.pullback_form(w)

    def test_invariant_form_is_closed(self):
        c = Cochain.of_form(PolyForm.volume(2))
        for g in sample_group().generators:
            assert delta_prime(c)(g).is_zero()

    def test_delta_prime_squared_zero(self):
        rng = seeded("dp2")
        group = sample_group()
        w = random_form(rng, 2, 1, 2)
        c = Cochain.of_form(w)
        dd = delta_prime(delta_prime(c))
        for gs in zip(
            group.sample_words(8, 2, 3), group.sample_words(8, 2, 4)
        ):
            assert dd(*gs).is_zero()

    def test_delta_prime_squared_zero_degree_one(self):
        rng = seeded("dp2_p1")
        group = sample_group()
        theta = random_form(rng, 2, 1, 2)

        def evaluator(g, _theta=theta):
            return g.pullback_form(_theta)

        c = Cochain(1, 1, 2, evaluator)
        dd = delta_prime(delta_prime(c))
        words = group.sample_words(24, 2, 9)
        for k in range(8):
            assert dd(*words[3 * k : 3 * k + 3]).is_zero()

    def test_anticommutes_with_delta_double_prime(self):
        rng = seeded("anti")
        group = sample_group()
        w = random_form(rng, 2, 1, 2)
        c = Cochain.of_form(w)
        lhs = delta_prime(delta_double_prime(c))
        rhs = delta_double_prime(delta_prime(c))
        for g in group.sample_words(8, 2, 5):
            assert (lhs(g) + rhs(g)).is_zero()


class TestDegreeCap:
    @pytest.mark.parametrize(
        "cochain",
        [
            Cochain(1, 0, 2, lambda g: PolyForm.constant_function(2, 1)),
            Cochain(1, None, 2, lambda g: Fraction(1)),
        ],
        ids=["forms", "reals"],
    )
    def test_over_cap_merge_refused(self, cochain):
        # the merged product of two quadratic shears has degree bound 4
        sigma = sample_group().generator("sigma")
        with pytest.raises(DegreeCapExceededError):
            delta_prime(cochain, degree_cap=3)(sigma, sigma)
        # a constant c gives (d'c)(g, h) = c - c + c, on either module
        assert delta_prime(cochain, degree_cap=4)(sigma, sigma) == cochain(sigma)


class TestBigD:
    def test_degree_one_coboundary(self):
        # (Db)(g, h) = b(h) - b(gh) + b(g)
        values = {}

        def evaluator(g):
            return values.setdefault(g, Fraction(len(values), 7))

        b = Cochain(1, None, 2, evaluator)
        db = delta_prime(b)
        g = PolyDiffeo.translation([1, 0])
        h = PolyDiffeo.translation([0, 1])
        assert db(g, h) == b(h) - b(g.compose(h)) + b(g)

    def test_d_squared_zero(self):
        rng = seeded("D2")
        group = sample_group()

        def evaluator(g):
            return Fraction(
                sum(int(c.evaluate((1, 2))) for c in g.forward) % 11, 3
            )

        b = Cochain(1, None, 2, evaluator)
        dd = delta_prime(delta_prime(b))
        words = group.sample_words(24, 2, 6)
        for k in range(8):
            assert dd(*words[3 * k : 3 * k + 3]) == 0


def reference_f_gamma(gamma, omega):
    """The transgression by its definition: contract by the constant basis
    fields e_{a_1}, ..., e_{a_p} one interior product at a time, then
    integrate the contracted form over g + gamma."""
    n = omega.dim
    if omega.degree < gamma.dim:
        return PolyForm.zero(n, 0)
    p = omega.degree - gamma.dim
    comps = {}
    for idx in itertools.combinations(range(n), p):
        contracted = omega
        for axis in idx:
            field = PolyVectorField.constant(n, [1 if i == axis else 0 for i in range(n)])
            contracted = interior(field, contracted)
        comps[idx] = integrate_translated(contracted, gamma)
    return PolyForm(n, p, comps)


@st.composite
def chain_and_form(draw):
    """A point, a triangle loop or a segment in R^n, n = 1..4, and a form
    of any degree on R^n."""
    n = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 10**6)))
    a, b, c = (random_vector(rng, n, 3) for _ in range(3))
    kind = draw(st.sampled_from(["point", "loop", "segment"]))
    gamma = {
        "point": Chain.point(a),
        "loop": Chain.triangle_loop(a, b, c),
        "segment": Chain.segment(a, b),
    }[kind]
    omega = random_form(rng, n, draw(st.integers(0, n)), 2)
    return gamma, omega


class TestFGamma:
    @given(chain_and_form())
    @settings(max_examples=150, deadline=None)
    def test_matches_interior_product_definition(self, case):
        gamma, omega = case
        assert f_gamma(gamma, omega) == reference_f_gamma(gamma, omega)

    def test_point_cycle_identity_on_constants(self):
        rng = seeded("point")
        point = Chain.point([0, 0])
        for _ in range(20):
            k = rng.randint(0, 2)
            w = PolyForm(
                2,
                k,
                {
                    idx: Polynomial.constant(2, random_vector(rng, 1)[0])
                    for idx in [tuple(range(k))]
                },
            )
            assert f_gamma(point, w) == w

    def test_low_degree_gives_zero(self):
        loop = Chain.triangle_loop((0, 0), (1, 0), (0, 1))
        f = PolyForm.from_polynomial(Polynomial.variable(2, 0))
        assert f_gamma(loop, f).is_zero()

    def test_segment_contraction_value(self):
        # vertical unit segment, area form: only the first-axis
        # contraction survives and integrates to one, so the result is dx1
        seg = Chain.segment([0, 0], [0, 1])
        out = f_gamma(seg, PolyForm.volume(2))
        assert out == PolyForm.dx(2, 0)

    def test_cycle_required_by_default(self):
        # f_gamma transgresses any chain; the cochain-level F_gamma, whose
        # intertwining identities need a cycle, refuses a segment
        seg = Chain.segment([0, 0], [0, 1])
        with pytest.raises(NotACycleError):
            F_gamma(Cochain.of_form(PolyForm.volume(2)), seg)

    def test_d_intertwine_on_loop(self):
        rng = seeded("dloop")
        loop = Chain.triangle_loop((0, 0), (1, 0), (0, 1))
        for _ in range(15):
            w = random_form(rng, 2, rng.randint(1, 2), 3)
            assert ext_d(f_gamma(loop, w)) == f_gamma(loop, ext_d(w))

    def test_translation_invariant_result(self):
        # moving the cycle by a translation shifts the argument of the result
        rng = seeded("shift")
        loop = Chain.triangle_loop((0, 0), (1, 0), (0, 1))
        w = random_form(rng, 2, 2, 2)
        v = (Fraction(1, 2), Fraction(-2, 3))
        moved = f_gamma(loop.translate(v), w)
        expected = PolyDiffeo.translation(v).pullback_form(f_gamma(loop, w))
        assert moved == expected


class TestFGammaOnCochains:
    def test_delta_prime_intertwine(self):
        rng = seeded("Fdp")
        loop = Chain.triangle_loop((0, 0), (1, 0), (0, 1))
        for _ in range(10):
            theta = random_form(rng, 2, rng.randint(1, 2), 2)

            def evaluator(g, _theta=theta):
                return g.pullback_form(_theta)

            c = Cochain(1, theta.degree, 2, evaluator)
            lhs = delta_prime(F_gamma(c, loop))
            rhs = F_gamma(delta_prime(c), loop)
            a = PolyDiffeo.translation(random_vector(rng, 2))
            b = PolyDiffeo.translation(random_vector(rng, 2))
            assert lhs(a, b) == rhs(a, b)

    def test_preserves_group_degree(self):
        loop = Chain.triangle_loop((0, 0), (1, 0), (0, 1))
        c = Cochain(1, 2, 2, lambda g: PolyForm.volume(2))
        out = F_gamma(c, loop)
        assert out.p == 1
        assert out.q == 1  # the chain dimension is subtracted from q
