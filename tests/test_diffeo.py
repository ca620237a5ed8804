"""Polynomial diffeomorphisms, composition caps, and group presentations."""

import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from cocycle_forge.checks import _transvection
from cocycle_forge.diffeo import DEFAULT_DEGREE_CAP, GroupPresentation, PolyDiffeo
from cocycle_forge.errors import (
    DegreeCapExceededError,
    DimensionMismatchError,
    InvarianceError,
)
from cocycle_forge.forms import PolyForm, PolyVectorField, ext_d, interior, pullback
from cocycle_forge.polynomial import Polynomial
from cocycle_forge.sampling import (
    nonzero_constant_form,
    random_form,
    random_polynomial,
    random_vector,
)
from cocycle_forge.scenario import load_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def area_shear():
    y_sq = Polynomial(2, {(0, 2): Fraction(1)})
    return PolyDiffeo.shear(2, 0, y_sq, "sigma")


class TestConstructors:
    def test_identity(self):
        g = PolyDiffeo.identity(3)
        assert g.is_identity()
        assert g.apply((1, 2, 3)) == (1, 2, 3)
        assert g.degree() == 1

    def test_translation_roundtrip(self):
        g = PolyDiffeo.translation(["1/2", -1])
        assert g.apply((0, 0)) == (Fraction(1, 2), -1)
        assert g.inverted().apply(g.apply((3, 4))) == (3, 4)
        assert g.label == "T(1/2,-1)"

    def test_translation_reads_an_iterator_once(self):
        g = PolyDiffeo.translation(x for x in [1, 2])
        assert g == PolyDiffeo.translation([1, 2])
        assert g.label == "T(1,2)"

    def test_linear(self):
        rot = PolyDiffeo.linear([[0, -1], [1, 0]], "rot90")
        assert rot.apply((1, 0)) == (0, 1)
        assert rot.compose(rot).compose(rot).compose(rot).is_identity()

    def test_linear_rejects_singular(self):
        with pytest.raises(ValueError):
            PolyDiffeo.linear([[1, 2], [2, 4]])

    def test_linear_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatchError):
            PolyDiffeo.linear([[1, 0, 0], [0, 1, 0]])

    def test_shear(self):
        sigma = area_shear()
        assert sigma.apply((0, 2)) == (4, 2)
        assert sigma.inverted().apply((4, 2)) == (0, 2)

    def test_shear_axis_restriction(self):
        # the shear polynomial may not involve the sheared coordinate
        x = Polynomial.variable(2, 0)
        with pytest.raises(ValueError):
            PolyDiffeo.shear(2, 0, x)

    def test_constructor_verifies_inverse(self):
        x = Polynomial.variable(1, 0)
        with pytest.raises(ValueError):
            PolyDiffeo([x + 1], [x + 1])  # not mutually inverse

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PolyDiffeo.identity(0),
            lambda: PolyDiffeo.translation([]),
            lambda: PolyDiffeo.linear([]),
        ],
        ids=["identity", "translation", "linear"],
    )
    def test_empty_dimension_is_refused(self, build):
        with pytest.raises(ValueError, match=r"R\^0: the dimension must be at least 1"):
            build()

    def test_immutable(self):
        g = area_shear()
        with pytest.raises(AttributeError):
            g.label = "tau"
        with pytest.raises(AttributeError):
            g._degree = 1

    def test_equality_ignores_label(self):
        a = PolyDiffeo.translation([1, 0], "A")
        b = PolyDiffeo.translation([1, 0], "B")
        assert a == b
        assert hash(a) == hash(b)
        assert a != PolyDiffeo.translation([0, 1])


def trusted_builds(rng, dim):
    """One map from each builder that skips the inverse check, on R^dim,
    each with its inverse.  A composite keeps none, so its inverse is the
    product of its factors' inverses in reverse order, built here."""
    translation = PolyDiffeo.translation(random_vector(rng, dim))
    linear = None
    while linear is None:
        try:
            linear = PolyDiffeo.linear([random_vector(rng, dim) for _ in range(dim)])
        except ValueError:  # singular: draw again
            pass
    axis = rng.randrange(dim)
    terms = random_polynomial(rng, dim).terms
    poly = Polynomial(dim, {e[:axis] + (0,) + e[axis + 1 :]: c for e, c in terms.items()})
    shear = PolyDiffeo.shear(dim, axis, poly)
    composite = shear.compose(linear).compose(translation)
    undo = translation.inverted().compose(linear.inverted()).compose(shear.inverted())
    explicit = [PolyDiffeo.identity(dim), translation, linear, shear]
    return [(h, h.inverse) for g in explicit for h in (g, g.inverted())] + [
        (composite, undo.forward),
        (composite.relabeled("c"), undo.forward),
    ]


class TestTrustedBuilders:
    """Every map built without the inverse check is a real inverse pair."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_checked_constructor_accepts_every_trusted_build(self, dim):
        rng = random.Random(2500 + dim)
        for _ in range(5):
            for g, inverse in trusted_builds(rng, dim):
                checked = PolyDiffeo(g.forward, inverse, g.label)
                assert checked == g
                assert checked.label == g.label

    @pytest.mark.parametrize("source", ["r4_symplectic", "random"])
    def test_checked_constructor_accepts_sampled_transvections(self, source):
        rng = random.Random(2900)
        if source == "random":
            omega = nonzero_constant_form(rng, 4, 2)
        else:
            omega = load_scenario(str(SCENARIO_DIR / f"{source}.json")).forms[0]
        radial = interior(PolyVectorField.euler(4), omega)
        drawn = [_transvection(rng, radial) for _ in range(5)]
        assert any(g != PolyDiffeo.identity(4) for g in drawn)
        for g in drawn:
            assert g.preserves(omega)
            checked = PolyDiffeo(g.forward, g.inverse, g.label)
            assert checked == g
            assert checked.inverse == g.inverse


class TestComposition:
    def test_order_of_composition(self):
        # (g.compose(h))(x) = g(h(x))
        g = PolyDiffeo.linear([[2, 0], [0, "1/2"]])
        h = PolyDiffeo.translation([1, 1])
        assert g.compose(h).apply((0, 0)) == (2, Fraction(1, 2))
        assert h.compose(g).apply((0, 0)) == (1, 1)

    def test_compose_then_invert(self):
        sigma = area_shear()
        t = PolyDiffeo.translation([0, 1])
        word = sigma.compose(t)
        undo = t.inverted().compose(sigma.inverted())
        assert word.compose(undo).is_identity()
        assert undo.compose(word).is_identity()

    def test_composite_refuses_its_inverse(self):
        word = area_shear().compose(PolyDiffeo.translation([0, 1], "T2"))
        unlabelled = PolyDiffeo.translation([1, 0]).relabeled("").compose(area_shear())
        for g, name in ((word, "sigma*T2"), (unlabelled, repr(unlabelled))):
            refusal = (
                f"the composite {name} keeps no inverse: "
                "compose its factors' inverses in reverse order"
            )
            for read in (lambda: g.inverse, g.inverted):
                with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
                    read()

    def test_degree_cap_uses_a_priori_bound(self):
        # two quadratic shears: bound is 4, so cap 3 refuses even though
        # composing a shear with itself cannot cancel anyway
        sigma = area_shear()
        with pytest.raises(DegreeCapExceededError):
            sigma.compose(sigma, degree_cap=3)
        assert sigma.compose(sigma, degree_cap=4).apply((0, 1)) == (2, 1)

    def test_degree_cap_error_payload(self):
        sigma = area_shear()
        with pytest.raises(DegreeCapExceededError) as exc_info:
            sigma.compose(sigma, degree_cap=2)
        err = exc_info.value
        assert err.cap == 2
        assert err.degree == 4

    @pytest.mark.parametrize("name", ["r1_line", "r2_area", "r3_volume", "r4_symplectic"])
    def test_degree_is_max_over_components(self, name):
        group = load_scenario(str(SCENARIO_DIR / f"{name}.json")).group
        for g in group.sample_words(20, 3, seed=17):
            assert g.degree() == max(c.degree() for c in g.forward)
        for g in group.generators:
            for h in (g, g.inverted()):
                assert h.degree() == max(c.degree() for c in h.forward + h.inverse)

    def test_cap_reads_forward_degree(self):
        # (x + y^2, y + z^2, z) has degree 2; its inverse
        # (x - (y - z^2)^2, y - z^2, z) has degree 4
        y_sq = Polynomial(3, {(0, 2, 0): Fraction(1)})
        z_sq = Polynomial(3, {(0, 0, 2): Fraction(1)})
        outer, inner = PolyDiffeo.shear(3, 1, z_sq), PolyDiffeo.shear(3, 0, y_sq)
        g = outer.compose(inner)
        undo = inner.inverted().compose(outer.inverted())
        assert g.degree() == 2
        assert g.compose(undo).is_identity()
        assert undo.degree() == 4
        # forward bound 2 * 2 is admitted at cap 4 ...
        last = PolyDiffeo.shear(3, 2, y_sq)
        h = g.compose(last, degree_cap=4)
        assert h.degree() <= 4
        # ... and its inverse, built as a product, is held to the same cap: 2 * 4 > 4
        with pytest.raises(DegreeCapExceededError) as exc_info:
            last.inverted().compose(undo, degree_cap=4)
        assert (exc_info.value.degree, exc_info.value.cap) == (8, 4)

    def test_relabeled_keeps_the_map(self):
        sigma = area_shear()
        word = sigma.compose(PolyDiffeo.translation([0, 1]))
        copy = word.relabeled("L")
        assert copy.label == "L" and copy == word and copy.degree() == word.degree()
        with pytest.raises(ValueError, match="the composite L keeps no inverse"):
            copy.inverse
        assert sigma.relabeled("s").inverse == sigma.inverse

    def test_default_cap_allows_moderate_words(self):
        sigma = area_shear()
        word = sigma
        for _ in range(4):
            word = word.compose(PolyDiffeo.translation([1, 1]))
        assert word.degree() == 2


class TestPullbackAction:
    def test_translation_preserves_area(self):
        area = PolyForm.volume(2)
        assert PolyDiffeo.translation([3, -7]).preserves(area)

    def test_right_action_law(self):
        # (omega . g) . h = omega . (g h): pullback reverses composition
        rng = random.Random("diffeo:action")
        for _ in range(10):
            w = random_form(rng, 2, rng.randint(0, 2), 2)
            g = area_shear()
            h = PolyDiffeo.translation([1, -1])
            assert h.pullback_form(g.pullback_form(w)) == g.compose(h).pullback_form(w)

    def test_pullback_matches_raw_pullback(self):
        sigma = area_shear()
        w = PolyForm.dx(2, 0) * Polynomial.variable(2, 1)
        assert sigma.pullback_form(w) == pullback(list(sigma.forward), w)

    def test_scaling_fails_invariance(self):
        double = PolyDiffeo.linear([[2, 0], [0, 1]])
        assert not double.preserves(PolyForm.volume(2))

    def test_shear_preserves_area(self):
        assert area_shear().preserves(PolyForm.volume(2))

    def test_pullback_commutes_with_d(self):
        sigma = area_shear()
        w = PolyForm.dx(2, 1) * Polynomial.variable(2, 0)
        assert sigma.pullback_form(ext_d(w)) == ext_d(sigma.pullback_form(w))


def identity_first_product(group, letters):
    """The word as the identity composed with each letter in turn."""
    out = PolyDiffeo.identity(group.dim)
    for letter in letters:
        g = group.generators[abs(letter) - 1]
        out = out.compose(g if letter > 0 else g.inverted(), degree_cap=group.degree_cap)
    return out


class TestGroupPresentation:
    def make_group(self):
        gens = [
            PolyDiffeo.translation([1, 0], "T1"),
            PolyDiffeo.translation([0, 1], "T2"),
            area_shear(),
        ]
        return GroupPresentation(gens, [PolyForm.volume(2)])

    def test_generator_lookup(self):
        group = self.make_group()
        assert group.generator("sigma").label == "sigma"
        assert group.labels() == ("T1", "T2", "sigma")
        with pytest.raises(KeyError):
            group.generator("nope")

    def test_invariance_enforced(self):
        double = PolyDiffeo.linear([[2, 0], [0, 1]], "double")
        with pytest.raises(InvarianceError):
            GroupPresentation([double], [PolyForm.volume(2)])

    def test_word_letters(self):
        group = self.make_group()
        # letters are signed 1-based generator indices
        w = group.word([1, 2])
        assert w.apply((0, 0)) == (1, 1)
        assert group.word([-1]).apply((0, 0)) == (-1, 0)
        # a one-letter word keeps its generator's inverse
        assert group.word([3]).inverse == area_shear().inverse
        assert group.word([-3]).inverse == area_shear().forward
        assert group.word([]).is_identity()
        with pytest.raises(ValueError):
            group.word([0])
        with pytest.raises(ValueError):
            group.word([4])

    @pytest.mark.parametrize("name", ["r1_line", "r2_area", "r3_volume", "r4_symplectic"])
    def test_word_equals_identity_first_product(self, name):
        group = load_scenario(str(SCENARIO_DIR / f"{name}.json")).group
        rng = random.Random(f"diffeo:word:{name}")
        k = len(group.generators)
        for _ in range(12):
            letters = [rng.choice((1, -1)) * rng.randint(1, k) for _ in range(rng.randint(1, 3))]
            word = group.word(letters)
            ref = identity_first_product(group, letters)
            assert word.forward == ref.forward
            assert word.label == ref.label
            undo = group.word([-letter for letter in reversed(letters)])
            assert word.compose(undo).is_identity()
            assert undo.compose(word).is_identity()

    def test_first_letter_over_the_cap(self):
        y4 = Polynomial(2, {(0, 4): Fraction(1)})
        for label, letters, named in (("q", [-1], "id*q^-1"), ("", [1, -1], "composite")):
            quartic = PolyDiffeo.shear(2, 0, y4).relabeled(label)
            group = GroupPresentation([quartic], degree_cap=2)
            with pytest.raises(DegreeCapExceededError) as got:
                group.word(letters)
            with pytest.raises(DegreeCapExceededError) as want:
                identity_first_product(group, letters)
            assert (got.value.label, got.value.degree, got.value.cap) == (
                want.value.label,
                want.value.degree,
                want.value.cap,
            )
            assert got.value.label == named

    def test_sample_words_deterministic(self):
        group = self.make_group()
        a = group.sample_words(10, 3, 42)
        b = group.sample_words(10, 3, 42)
        assert [g.forward for g in a] == [g.forward for g in b]
        assert len(a) == 10

    def test_sample_words_respects_cap(self):
        group = GroupPresentation(
            [area_shear()], [PolyForm.volume(2)], degree_cap=DEFAULT_DEGREE_CAP
        )
        for g in group.sample_words(20, 3, 7):
            assert g.degree() <= DEFAULT_DEGREE_CAP

    def test_sample_words_reports_largest_refused_bound(self):
        # every word starts identity * quartic, so every refusal has bound 4
        y4 = Polynomial(2, {(0, 4): Fraction(1)})
        quartic = PolyDiffeo.shear(2, 0, y4, "q")
        group = GroupPresentation([quartic], degree_cap=2)
        with pytest.raises(DegreeCapExceededError) as exc_info:
            group.sample_words(3, 2, 0)
        assert exc_info.value.degree == 4
        assert exc_info.value.cap == 2

    def test_degree_cap_field(self):
        group = GroupPresentation([area_shear()], degree_cap=16)
        assert group.degree_cap == 16
