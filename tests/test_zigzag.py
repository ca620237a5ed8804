"""The descent staircase, the resulting cocycle, and its verified identities.

The headline value c(sigma, T_(0,1)) = -1/6 is cross-checked here against
``descent_oracle``, a standalone sympy engine that shares no code with the
package.
"""

import random
import warnings
from fractions import Fraction

import pytest
import sympy as sp

import descent_oracle
from cocycle_forge import zigzag
from cocycle_forge.chains import Chain
from cocycle_forge.checks import (
    cocycle_identity_suite,
    point_independence_suite,
    triviality_suite,
)
from cocycle_forge.cochain import Cochain, delta_prime
from cocycle_forge.diffeo import GroupPresentation, PolyDiffeo
from cocycle_forge.errors import (
    DimensionMismatchError,
    InvarianceError,
    NotACycleError,
    NotClosedError,
)
from cocycle_forge.forms import PolyForm, ext_d, poincare_h
from cocycle_forge.polynomial import Polynomial
from cocycle_forge.zigzag import (
    ZigzagState,
    b_cochain,
    build_phi_sequence,
    closed_form_translation,
    cocycle,
    cocycle_eval,
)


@pytest.fixture(scope="module")
def area_state():
    gens = [
        PolyDiffeo.translation([1, 0], "T1"),
        PolyDiffeo.translation([0, 1], "T2"),
        PolyDiffeo.linear([[0, -1], [1, 0]], "rot90"),
        PolyDiffeo.shear(2, 0, Polynomial(2, {(0, 2): Fraction(1)}), "sigma"),
    ]
    group = GroupPresentation(gens, [PolyForm.volume(2)])
    return build_phi_sequence(PolyForm.volume(2), 1, group)


@pytest.fixture(scope="module")
def volume_state():
    gens = [
        PolyDiffeo.translation([1, 0, 0], "T1"),
        PolyDiffeo.translation([0, 1, 0], "T2"),
        PolyDiffeo.translation([0, 0, 1], "T3"),
        PolyDiffeo.shear(3, 0, Polynomial(3, {(0, 1, 1): Fraction(1)}), "s23"),
    ]
    group = GroupPresentation(gens, [PolyForm.volume(3)])
    return build_phi_sequence(PolyForm.volume(3), 2, group)


ORIGIN2 = Chain.point([0, 0])
ORIGIN3 = Chain.point([0, 0, 0])


class TestBuild:
    def test_base_level(self, area_state):
        assert area_state.phi(0)() == -poincare_h(PolyForm.volume(2))
        assert (PolyForm.volume(2) + ext_d(area_state.phi(0)())).is_zero()

    def test_levels_have_expected_degrees(self, volume_state):
        for i in range(3):
            c = volume_state.phi(i)
            assert c.p == i
            assert c.q == 3 - i - 1

    def test_descent_residuals_vanish(self, area_state):
        words = area_state.group.sample_words(12, 3, 17)
        for g in words:
            assert area_state.descent_residual(1, [g]).is_zero()

    def test_descent_residuals_vanish_deeper(self, volume_state):
        words = volume_state.group.sample_words(12, 2, 23)
        for k in range(6):
            gs = words[2 * k : 2 * k + 2]
            assert volume_state.descent_residual(2, gs).is_zero()

    def test_rejects_non_closed_form(self):
        x = Polynomial.variable(2, 0)
        w = PolyForm.dx(2, 1) * x  # d(x dy) = dx^dy != 0
        group = GroupPresentation([PolyDiffeo.identity(2)])
        with pytest.raises(NotClosedError):
            build_phi_sequence(w, 0, group)

    def test_rejects_zero_form(self):
        group = GroupPresentation([PolyDiffeo.identity(2)])
        with pytest.raises(ValueError):
            build_phi_sequence(PolyForm.zero(2, 2), 1, group)

    def test_rejects_non_invariant_generator(self):
        double = PolyDiffeo.linear([[2, 0], [0, 1]], "double")
        group = GroupPresentation([double])
        with pytest.raises(InvarianceError):
            build_phi_sequence(PolyForm.volume(2), 1, group)

    def test_depth_range(self):
        group = GroupPresentation([PolyDiffeo.translation([1, 0], "T1")])
        with pytest.raises(ValueError):
            build_phi_sequence(PolyForm.volume(2), 2, group)
        with pytest.raises(ValueError):
            build_phi_sequence(PolyForm.volume(2), -1, group)

    def test_shallow_depth_warns(self):
        group = GroupPresentation([PolyDiffeo.translation([1, 0], "T1")])
        with pytest.warns(UserWarning):
            build_phi_sequence(PolyForm.volume(2), 0, group)


class TestCocycleValues:
    def test_translation_pair(self, area_state):
        gs = [PolyDiffeo.translation([1, 0]), PolyDiffeo.translation([0, 1])]
        assert cocycle_eval(area_state, ORIGIN2, gs) == Fraction(1, 2)

    def test_shear_value_matches_independent_engine(self, area_state):
        sigma = area_state.group.generator("sigma")
        step = PolyDiffeo.translation([0, 1])
        ours = cocycle_eval(area_state, ORIGIN2, [sigma, step])
        assert ours == Fraction(-1, 6)
        oracle = descent_oracle.shear_translation_value()
        assert Fraction(int(sp.numer(oracle)), int(sp.denom(oracle))) == ours

    def test_random_pairs_match_independent_engine(self, area_state):
        rng = random.Random("zigzag:oracle")
        for _ in range(4):
            a = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)]
            b = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)]
            ours = cocycle_eval(
                area_state,
                ORIGIN2,
                [PolyDiffeo.translation(a), PolyDiffeo.translation(b)],
            )
            oracle = descent_oracle.translation_pair_value(
                tuple(str(v) for v in a), tuple(str(v) for v in b)
            )
            assert Fraction(int(sp.numer(oracle)), int(sp.denom(oracle))) == ours

    def test_mixed_word_matches_independent_engine(self, area_state):
        # a non-translation pair: shear against the quarter rotation
        sigma = area_state.group.generator("sigma")
        rot = area_state.group.generator("rot90")
        ours = cocycle_eval(area_state, ORIGIN2, [sigma, rot])
        x, y = sp.symbols("x y")
        oracle = descent_oracle.descent_value((x + y**2, y), (-y, x))
        assert Fraction(int(sp.numer(oracle)), int(sp.denom(oracle))) == ours

    def test_triple_on_volume(self, volume_state):
        gs = [
            PolyDiffeo.translation([1, 0, 0]),
            PolyDiffeo.translation([0, 1, 0]),
            PolyDiffeo.translation([0, 0, 1]),
        ]
        assert cocycle_eval(volume_state, ORIGIN3, gs) == Fraction(1, 6)

    def test_closed_form_agreement(self, area_state):
        rng = random.Random("zigzag:closed")
        for _ in range(10):
            vs = [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2)]
                for _ in range(2)
            ]
            gs = [PolyDiffeo.translation(v) for v in vs]
            assert cocycle_eval(area_state, ORIGIN2, gs) == closed_form_translation(
                PolyForm.volume(2), vs
            )

    def test_closed_form_antisymmetry(self):
        w = PolyForm.volume(2)
        a, b = [1, 2], [3, 5]
        assert closed_form_translation(w, [a, b]) == -closed_form_translation(
            w, [b, a]
        )
        assert closed_form_translation(w, [a, a]) == 0

    def test_closed_form_validates(self):
        with pytest.raises(ValueError):
            closed_form_translation(PolyForm.volume(2), [[1, 0]])
        x = Polynomial.variable(2, 0)
        with pytest.raises(ValueError):
            closed_form_translation(PolyForm.volume(2) * x, [[1, 0], [0, 1]])


class TestCycleChecks:
    def test_alpha_dimension_enforced(self, area_state):
        seg = Chain.segment([0, 0], [1, 0])
        with pytest.raises(DimensionMismatchError):
            cocycle_eval(area_state, seg, [PolyDiffeo.identity(2)] * 2)

    def test_alpha_ambient_enforced(self, area_state):
        with pytest.raises(DimensionMismatchError):
            cocycle_eval(area_state, ORIGIN3, [PolyDiffeo.identity(2)] * 2)

    def test_alpha_must_be_cycle(self, volume_state):
        open_chain = Chain.segment([0, 0, 0], [1, 0, 0]) - Chain.segment(
            [0, 0, 0], [0, 1, 0]
        ) * 2
        assert open_chain.dim == 1  # matches m-p-1 for a shallow depth
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            shallow = build_phi_sequence(
                PolyForm.volume(3), 1, volume_state.group
            )
            with pytest.raises(NotACycleError):
                cocycle_eval(shallow, open_chain, [PolyDiffeo.identity(3)] * 2)

    def test_tuple_length_enforced(self, area_state):
        with pytest.raises(ValueError):
            cocycle_eval(area_state, ORIGIN2, [PolyDiffeo.identity(2)])

    def test_positive_dimensional_cycle_warning_names_the_caller(self, volume_state):
        loop = Chain.triangle_loop([0, 0, 0], [1, 0, 0], [0, 1, 0])
        with pytest.warns(UserWarning, match="depth 1"):
            shallow = build_phi_sequence(PolyForm.volume(3), 1, volume_state.group)
        pair = [PolyDiffeo.identity(3)] * 2
        for entry in (
            lambda: cocycle_eval(shallow, loop, pair),
            lambda: cocycle(shallow, loop),
            lambda: b_cochain(shallow, loop),
        ):
            with pytest.warns(UserWarning, match="vanishes identically") as caught:
                entry()
            assert [w.filename for w in caught] == [__file__]


def cocycle_condition(state, samples, seed, max_word_length):
    """The Dc = 0 entry of the identity suite, over the origin."""
    checks = cocycle_identity_suite(state, ORIGIN2, samples, seed, max_word_length)
    return next(c for c in checks if c["name"] == "cocycle_condition")


class TestCocycleCondition:
    def test_verifier_reports_clean(self, area_state):
        report = cocycle_condition(area_state, 25, 99, 3)
        assert report["samples"] == 25
        assert report["failures"] == 0
        assert report["max_abs_residual"] == 0

    def test_explicit_coboundary_sum(self, area_state):
        c = cocycle(area_state, ORIGIN2)
        sigma = area_state.group.generator("sigma")
        t1 = area_state.group.generator("T1")
        t2 = area_state.group.generator("T2")
        dc = delta_prime(c)
        assert dc(sigma, t1, t2) == 0
        assert dc(t2, sigma, sigma) == 0

    def test_corrupted_level_is_detected(self, area_state):
        # shift phi_1 by a fixed non-constant function; the descent
        # equations still typecheck but the "cocycle" no longer closes,
        # and the verifier must notice
        bump = PolyForm.from_polynomial(Polynomial(2, {(0, 2): Fraction(1)}))
        good_phi1 = area_state.phi(1)

        bad_phi1 = Cochain(1, 0, 2, lambda g: good_phi1(g) + bump)
        bad_state = ZigzagState(
            area_state.omega, 1, area_state.group, [area_state.phi(0), bad_phi1]
        )
        dc = delta_prime(cocycle(bad_state, ORIGIN2))
        t1 = area_state.group.generator("T1")
        t2 = area_state.group.generator("T2")
        assert dc(t1, t2, t2) != 0
        report = cocycle_condition(bad_state, 20, 1, 2)
        assert report["failures"] > 0

    def test_point_cycle_choice_is_free(self, area_state):
        words = area_state.group.sample_words(20, 3, 31)
        other = Chain.point([3, -2])
        for k in range(10):
            gs = words[2 * k : 2 * k + 2]
            assert cocycle_eval(area_state, ORIGIN2, gs) == cocycle_eval(
                area_state, other, gs
            )


class TestTriviality:
    def test_b_trivializes_on_stabilizer(self, area_state):
        # unimodular linear maps fix the origin, so c = Db on their tuples
        shear_up = PolyDiffeo.linear([[1, 0], [1, 1]], "low")
        shear_right = PolyDiffeo.linear([[1, "2/3"], [0, 1]], "up")
        c = cocycle(area_state, ORIGIN2)
        db = delta_prime(b_cochain(area_state, ORIGIN2))
        for pair in [
            (shear_up, shear_right),
            (shear_right, shear_up),
            (shear_up.compose(shear_right), shear_right),
        ]:
            assert c(*pair) == db(*pair)

    def test_b_value_shapes(self, area_state):
        sigma = area_state.group.generator("sigma")
        value = b_cochain(area_state, ORIGIN2)(sigma)
        assert isinstance(value, Fraction)
        with pytest.raises(ValueError):
            b_cochain(area_state, ORIGIN2)(sigma, sigma)

    @staticmethod
    def comparison_identity(state, alpha, samples, seed, max_word_length):
        checks = triviality_suite(state, alpha, samples, seed, max_word_length)
        return next(c for c in checks if c["name"] == "coboundary_comparison_identity")

    def test_comparison_identity_residual_zero(self, area_state):
        report = self.comparison_identity(area_state, ORIGIN2, 10, 41, 3)
        assert report["samples"] == 10
        assert report["failures"] == 0
        assert report["max_abs_residual"] == 0

    def test_comparison_identity_residual_zero_deeper(self, volume_state):
        report = self.comparison_identity(volume_state, ORIGIN3, 4, 43, 2)
        assert report["samples"] == 4
        assert report["failures"] == 0
        assert report["max_abs_residual"] == 0


def require_cycle_calls(monkeypatch, run) -> int:
    """How many cycles ``run()`` checks through the zigzag module."""
    calls = []
    check = zigzag.require_cycle
    monkeypatch.setattr(zigzag, "require_cycle", lambda *args: calls.append(args) or check(*args))
    run()
    monkeypatch.undo()
    return len(calls)


class TestCochainsBuiltOnce:
    """A suite builds each real-valued cochain once, whatever its sample count."""

    def test_triviality(self, area_state, monkeypatch):
        counts = [
            require_cycle_calls(
                monkeypatch, lambda: triviality_suite(area_state, ORIGIN2, n, 5, 2)
            )
            for n in (1, 8)
        ]
        assert counts[0] == counts[1]

    def test_cocycle_identity_and_point_independence(self, area_state, monkeypatch):
        def run(n):
            cocycle_identity_suite(area_state, ORIGIN2, n, 5, 2)
            point_independence_suite(area_state, n, 5, 2)

        counts = [require_cycle_calls(monkeypatch, lambda: run(n)) for n in (1, 8)]
        assert counts[0] == counts[1]
