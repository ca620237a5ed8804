"""The descent staircase, the resulting cocycle, and its verified identities.

The headline value c(sigma, T_(0,1)) = -1/6 is cross-checked here against
``descent_oracle``, a standalone sympy engine that shares no code with the
package.
"""

import gc
import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp

import descent_oracle
from cocycle_forge import zigzag
from cocycle_forge.chains import Chain
from cocycle_forge.checks import (
    cocycle_identity_suite,
    point_independence_suite,
    sample_stabilizer_linears,
    triviality_suite,
)
from cocycle_forge.cochain import Cochain, delta_prime
from cocycle_forge.diffeo import GroupPresentation, PolyDiffeo
from cocycle_forge.errors import (
    DimensionMismatchError,
    InvarianceError,
    NotClosedError,
)
from cocycle_forge.forms import PolyForm, ext_d, poincare_h
from cocycle_forge.polynomial import Polynomial
from cocycle_forge.scenario import load_scenario
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
    return build_phi_sequence(PolyForm.volume(2), group)


@pytest.fixture(scope="module")
def volume_state():
    gens = [
        PolyDiffeo.translation([1, 0, 0], "T1"),
        PolyDiffeo.translation([0, 1, 0], "T2"),
        PolyDiffeo.translation([0, 0, 1], "T3"),
        PolyDiffeo.shear(3, 0, Polynomial(3, {(0, 1, 1): Fraction(1)}), "s23"),
    ]
    group = GroupPresentation(gens, [PolyForm.volume(3)])
    return build_phi_sequence(PolyForm.volume(3), group)


ORIGIN2 = Chain.point([0, 0])
ORIGIN3 = Chain.point([0, 0, 0])


class TestBuild:
    def test_base_level(self, area_state):
        assert area_state.phis[0]() == -poincare_h(PolyForm.volume(2))
        assert (PolyForm.volume(2) + ext_d(area_state.phis[0]())).is_zero()

    def test_levels_have_expected_degrees(self, volume_state):
        for i in range(3):
            c = volume_state.phis[i]
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
            build_phi_sequence(w, group)

    def test_rejects_zero_form(self):
        group = GroupPresentation([PolyDiffeo.identity(2)])
        with pytest.raises(ValueError):
            build_phi_sequence(PolyForm.zero(2, 2), group)

    def test_rejects_non_invariant_generator(self):
        double = PolyDiffeo.linear([[2, 0], [0, 1]], "double")
        group = GroupPresentation([double])
        with pytest.raises(InvarianceError):
            build_phi_sequence(PolyForm.volume(2), group)

    def test_level_closedness_guard(self):
        # a group falsely declared to preserve dx^dy passes the build; the
        # per-level check catches it at the first evaluation instead
        double = PolyDiffeo.linear([[2, 0], [0, 1]], "double")
        area = PolyForm.volume(2)
        state = build_phi_sequence(area, GroupPresentation([double], [area], _trusted=True))
        with pytest.raises(
            NotClosedError, match=r"level-1 descent input is not closed on \(double\)"
        ):
            state.phis[1](double)

    def test_level_invariance_guard(self):
        # a map that scales the volume, falsely declared to preserve it, in
        # slot 2: level 2 checks g_2^* w == w before pulling back along g_2
        t1 = PolyDiffeo.translation([1, 0, 0], "T1")
        bad = PolyDiffeo.linear([[2, 0, 0], [0, 1, 0], [0, 0, 1]], "bad")
        volume = PolyForm.volume(3)
        state = build_phi_sequence(volume, GroupPresentation([t1, bad], [volume], _trusted=True))
        with pytest.raises(
            NotClosedError, match=r"level-2 descent input is not closed on \(T1, bad\)"
        ):
            state.phis[2](t1, bad)

    def test_rejects_form_on_another_space(self):
        group = GroupPresentation([PolyDiffeo.translation([1, 0], "T1")])
        with pytest.raises(DimensionMismatchError, match="different spaces"):
            build_phi_sequence(PolyForm.volume(3), group)

    def test_state_needs_every_level(self, area_state):
        s = area_state
        with pytest.raises(ValueError, match="needs 2 cochains"):
            ZigzagState(s.omega, s.group, s.phis[:1], s.products)
        with pytest.raises(ValueError, match="needs 2 cochains"):
            ZigzagState(s.omega, s.group, s.phis + s.phis[:1], s.products)

    def test_depth_range(self, area_state, volume_state):
        # the descent runs to p = m - 1, so a degree-0 form has no level to reach
        group = GroupPresentation([PolyDiffeo.translation([1, 0], "T1")])
        with pytest.raises(ValueError, match="degree at least 1"):
            build_phi_sequence(PolyForm.constant_function(2, 1), group)
        for state in (area_state, volume_state):
            assert state.p == state.m - 1
            assert len(state.phis) == state.m


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

    def test_maps_moving_the_origin_match_independent_engine(self, area_state):
        # rot90 fixes 0, so (sigma, rot90) reads phi_1 at the centre itself;
        # here both maps are nonlinear and the last one moves the origin
        group = area_state.group
        sigma, rot = group.generator("sigma"), group.generator("rot90")
        gs = [rot.compose(sigma), sigma.compose(PolyDiffeo.translation([1, -1]))]
        ours = cocycle_eval(area_state, ORIGIN2, gs)
        assert ours == Fraction(1, 6)
        oracle = descent_oracle.rotated_shear_pair_value()
        assert Fraction(int(sp.numer(oracle)), int(sp.denom(oracle))) == ours

    def test_triple_on_volume(self, volume_state):
        gs = [
            PolyDiffeo.translation([1, 0, 0]),
            PolyDiffeo.translation([0, 1, 0]),
            PolyDiffeo.translation([0, 0, 1]),
        ]
        assert cocycle_eval(volume_state, ORIGIN3, gs) == Fraction(1, 6)

    def test_nonlinear_triple_matches_independent_engine(self, volume_state):
        # s23 in the first and last slots; the oracle builds both levels
        # from the full d', without the collapse h.h = 0
        group = volume_state.group
        gs = [group.generator("s23"), group.generator("T2"), group.word([4, 3])]
        ours = cocycle_eval(volume_state, ORIGIN3, gs)
        assert ours == Fraction(-1, 24)
        oracle = descent_oracle.r3_shear_triple_value()
        assert Fraction(int(sp.numer(oracle)), int(sp.denom(oracle))) == ours

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


SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def volume4_state():
    """The volume form on R^4 under T1..T4 and the shear x1 += x2 x3 (m = 4)."""
    gens = [PolyDiffeo.translation([int(i == j) for j in range(4)], f"T{i + 1}") for i in range(4)]
    gens.append(PolyDiffeo.shear(4, 0, Polynomial(4, {(0, 1, 1, 0): Fraction(1)}), "s23"))
    volume = PolyForm.volume(4)
    return build_phi_sequence(volume, GroupPresentation(gens, [volume]))


def centre_cycles(n):
    """Point cycles with weight sums 1, 1, 1 and 0."""
    origin, ones = Chain.point([0] * n), Chain.point([1] * n)
    return [origin, Chain.point([3, -2, 1, -1][:n]), origin * 2 - ones, origin - ones]


def sampled_tuples(state, count, max_word_length, seed):
    words = state.group.sample_words(count * state.m, max_word_length, seed)
    return [words[k * state.m : (k + 1) * state.m] for k in range(count)]


class TestCentreValue:
    """``cocycle_eval`` reads the centre value (-1)^m int phi_p(g_1..g_p) over
    (sum w) [g_m(0)]; ``cocycle`` keeps the full d'.  They must agree."""

    @pytest.mark.parametrize(
        "name", ["r1_line", "r2_area", "r3_volume", "r4_symplectic", "volume4"]
    )
    def test_centre_value_is_the_full_top_dprime(self, name):
        if name == "volume4":
            state, cycles = volume4_state(), centre_cycles(4)
            tuples = sampled_tuples(state, 20, 2, seed=29)
        else:
            config = load_scenario(str(SCENARIO_DIR / f"{name}.json"))
            state = config.build_state()
            cycles = [config.cycle] + centre_cycles(state.omega.dim)[1:]
            tuples = sampled_tuples(state, 20, 3, seed=29)
        nonzero = 0
        for alpha in cycles:
            full = cocycle(state, alpha)
            for gs in tuples:
                value = cocycle_eval(state, alpha, gs)
                assert value == full(*gs)
                nonzero += value != 0
        assert nonzero

    @pytest.mark.parametrize("name", ["r1_line", "r3_volume"])
    def test_constant_shift_of_the_top_level_breaks_the_agreement(self, name):
        # phi_p + 1 no longer vanishes at the centre.  For odd m the full d'
        # of the constant 1 is 0 while the centre value moves by -(sum w), so
        # every tuple disagrees; for even m both sides move by sum w
        config = load_scenario(str(SCENARIO_DIR / f"{name}.json"))
        state = config.build_state()
        p, n = state.p, state.omega.dim
        good, one = state.phis[p], PolyForm.constant_function(n, 1)
        shifted = Cochain(p, 0, n, lambda *gs: good(*gs) + one)
        bad = ZigzagState(state.omega, state.group, state.phis[:p] + (shifted,), {})
        for gs in sampled_tuples(state, 10, 3, seed=31):
            assert cocycle_eval(state, config.cycle, gs) == cocycle(state, config.cycle)(*gs)
            assert cocycle_eval(bad, config.cycle, gs) != cocycle(bad, config.cycle)(*gs)

    def test_forms_no_products(self, monkeypatch):
        config = load_scenario(str(SCENARIO_DIR / "r3_volume.json"))
        state = config.build_state()
        gs = state.group.sample_words(3, 3, seed=5)
        calls = []
        compose = PolyDiffeo.compose

        def counting(*args, **kwargs):
            calls.append(args)
            return compose(*args, **kwargs)

        monkeypatch.setattr(PolyDiffeo, "compose", counting)
        # the full top d' merges g1 g2 and g2 g3; the centre value merges none
        assert cocycle_eval(state, config.cycle, gs) == cocycle(state, config.cycle)(*gs)
        assert calls and state.products
        calls.clear()
        fresh = config.build_state()
        cocycle_eval(fresh, config.cycle, gs)
        assert calls == []
        assert fresh.products == {}

    @pytest.mark.parametrize(
        "omega, good, expected",
        [
            (PolyForm.volume(2), ["T1"], r"level-1 descent input is not closed on \(bad\)"),
            (
                PolyForm.volume(3),
                ["T1", "T2"],
                r"level-2 descent input is not closed on \(T2, bad\)",
            ),
        ],
        ids=["p1", "p2"],
    )
    def test_bad_last_map_is_refused_as_the_first_face_refuses_it(self, omega, good, expected):
        # a group falsely declared to preserve w, with the bad map in the
        # last slot: no face reads g_m inside a level any more, so this check
        # is the only one on it; the full d' raises the same text
        n = omega.dim
        unit = [[int(i == j) for j in range(n)] for i in range(n)]
        gens = [PolyDiffeo.translation(row, f"T{i + 1}") for i, row in enumerate(unit)]
        bad = PolyDiffeo.linear([[2 * unit[0][0]] + unit[0][1:]] + unit[1:], "bad")  # x1 -> 2 x1
        state = build_phi_sequence(omega, GroupPresentation(gens + [bad], [omega], _trusted=True))
        gs = [state.group.generator(label) for label in good] + [bad]
        origin = Chain.point([0] * n)
        with pytest.raises(NotClosedError, match=f"^{expected}$"):
            cocycle_eval(state, origin, gs)
        with pytest.raises(NotClosedError, match=f"^{expected}$"):
            cocycle(state, origin)(*gs)

    def test_bad_map_is_refused_for_m_1(self):
        # for a 1-form the top d' has no level above phi_0 to check the map;
        # unchecked, the full d' of x -> 2x would read 0 at [0] and 1 at [1]
        line = PolyForm.dx(1, 0)
        bad = PolyDiffeo.linear([[2]], "bad")
        state = build_phi_sequence(line, GroupPresentation([bad], [line], _trusted=True))
        refusal = r"^level-1 descent input is not closed on \(bad\)$"
        with pytest.raises(NotClosedError, match=refusal):
            cocycle_eval(state, Chain.point([0]), [bad])
        for x in (0, 1):
            with pytest.raises(NotClosedError, match=refusal):
                cocycle(state, Chain.point([x]))(bad)


class TestCycleChecks:
    def test_alpha_dimension_enforced(self, area_state):
        seg = Chain.segment([0, 0], [1, 0])
        with pytest.raises(DimensionMismatchError):
            cocycle_eval(area_state, seg, [PolyDiffeo.identity(2)] * 2)

    def test_alpha_ambient_enforced(self, area_state):
        with pytest.raises(DimensionMismatchError):
            cocycle_eval(area_state, ORIGIN3, [PolyDiffeo.identity(2)] * 2)

    def test_tuple_length_enforced(self, area_state):
        with pytest.raises(ValueError):
            cocycle_eval(area_state, ORIGIN2, [PolyDiffeo.identity(2)])


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

    @staticmethod
    def corrupted(state):
        # shift phi_1 by a fixed non-constant function; the descent
        # equations still typecheck but the "cocycle" no longer closes
        bump = PolyForm.from_polynomial(Polynomial(2, {(0, 2): Fraction(1)}))
        good_phi1 = state.phis[1]
        bad_phi1 = Cochain(1, 0, 2, lambda g: good_phi1(g) + bump)
        return ZigzagState(state.omega, state.group, [state.phis[0], bad_phi1], {})

    def test_corrupted_level_is_detected(self, area_state):
        # the verifier must notice the corruption
        bad_state = self.corrupted(area_state)
        dc = delta_prime(cocycle(bad_state, ORIGIN2))
        t1 = area_state.group.generator("T1")
        t2 = area_state.group.generator("T2")
        assert dc(t1, t2, t2) != 0
        report = cocycle_condition(bad_state, 20, 1, 2)
        assert report["failures"] > 0

    def test_point_independence_detects_corrupted_level(self, area_state):
        def failures(state):
            (report,) = point_independence_suite(state, 10, 1, 2)
            return report["failures"]

        assert failures(area_state) == 0
        assert failures(self.corrupted(area_state)) > 0

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

    SYMPLECTIC4 = PolyForm(4, 2, {(0, 1): 1, (2, 3): 1})

    @pytest.mark.parametrize(
        "omega",
        [PolyForm.volume(2), PolyForm.volume(3), SYMPLECTIC4, PolyForm.dx(3, 1)],
        ids=["area", "volume3", "symplectic4", "one_form"],
    )
    def test_stabilizer_linears_fix_origin_and_form(self, omega):
        origin = (0,) * omega.dim
        pool = sample_stabilizer_linears(omega, 12, random.Random(11))
        assert len(pool) == 12
        for g in pool:
            assert g.degree() == 1
            assert g.apply(origin) == origin
            assert g.preserves(omega)
            assert g.label == "L"

    def test_stabilizer_linears_are_seeded_and_nontrivial(self):
        def pool(seed):
            return sample_stabilizer_linears(self.SYMPLECTIC4, 6, random.Random(seed))

        assert pool(4) == pool(4)
        assert not all(g.is_identity() for g in pool(4))

    @pytest.mark.parametrize(
        "omega, matrices",
        [
            (PolyForm.volume(2), [[[1, -1], [0, 1]], [[1, 0], [1, 1]]]),
            (
                SYMPLECTIC4,
                [
                    [[3, -1, -2, -3], ["1/2", "1/2", -1, -1], ["5/2", "-3/2", -2, -4],
                     [-4, 2, 4, 7]],
                    [[-1, "3/2", -2, "1/2"], [-3, 3, -3, 1], [-1, "1/2", 0, "1/2"],
                     [-3, 2, -3, 2]],
                ],
            ),
        ],
        ids=["area", "symplectic4"],
    )
    def test_stabilizer_linears_draw_order(self, omega, matrices):
        # the first maps drawn for one seed; a change in the order of the
        # rng draws would move every linear-subgroup triviality report
        pool = sample_stabilizer_linears(omega, 2, random.Random(5))
        assert pool == [PolyDiffeo.linear(m) for m in matrices]

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


def check_alpha_calls(monkeypatch, run) -> int:
    """How many cycles ``run()`` checks through the zigzag module."""
    calls = []
    check = zigzag._check_alpha
    monkeypatch.setattr(zigzag, "_check_alpha", lambda *args: calls.append(args) or check(*args))
    run()
    monkeypatch.undo()
    return len(calls)


class TestCochainsBuiltOnce:
    """A suite builds each real-valued cochain once, whatever its sample count."""

    def test_triviality(self, area_state, monkeypatch):
        counts = [
            check_alpha_calls(
                monkeypatch, lambda: triviality_suite(area_state, ORIGIN2, n, 5, 2)
            )
            for n in (1, 8)
        ]
        assert counts[0] == counts[1]

    def test_cocycle_identity_and_point_independence(self, area_state, monkeypatch):
        def run(n):
            cocycle_identity_suite(area_state, ORIGIN2, n, 5, 2)
            point_independence_suite(area_state, n, 5, 2)

        counts = [check_alpha_calls(monkeypatch, lambda: run(n)) for n in (1, 8)]
        assert counts[0] == counts[1]


class TestProductsFormedOnce:
    """The cochains built over a state share one table of products: each
    (g, h) is composed once per state.  The descent levels form none."""

    def test_levels_form_no_products(self):
        scenario = Path(__file__).resolve().parent.parent / "scenarios" / "r3_volume.json"
        config = load_scenario(str(scenario))
        state = config.build_state()
        g1, g2, g3 = state.group.sample_words(3, 3, seed=5)
        cocycle(state, config.cycle)(g1, g2, g3)
        assert set(state.products) == {(g1, g2), (g2, g3)}

    def test_low_cap_refuses_no_triple_product(self):
        # g g has degree 3, so a full d' at level 2 would bound g g g by 6
        # and refuse it under the cap 4; the levels form no product
        s23 = PolyDiffeo.shear(3, 0, Polynomial(3, {(0, 1, 1): Fraction(1)}), "s23")
        cyc = PolyDiffeo.linear([[0, 0, 1], [1, 0, 0], [0, 1, 0]], "cyc")
        g = s23.compose(cyc)
        assert (g.degree(), g.compose(g).degree()) == (2, 3)
        volume = PolyForm.volume(3)
        state = build_phi_sequence(volume, GroupPresentation([s23, cyc], [volume], degree_cap=4))
        assert cocycle(state, ORIGIN3)(g, g, g) == 0
        assert list(state.products) == [(g, g)]

    def test_cocycle_then_its_coboundary(self, monkeypatch):
        scenario = Path(__file__).resolve().parent.parent / "scenarios" / "r3_volume.json"
        config = load_scenario(str(scenario))
        state = config.build_state()
        g1, g2, g3, g4 = state.group.sample_words(4, 3, seed=3)
        pairs = []
        compose = PolyDiffeo.compose

        def counting(self, other, **kwargs):
            pairs.append((self, other))
            return compose(self, other, **kwargs)

        monkeypatch.setattr(PolyDiffeo, "compose", counting)
        c = cocycle(state, config.cycle)
        c(g1, g2, g3)
        state.delta_prime(c)(g1, g2, g3, g4)
        assert pairs
        assert len(pairs) == len(set(pairs))
        # a differential with a table of its own forms g1 g2 again
        pairs.clear()
        delta_prime(c, state.group.degree_cap)(g1, g2, g3, g4)
        assert (g1, g2) in pairs


class TestLevelsCached:
    """Each descent level evaluates once per distinct tuple; nothing else
    keeps values, so the count of ``poincare_h`` calls after the build is
    the count of distinct level tuples read."""

    @staticmethod
    def fresh_r3(monkeypatch):
        scenario = Path(__file__).resolve().parent.parent / "scenarios" / "r3_volume.json"
        config = load_scenario(str(scenario))
        state = config.build_state()
        calls = []
        h = zigzag.poincare_h
        monkeypatch.setattr(zigzag, "poincare_h", lambda form: calls.append(form) or h(form))
        return config, state, calls

    def test_equal_maps_under_two_labels_evaluate_once(self, monkeypatch):
        _, state, calls = self.fresh_r3(monkeypatch)
        g = state.group.sample_words(1, 3, seed=2)[0]
        first = state.phis[1](g)
        assert state.phis[1](g.relabeled("other")) == first
        assert len(calls) == 1

    def test_second_cocycle_read_evaluates_no_level(self, monkeypatch):
        config, state, calls = self.fresh_r3(monkeypatch)
        gs = state.group.sample_words(3, 3, seed=5)
        c = cocycle(state, config.cycle)
        value = c(*gs)
        # phi_2 on the four faces of the triple, and phi_1 on the first
        # entries of those faces: g1, g2 and g1 g2
        assert len(calls) == 7
        assert cocycle(state, config.cycle)(*gs) == value
        assert len(calls) == 7


class TestLevelsMatchThePaper:
    """Each level i >= 2 evaluates the collapsed -h(g_i^* phi_{i-1}); the
    paper's formula h((-1)^{i+1} d'phi_{i-1}), with every face of the d'
    and every merged product, must give the same form."""

    @staticmethod
    def nonlinear_tuples(state, i, count, seed):
        words = [g for g in state.group.sample_words(6 * i * count, 2, seed) if g.degree() > 1]
        assert len(words) >= i * count
        return [words[i * k : i * k + i] for k in range(count)]

    @staticmethod
    def assert_level_matches(state, i, tuples):
        reference = delta_prime(state.phis[i - 1], state.group.degree_cap)
        nonzero = 0
        for gs in tuples:
            rhs = reference(*gs)
            if i % 2 == 0:
                rhs = -rhs
            value = state.phis[i](*gs)
            assert value == poincare_h(rhs)
            nonzero += not value.is_zero()
        assert nonzero

    def test_level_2_on_r3(self):
        scenario = Path(__file__).resolve().parent.parent / "scenarios" / "r3_volume.json"
        state = load_scenario(str(scenario)).build_state()
        self.assert_level_matches(state, 2, self.nonlinear_tuples(state, 2, 6, seed=13))

    def test_level_3_on_r4(self):
        gens = [PolyDiffeo.translation([int(i == j) for j in range(4)], f"T{i + 1}") for i in range(4)]
        gens.append(PolyDiffeo.shear(4, 0, Polynomial(4, {(0, 1, 1, 0): Fraction(1)}), "s23"))
        volume = PolyForm.volume(4)
        state = build_phi_sequence(volume, GroupPresentation(gens, [volume]))
        for i in (2, 3):
            self.assert_level_matches(state, i, self.nonlinear_tuples(state, i, 3, seed=17))


def test_descent_frees_without_cyclic_collector():
    # the state, its levels and their caches form no reference cycle, so
    # reference counting alone frees them once the last name is dropped
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "r3_volume.json"
    gc.collect()
    gc.disable()
    try:
        config = load_scenario(str(scenario))
        state = config.build_state()
        c = cocycle(state, config.cycle)
        words = state.group.sample_words(6, 3, seed=11)
        values = [c(*words[k : k + 3]) for k in (0, 3)]
        checks = cocycle_identity_suite(state, config.cycle, 3, 5, 2)
        assert all(check["failures"] == 0 for check in checks)
        del config, state, c, words, values, checks
        assert gc.collect() == 0
    finally:
        gc.enable()
