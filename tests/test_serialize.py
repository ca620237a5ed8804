"""Scenario readers checked against constructed objects, report writers
checked by round-trip, and strictness about floats."""

import json
import random
from fractions import Fraction

import pytest

from cocycle_forge.chains import Chain
from cocycle_forge.diffeo import PolyDiffeo
from cocycle_forge.errors import ScenarioError
from cocycle_forge.forms import PolyForm
from cocycle_forge.polynomial import Polynomial
from cocycle_forge.sampling import random_form, random_polynomial
from cocycle_forge.scenario import parse_generator_spec
from cocycle_forge.serialize import (
    MAX_POLY_EXPONENT,
    chain_from_json,
    form_from_json,
    form_to_json,
    fraction_to_str,
    json_ready,
    parse_fraction,
    polynomial_from_json,
    polynomial_to_json,
)


class TestFractions:
    def test_round_trip(self):
        for text in ["0", "7", "-3", "1/2", "-22/7"]:
            assert fraction_to_str(parse_fraction(text)) == text

    def test_integers_allowed(self):
        assert parse_fraction(5) == Fraction(5)

    def test_surrounding_whitespace_tolerated(self):
        assert parse_fraction(" 3/4 ") == Fraction(3, 4)

    def test_decimals_and_exponent_notation(self):
        assert parse_fraction("-0.25") == Fraction(-1, 4)
        assert parse_fraction("3e-2") == Fraction(3, 100)
        assert parse_fraction("2.5E1_0") == 25 * 10**9
        assert parse_fraction("1e4300") == 10**4300

    def test_digits_grouped_by_single_underscores(self):
        assert parse_fraction("1_000") == 1000
        assert parse_fraction("1_0/3") == Fraction(10, 3)

    # an exponent past 4,300 (the default str digit limit) is refused unbuilt;
    # spaces around "/" and stray underscores are refused on every interpreter
    @pytest.mark.parametrize(
        "bad",
        [
            0.5, True, None, "1/0", "a/b", [1], "1e4301", "1E-5_000", "1e" + "9" * 5000,
            "2 / 3", "1 /3", "1__0", "_1",
        ],
    )
    def test_rejections(self, bad):
        with pytest.raises((ScenarioError, TypeError, ValueError)):
            parse_fraction(bad)

    # a digit run past the limit is refused before int() sees it, quoted
    # by its head; a literal of exactly 4,300 digits still parses
    @pytest.mark.parametrize(
        "text, refusal",
        [
            ("1" * 5000, "'11111111111111111111'... (5000 characters): numerator"),
            ("1/" + "3" * 5000, "'1/333333333333333333'... (5002 characters): denominator"),
            ("0." + "7" * 4301, "'0.777777777777777777'... (4303 characters): numerator"),
        ],
        ids=["integer", "denominator", "decimal"],
    )
    def test_overlong_digit_runs_are_refused_in_our_words(self, text, refusal):
        with pytest.raises(ScenarioError) as refused:
            parse_fraction(text)
        assert str(refused.value) == (
            f"bad rational literal {refusal} longer than 4300 digits"
        )

    def test_digit_limit_is_inclusive(self):
        assert parse_fraction("1" * 4300) == int("1" * 4300)
        assert parse_fraction("1/" + "3" * 4300) == Fraction(1, int("3" * 4300))

    def test_long_literal_is_quoted_by_its_head(self):
        with pytest.raises(ScenarioError) as refused:
            parse_fraction("1e" + "9" * 5000)
        assert str(refused.value) == (
            "bad rational literal '1e999999999999999999'... (5002 characters): "
            "exponent magnitude above 4300"
        )

    @pytest.mark.parametrize("text", ["1/0", "-3/0_0"])
    def test_zero_denominator_is_named(self, text):
        with pytest.raises(ScenarioError) as refused:
            parse_fraction(text)
        assert str(refused.value) == f"bad rational literal {text!r}: zero denominator"


class TestPolynomialJson:
    def test_round_trip_random(self):
        rng = random.Random("serialize:poly")
        for _ in range(20):
            p = random_polynomial(rng, 3, 3, 4)
            data = polynomial_to_json(p)
            # must survive a real JSON encode/decode, not just dict copying
            data = json.loads(json.dumps(data))
            assert polynomial_from_json(data, 3) == p

    def test_shape(self):
        p = Polynomial(2, {(1, 0): Fraction(1, 2)})
        assert polynomial_to_json(p) == [{"coeff": "1/2", "exps": [1, 0]}]

    def test_merges_repeated_exponents(self):
        data = [
            {"exps": [1, 0], "coeff": "1/2"},
            {"exps": [1, 0], "coeff": "1/2"},
        ]
        assert polynomial_from_json(data, 2) == Polynomial(2, {(1, 0): Fraction(1)})

    def test_bad_entries(self):
        with pytest.raises(ScenarioError):
            polynomial_from_json([{"exps": [1], "coeff": "1/2"}], 2)
        with pytest.raises(ScenarioError):
            polynomial_from_json([{"exps": [1, 0]}], 2)
        with pytest.raises(ScenarioError):
            polynomial_from_json("nope", 2)

    def test_exponent_cap(self):
        top = polynomial_from_json([{"exps": [0, MAX_POLY_EXPONENT], "coeff": "1"}], 2)
        assert top.degree() == MAX_POLY_EXPONENT
        over = [{"exps": [0, MAX_POLY_EXPONENT + 1], "coeff": "1"}]
        # the cap is on total degree, so spreading it over variables does not help
        with pytest.raises(ScenarioError, match="total degree"):
            polynomial_from_json([{"exps": [32, 33], "coeff": "1"}], 2)
        with pytest.raises(ScenarioError) as info:
            polynomial_from_json(over, 2)
        assert str(info.value) == (
            f"exponent vector [0, {MAX_POLY_EXPONENT + 1}] has total degree "
            f"above {MAX_POLY_EXPONENT}"
        )


class TestFormJson:
    def test_round_trip_random(self):
        rng = random.Random("serialize:form")
        for _ in range(20):
            w = random_form(rng, 3, rng.randint(0, 3), 2)
            data = json.loads(json.dumps(form_to_json(w)))
            assert form_from_json(data) == w

    def test_indices_are_one_based(self):
        data = form_to_json(PolyForm.volume(2))
        assert data["components"][0]["idx"] == [1, 2]

    def test_rejects_out_of_range_index(self):
        data = form_to_json(PolyForm.volume(2))
        data["components"][0]["idx"] = [1, 3]
        with pytest.raises(ScenarioError):
            form_from_json(data)

    def test_rejects_unsorted_index(self):
        data = form_to_json(PolyForm.volume(2))
        data["components"][0]["idx"] = [2, 1]
        with pytest.raises(ScenarioError):
            form_from_json(data)


def _term(exps, coeff="1"):
    return {"exps": exps, "coeff": coeff}


# sigma(x, y) = (x + y^2, y), with inverse (x - y^2, y)
SIGMA_JSON = {
    "type": "explicit",
    "forward": [[_term([1, 0]), _term([0, 2])], [_term([0, 1])]],
    "inverse": [[_term([1, 0]), _term([0, 2], "-1")], [_term([0, 1])]],
    "label": "sigma",
}


def _verts(*points):
    return [[str(x) for x in p] for p in points]


class TestDiffeoJson:
    """The explicit generator spec, read by ``parse_generator_spec``."""

    def test_round_trip(self):
        sigma = PolyDiffeo.shear(2, 0, Polynomial(2, {(0, 2): Fraction(1)}), "sigma")
        back = parse_generator_spec(json.loads(json.dumps(SIGMA_JSON)), 2)
        assert back == sigma
        assert back.label == "sigma"

    def test_inverse_is_verified(self):
        data = dict(SIGMA_JSON, inverse=SIGMA_JSON["forward"])  # no longer a two-sided inverse
        with pytest.raises(ScenarioError) as info:
            parse_generator_spec(data, 2)
        assert str(info.value) == "forward o inverse is not the identity (sigma)"

    def test_component_count_must_agree(self):
        data = {
            "type": "explicit",
            "forward": [[_term([1, 0])], [_term([0, 1])]],
            "inverse": [[_term([1, 0])]],
        }
        with pytest.raises(ScenarioError) as info:
            parse_generator_spec(data, 2)
        assert str(info.value) == "explicit inverse map needs a list of 2 polynomials"

    @pytest.mark.parametrize(
        "side, value",
        [("forward", SIGMA_JSON["forward"][:1]), ("inverse", "x - y^2")],
        ids=["too-few-forward", "inverse-not-a-list"],
    )
    def test_sides_must_be_lists_of_dim_polynomials(self, side, value):
        with pytest.raises(ScenarioError) as info:
            parse_generator_spec(dict(SIGMA_JSON, **{side: value}), 2)
        assert str(info.value) == f"explicit {side} map needs a list of 2 polynomials"


class TestChainJson:
    def test_round_trip_loop(self):
        data = {
            "dim": 1,
            "simplices": [
                {"coeff": "1", "verts": _verts((0, 0), (1, 0))},
                {"coeff": "1", "verts": _verts((1, 0), (0, 1))},
                {"coeff": "1", "verts": _verts((0, 1), (0, 0))},
            ],
        }
        loop = Chain.triangle_loop((0, 0), (1, 0), (0, 1))
        assert chain_from_json(json.loads(json.dumps(data)), ambient=2) == loop

    def test_round_trip_weighted(self):
        data = {
            "dim": 0,
            "simplices": [
                {"coeff": "-2/3", "verts": [["1/2", "-1"]]},
                {"coeff": "1", "verts": [["4", "4"]]},
            ],
        }
        chain = Chain.point(["1/2", -1]) * Fraction(-2, 3) + Chain.point([4, 4])
        assert chain_from_json(data, ambient=2) == chain

    def test_ambient_check(self):
        data = {"dim": 0, "simplices": [{"coeff": "1", "verts": [["0", "0"]]}]}
        with pytest.raises(ScenarioError):
            chain_from_json(data, ambient=3)


class TestJsonReady:
    def test_converts_fractions_recursively(self):
        obj = {"a": Fraction(1, 3), "b": [Fraction(2), {"c": Fraction(-1, 7)}]}
        assert json_ready(obj) == {"a": "1/3", "b": ["2", {"c": "-1/7"}]}

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            json_ready({"x": 0.5})

    def test_passes_ints_strings_bools(self):
        obj = {"n": 3, "s": "hi", "t": True, "none": None}
        assert json_ready(obj) == obj
