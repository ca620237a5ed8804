"""Scenario loading, validation errors, and the tuple expression language."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from cocycle_forge.diffeo import PolyDiffeo
from cocycle_forge.errors import InvarianceError, ScenarioError
from cocycle_forge.scenario import (
    MAX_EXPONENT,
    MAX_WORD_LENGTH,
    load_scenario,
    parse_generator_spec,
    parse_group_element,
    parse_tuple,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

AREA_FORM = {
    "dim": 2,
    "degree": 2,
    "components": [{"idx": [1, 2], "poly": [{"exps": [0, 0], "coeff": "1"}]}],
}


def minimal_scenario(**overrides):
    data = {
        "name": "test",
        "dimension": 2,
        "forms": [{"name": "area", "form": AREA_FORM}],
        "group": {
            "generators": [
                {"type": "translation", "vector": ["1", "0"], "label": "T1"},
                {"type": "translation", "vector": ["0", "1"], "label": "T2"},
            ]
        },
        "cycle": {"dim": 0, "simplices": [{"coeff": "1", "verts": [["0", "0"]]}]},
        "descent": {"p": 1},
        "verify": {"samples": 10, "seed": 1},
    }
    data.update(overrides)
    return data


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestShippedScenarios:
    @pytest.mark.parametrize(
        "name", ["r1_line", "r2_area", "r3_volume", "r4_symplectic"]
    )
    def test_loads_and_builds(self, name):
        config = load_scenario(str(SCENARIO_DIR / f"{name}.json"))
        state = config.build_state()
        assert state.p == config.descent_p
        assert config.cycle.dim == config.descent_form().degree - config.descent_p - 1

    def test_area_scenario_contents(self):
        config = load_scenario(str(SCENARIO_DIR / "r2_area.json"))
        assert config.dimension == 2
        assert set(config.group.labels()) == {"T1", "T2", "rot90", "sigma"}
        assert config.form_names == ("area",)
        assert config.descent_p == 1


class TestValidation:
    def test_minimal_loads(self, tmp_path):
        config = load_scenario(write_scenario(tmp_path, minimal_scenario()))
        assert config.samples == 10
        assert config.max_word_length == 3  # default
        assert config.degree_cap == 64  # default

    def test_missing_file(self):
        with pytest.raises(ScenarioError):
            load_scenario("/nonexistent/file.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError):
            load_scenario(str(path))

    def test_unknown_top_level_key(self, tmp_path):
        data = minimal_scenario()
        data["plotting"] = True
        with pytest.raises(ScenarioError, match="unknown scenario keys"):
            load_scenario(write_scenario(tmp_path, data))

    def test_invariance_checked_once_per_pair(self, monkeypatch):
        calls = []
        preserves = PolyDiffeo.preserves

        def counting(g, alpha):
            calls.append((g.label, alpha))
            return preserves(g, alpha)

        monkeypatch.setattr(PolyDiffeo, "preserves", counting)
        config = load_scenario(str(SCENARIO_DIR / "r2_area.json"))
        config.build_state()
        pairs = [(g.label, f) for g in config.group.generators for f in config.forms]
        assert sorted(calls, key=repr) == sorted(pairs, key=repr)

    def test_non_invariant_generator_named(self, tmp_path):
        data = minimal_scenario()
        data["group"]["generators"].append(
            {
                "type": "linear",
                "matrix": [["2", "0"], ["0", "1"]],
                "label": "stretch",
            }
        )
        with pytest.raises(InvarianceError, match="'stretch'.*'area'"):
            load_scenario(write_scenario(tmp_path, data))

    def test_duplicate_labels(self, tmp_path):
        data = minimal_scenario()
        data["group"]["generators"][1]["label"] = "T1"
        with pytest.raises(ScenarioError, match="distinct"):
            load_scenario(write_scenario(tmp_path, data))

    def test_duplicate_form_names(self, tmp_path):
        data = minimal_scenario()
        data["forms"].append({"name": "area", "form": AREA_FORM})
        with pytest.raises(ScenarioError, match="duplicate form name"):
            load_scenario(write_scenario(tmp_path, data))

    def test_form_dimension_mismatch(self, tmp_path):
        data = minimal_scenario(dimension=3)
        with pytest.raises(ScenarioError):
            load_scenario(write_scenario(tmp_path, data))

    def test_float_coefficients_rejected(self, tmp_path):
        data = minimal_scenario()
        data["group"]["generators"][0]["vector"] = [0.5, "0"]
        with pytest.raises((ScenarioError, TypeError)):
            load_scenario(write_scenario(tmp_path, data))

    def test_unsupported_homotopy(self, tmp_path):
        data = minimal_scenario()
        data["descent"]["homotopy"] = "radial-elsewhere"
        with pytest.raises(ScenarioError, match="poincare-origin"):
            load_scenario(write_scenario(tmp_path, data))

    def test_bad_verify_key(self, tmp_path):
        data = minimal_scenario()
        data["verify"]["tolerance"] = 0
        with pytest.raises(ScenarioError, match="unknown verify keys"):
            load_scenario(write_scenario(tmp_path, data))

    def test_word_length_bound(self, tmp_path):
        data = minimal_scenario()
        data["verify"]["max_word_length"] = MAX_WORD_LENGTH
        assert load_scenario(write_scenario(tmp_path, data)).max_word_length == MAX_WORD_LENGTH
        data["verify"]["max_word_length"] = MAX_WORD_LENGTH + 1
        with pytest.raises(
            ScenarioError, match=f"max_word_length may be at most {MAX_WORD_LENGTH}, got"
        ):
            load_scenario(write_scenario(tmp_path, data))

    def test_descent_p_defaults_to_top_level(self, tmp_path):
        data = minimal_scenario()
        del data["descent"]
        config = load_scenario(write_scenario(tmp_path, data))
        assert config.descent_p == 1  # degree 2 form

    def test_descent_p_above_top_level(self, tmp_path):
        data = minimal_scenario()
        data["descent"]["p"] = 5
        with pytest.raises(ScenarioError, match=r"descent p must be in 0\.\.1"):
            load_scenario(write_scenario(tmp_path, data))


    def test_zero_form_cannot_drive_descent(self, tmp_path):
        one = {
            "dim": 2,
            "degree": 0,
            "components": [{"idx": [], "poly": [{"exps": [0, 0], "coeff": "1"}]}],
        }
        data = minimal_scenario(forms=[{"name": "one", "form": one}])
        del data["descent"]
        with pytest.raises(ScenarioError, match="'one' has degree 0 and cannot drive the descent"):
            load_scenario(write_scenario(tmp_path, data))


ROT90 = {"type": "linear", "matrix": [["0", "-1"], ["1", "0"]], "label": "rot90"}
SHEAR = {"type": "shear", "axis": 1, "poly": [{"exps": [0, 2], "coeff": "1"}], "label": "s"}
EXPLICIT = {
    "type": "explicit",
    "forward": [
        [{"exps": [1, 0], "coeff": "1"}, {"exps": [0, 2], "coeff": "1"}],
        [{"exps": [0, 1], "coeff": "1"}],
    ],
    "inverse": [
        [{"exps": [1, 0], "coeff": "1"}, {"exps": [0, 2], "coeff": "-1"}],
        [{"exps": [0, 1], "coeff": "1"}],
    ],
    "label": "e",
}


def _with_generator(spec):
    def mutate(data):
        data["group"]["generators"].append(dict(spec, lable="x"))

    return mutate


class TestUnknownNestedKeys:
    """Every object in a scenario refuses a key it does not know, by name."""

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d["group"].update(bogus=1), "unknown group keys: ['bogus']"),
            (
                lambda d: d["group"]["generators"][0].update(lable="T1"),
                "unknown translation generator keys: ['lable']",
            ),
            (_with_generator(ROT90), "unknown linear generator keys: ['lable']"),
            (_with_generator(SHEAR), "unknown shear generator keys: ['lable']"),
            (_with_generator(EXPLICIT), "unknown explicit generator keys: ['lable']"),
            (lambda d: d["cycle"].update(coeff="1"), "unknown chain keys: ['coeff']"),
            (
                lambda d: d["forms"][0]["form"].update(name="area"),
                "unknown form keys: ['name']",
            ),
        ],
        ids=["group", "translation", "linear", "shear", "explicit", "cycle", "form"],
    )
    def test_refused_and_named(self, tmp_path, mutate, message):
        data = json.loads(json.dumps(minimal_scenario()))
        mutate(data)
        with pytest.raises(ScenarioError) as info:
            load_scenario(write_scenario(tmp_path, data))
        assert str(info.value) == message

    @pytest.mark.parametrize("spec", [ROT90, SHEAR, EXPLICIT])
    def test_known_keys_load(self, tmp_path, spec):
        data = minimal_scenario()
        data["group"]["generators"].append(spec)
        config = load_scenario(write_scenario(tmp_path, data))
        assert config.group.labels()[-1] == spec["label"]


class TestGeneratorSpecs:
    def test_shear_axis_is_one_based(self):
        g = parse_generator_spec(
            {
                "type": "shear",
                "axis": 1,
                "poly": [{"exps": [0, 2], "coeff": "1"}],
                "label": "sigma",
            },
            2,
        )
        assert g.apply((0, 2)) == (4, 2)

    def test_explicit_generator(self):
        g = parse_generator_spec(
            {
                "type": "explicit",
                "forward": [
                    [{"exps": [1, 0], "coeff": "1"}, {"exps": [0, 2], "coeff": "1"}],
                    [{"exps": [0, 1], "coeff": "1"}],
                ],
                "inverse": [
                    [{"exps": [1, 0], "coeff": "1"}, {"exps": [0, 2], "coeff": "-1"}],
                    [{"exps": [0, 1], "coeff": "1"}],
                ],
                "label": "sigma",
            },
            2,
        )
        assert g.apply((0, 1)) == (1, 1)

    def test_unknown_type(self):
        with pytest.raises(ScenarioError, match="unknown generator type"):
            parse_generator_spec({"type": "mystery"}, 2)

    def test_shear_axis_range(self):
        with pytest.raises(ScenarioError):
            parse_generator_spec(
                {"type": "shear", "axis": 0, "poly": [], "label": "s"}, 2
            )


@pytest.fixture(scope="module")
def config():
    return load_scenario(str(SCENARIO_DIR / "r2_area.json"))


class TestTupleExpressions:
    def test_plain_label(self, config):
        assert parse_group_element("sigma", config).label == "sigma"

    def test_inline_translation(self, config):
        g = parse_group_element("T(1/2,-3)", config)
        assert g.apply((0, 0)) == (Fraction(1, 2), -3)

    def test_powers(self, config):
        assert parse_group_element("T1^3", config).apply((0, 0)) == (3, 0)
        assert parse_group_element("rot90^-1", config).apply((1, 0)) == (0, -1)
        assert parse_group_element("sigma^0", config).is_identity()

    def test_products_compose_left_to_right(self, config):
        # a*b means apply b first: (a*b)(x) = a(b(x))
        g = parse_group_element("sigma*T(0,1)", config)
        sigma = config.group.generator("sigma")
        t = parse_group_element("T(0,1)", config)
        assert g == sigma.compose(t)

    def test_whitespace_and_tuple(self, config):
        gs = parse_tuple(["sigma * T1", "T2^-1"], config)
        assert len(gs) == 2
        assert gs[0] == config.group.generator("sigma").compose(
            config.group.generator("T1")
        )

    def test_unknown_label_lists_known(self, config):
        with pytest.raises(ScenarioError, match="scenario defines"):
            parse_group_element("tau", config)

    def test_bad_syntax(self, config):
        for bad in ["", "sigma**2", "T(1,0", "2sigma", "sigma^x"]:
            with pytest.raises(ScenarioError):
                parse_group_element(bad, config)

    def test_translation_arity(self, config):
        with pytest.raises(ScenarioError, match="coordinates"):
            parse_group_element("T(1)", config)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 6, 7, 8, -1, -4, -7])
    def test_power_equals_repeated_product(self, config, k):
        base = config.group.generator("sigma")
        if k < 0:
            base = base.inverted()
        product = base
        for _ in range(abs(k) - 1):
            product = product.compose(base)
        g = parse_group_element(f"sigma^{k}", config)
        assert g == product
        assert g.inverse == product.inverse
        assert g.label == product.label

    def test_exponent_bound(self, config):
        assert parse_group_element(f"sigma^{MAX_EXPONENT}", config).apply((0, 1)) == (
            MAX_EXPONENT,
            1,
        )
        for k in (MAX_EXPONENT + 1, -MAX_EXPONENT - 1, 10**20, "9" * 5000):
            with pytest.raises(ScenarioError, match="out of range"):
                parse_group_element(f"sigma^{k}", config)
