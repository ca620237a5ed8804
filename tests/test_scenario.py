"""Scenario loading, validation errors, and the tuple expression language."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from cocycle_forge.diffeo import PolyDiffeo
from cocycle_forge.errors import InvarianceError, ScenarioError
from cocycle_forge.polynomial import Polynomial
from cocycle_forge.scenario import (
    MAX_DEGREE_CAP,
    MAX_DIMENSION,
    MAX_EXPONENT,
    MAX_SAMPLES,
    MAX_WORD_LENGTH,
    load_scenario,
    parse_generator_spec,
    parse_group_element,
    parse_tuple,
)
from cocycle_forge.serialize import polynomial_from_json

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
        assert state.p == config.descent_form().degree - 1
        assert config.cycle.dim == config.descent_form().degree - state.p - 1 == 0

    def test_area_scenario_contents(self):
        config = load_scenario(str(SCENARIO_DIR / "r2_area.json"))
        assert config.dimension == 2
        assert set(config.group.labels()) == {"T1", "T2", "rot90", "sigma"}
        assert len(config.forms) == 1
        assert config.build_state().p == 1


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

    def test_invariance_checked_once_per_pair_under_flags(self, monkeypatch):
        calls = []
        preserves = PolyDiffeo.preserves

        def counting(g, alpha):
            calls.append((g.label, alpha))
            return preserves(g, alpha)

        monkeypatch.setattr(PolyDiffeo, "preserves", counting)
        config = load_scenario(
            str(SCENARIO_DIR / "r2_area.json"), samples=5, seed=3, degree_cap=8
        )
        config.build_state()
        assert (config.samples, config.seed, config.degree_cap) == (5, 3, 8)
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

    def test_samples_bound(self, tmp_path):
        data = minimal_scenario()
        data["verify"]["samples"] = MAX_SAMPLES
        assert load_scenario(write_scenario(tmp_path, data)).samples == MAX_SAMPLES
        data["verify"]["samples"] = MAX_SAMPLES + 1
        with pytest.raises(ScenarioError, match=f"samples may be at most {MAX_SAMPLES}, got"):
            load_scenario(write_scenario(tmp_path, data))

    def test_degree_cap_bound(self, tmp_path):
        data = minimal_scenario()
        data["verify"]["degree_cap"] = MAX_DEGREE_CAP
        path = write_scenario(tmp_path, data)
        assert load_scenario(path).degree_cap == MAX_DEGREE_CAP
        data["verify"]["degree_cap"] = MAX_DEGREE_CAP + 1
        message = f"degree_cap may be at most {MAX_DEGREE_CAP}, got {MAX_DEGREE_CAP + 1}"
        with pytest.raises(ScenarioError) as info:
            load_scenario(write_scenario(tmp_path, data))
        assert str(info.value) == message

    def test_flags_read_by_the_verify_rules(self, tmp_path):
        path = write_scenario(tmp_path, minimal_scenario())
        config = load_scenario(path, samples=MAX_SAMPLES, degree_cap=MAX_DEGREE_CAP)
        assert (config.samples, config.degree_cap) == (MAX_SAMPLES, MAX_DEGREE_CAP)
        refusals = [
            ({"samples": -1}, "samples must be an integer >= 0, got -1"),
            ({"samples": MAX_SAMPLES + 1}, f"samples may be at most {MAX_SAMPLES}, got"),
            ({"seed": True}, "seed must be an integer, got True"),
            ({"degree_cap": 0}, "degree_cap must be an integer >= 1, got 0"),
            ({"degree_cap": MAX_DEGREE_CAP + 1}, f"degree_cap may be at most {MAX_DEGREE_CAP}"),
        ]
        for flags, message in refusals:
            with pytest.raises(ScenarioError) as info:
                load_scenario(path, **flags)
            assert str(info.value).startswith(message)

    def test_dimension_bound(self, tmp_path):
        for n in (MAX_DIMENSION, MAX_DIMENSION + 1):
            dx1 = {
                "dim": n,
                "degree": 1,
                "components": [{"idx": [1], "poly": [{"exps": [0] * n, "coeff": "1"}]}],
            }
            data = minimal_scenario(
                dimension=n,
                forms=[{"name": "dx1", "form": dx1}],
                group={"generators": [{"type": "translation", "vector": ["1"] * n}]},
                cycle={"dim": 0, "simplices": [{"coeff": "1", "verts": [["0"] * n]}]},
            )
            if n == MAX_DIMENSION:
                assert load_scenario(write_scenario(tmp_path, data)).dimension == n
            else:
                with pytest.raises(ScenarioError) as info:
                    load_scenario(write_scenario(tmp_path, data))
                assert str(info.value) == f"dimension must be an integer in 1..{n - 1}, got {n}"

    def test_cycle_dimension_must_match_descent(self, tmp_path):
        # a closed triangle loop, but the descent pairs only with points
        corners = [["0", "0"], ["1", "0"], ["0", "1"]]
        loop = {
            "dim": 1,
            "simplices": [
                {"coeff": "1", "verts": [corners[k], corners[(k + 1) % 3]]} for k in range(3)
            ],
        }
        data = minimal_scenario(cycle=loop)
        with pytest.raises(ScenarioError) as info:
            load_scenario(write_scenario(tmp_path, data))
        assert str(info.value) == "the cycle must be a 0-chain of points, got a 1-chain"

    def test_cycle_must_have_zero_boundary(self, tmp_path):
        # a lone segment is not a cycle; every accepted cycle is a 0-chain,
        # so the open segment is refused by its dimension
        segment = {"dim": 1, "simplices": [{"coeff": "1", "verts": [["0", "0"], ["1", "0"]]}]}
        data = minimal_scenario(cycle=segment)
        with pytest.raises(ScenarioError) as info:
            load_scenario(write_scenario(tmp_path, data))
        assert str(info.value) == "the cycle must be a 0-chain of points, got a 1-chain"

    @pytest.mark.parametrize(
        "points",
        [[], [("1", ["0", "0"]), ("-1", ["1", "0"])]],
        ids=["empty", "cancelling"],
    )
    def test_cycle_weights_must_not_sum_to_zero(self, tmp_path, points):
        # the cocycle is the sum of the weights times its value at one point
        cycle = {
            "dim": 0,
            "simplices": [{"coeff": coeff, "verts": [vertex]} for coeff, vertex in points],
        }
        data = minimal_scenario(cycle=cycle)
        with pytest.raises(ScenarioError) as info:
            load_scenario(write_scenario(tmp_path, data))
        assert str(info.value) == (
            "the cycle's weights sum to 0, so the cocycle would vanish identically"
        )

    def test_zero_form_cannot_drive_descent(self, tmp_path):
        one = {
            "dim": 2,
            "degree": 0,
            "components": [{"idx": [], "poly": [{"exps": [0, 0], "coeff": "1"}]}],
        }
        data = minimal_scenario(forms=[{"name": "one", "form": one}])
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
            (lambda d: d.update(descent={"p": 1}), "unknown scenario keys: ['descent']"),
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
        ids=["scenario", "group", "translation", "linear", "shear", "explicit", "cycle", "form"],
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


def _term(exps, coeff="1"):
    return {"exps": exps, "coeff": coeff}


def _shipped_specs():
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        data = json.loads(path.read_text())
        for spec in data["group"]["generators"]:
            yield pytest.param(spec, data["dimension"], id=f"{path.stem}-{spec['label']}")


SPECS = [
    *_shipped_specs(),
    pytest.param(
        {"type": "shear", "axis": 3, "poly": [_term([1, 2, 0]), _term([1, 0, 0], "1/2")],
         "label": "s3"},
        3,
        id="shear-axis3-dim3",
    ),
    pytest.param(
        {"type": "shear", "axis": 2, "poly": [_term([0, 0, 3], "-2")], "label": "s2"},
        3,
        id="shear-axis2-dim3",
    ),
    pytest.param(
        {"type": "shear", "axis": 4, "poly": [_term([1, 1, 1, 0]), _term([0, 2, 0, 0], "-1")],
         "label": "s4"},
        4,
        id="shear-axis4-dim4",
    ),
    pytest.param(
        {"type": "shear", "axis": 2, "poly": [_term([0, 0, 0, 1], "2/3"), _term([1, 0, 1, 0])],
         "label": "t2"},
        4,
        id="shear-axis2-dim4",
    ),
    pytest.param(EXPLICIT, 2, id="explicit"),
]


def _forward_by_hand(spec, dim):
    """The forward components a spec describes, built term by term."""
    unit = [tuple(int(j == i) for j in range(dim)) for i in range(dim)]
    kind = spec["type"]
    if kind == "explicit":
        return [polynomial_from_json(c, dim) for c in spec["forward"]]
    if kind == "linear":
        return [Polynomial(dim, dict(zip(unit, row))) for row in spec["matrix"]]
    xs = [Polynomial(dim, {e: 1}) for e in unit]
    if kind == "translation":
        return [x + Fraction(v) for x, v in zip(xs, spec["vector"])]
    xs[spec["axis"] - 1] += polynomial_from_json(spec["poly"], dim)
    return xs


class TestSpecsMatchValidatingConstructor:
    """Every generator type builds the map that the validating
    ``PolyDiffeo`` constructor builds from the same forward components and
    the spec's inverse: equal in forward, inverse, label and degree."""

    @pytest.mark.parametrize("spec, dim", SPECS)
    def test_equal(self, spec, dim):
        g = parse_generator_spec(spec, dim)
        checked = PolyDiffeo(_forward_by_hand(spec, dim), g.inverse, spec["label"])
        assert g.forward == checked.forward
        assert g.inverse == checked.inverse
        assert g.label == checked.label
        assert g.degree() == checked.degree()


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
        undo = base.inverted()
        for _ in range(abs(k) - 1):
            product = product.compose(base)
            undo = undo.compose(base.inverted())
        g = parse_group_element(f"sigma^{k}", config)
        assert g == product
        assert g.compose(undo).is_identity() and undo.compose(g).is_identity()
        assert g.label == product.label

    def test_exponent_bound(self, config):
        assert parse_group_element(f"sigma^{MAX_EXPONENT}", config).apply((0, 1)) == (
            MAX_EXPONENT,
            1,
        )
        for k in (MAX_EXPONENT + 1, -MAX_EXPONENT - 1, 10**20, "9" * 5000):
            with pytest.raises(ScenarioError, match="out of range"):
                parse_group_element(f"sigma^{k}", config)
