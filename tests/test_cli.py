"""The command-line interface: reports, exit codes, and byte-level determinism."""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocycle_forge import cli
from cocycle_forge.scenario import MAX_WORD_LENGTH

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"
R1 = str(SCENARIO_DIR / "r1_line.json")
R2 = str(SCENARIO_DIR / "r2_area.json")
R3 = str(SCENARIO_DIR / "r3_volume.json")


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_proc(*argv, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "cocycle_forge", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc


def console_script(name, tmp_path):
    """The installed console script `name`; failing that, a wrapper for its
    `[project.scripts]` entry in pyproject.toml, written as pip writes one."""
    installed = shutil.which(name)
    if installed:
        return installed
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"][name]
    module, attr = entry.split(":")
    wrapper = tmp_path / name
    wrapper.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n"
    )
    wrapper.chmod(0o755)
    return str(wrapper)


class TestEval:
    def test_shear_value(self, capsys):
        code, report = run_main(
            capsys, "eval-cocycle", "--scenario", R2, "--tuple", "sigma", "T(0,1)"
        )
        assert code == 0
        assert report["pass"] is True
        assert report["checks"][0]["value"] == "-1/6"

    def test_translation_pair(self, capsys):
        code, report = run_main(
            capsys, "eval-cocycle", "--scenario", R2, "--tuple", "T(1,0)", "T(0,1)"
        )
        assert code == 0
        assert report["checks"][0]["value"] == "1/2"

    def test_wrong_arity_fails_cleanly(self, capsys):
        code, report = run_main(
            capsys, "eval-cocycle", "--scenario", R2, "--tuple", "sigma"
        )
        assert code == 2
        assert report["pass"] is False
        assert report["error"]["type"] == "ScenarioError"

    def test_missing_tuple(self, capsys):
        code, report = run_main(capsys, "eval-cocycle", "--scenario", R2)
        assert code == 2
        assert "error" in report


class TestReports:
    def test_build_report_shape(self, capsys):
        code, report = run_main(capsys, "build-cocycle", "--scenario", R2)
        assert code == 0
        check = report["checks"][0]
        assert check["name"] == "descent_build"
        assert check["form_degree"] == 2
        assert check["depth"] == 1
        assert [lvl["form_degree"] for lvl in check["ladder"]] == [1, 0]

    def test_report_metadata(self, capsys):
        code, report = run_main(capsys, "stokes-check", "--scenario", R1)
        assert code == 0
        assert report["command"] == "stokes-check"
        assert report["scenario"] == R1
        assert report["scenario_name"] == "line-translations"
        assert isinstance(report["seed"], int)
        assert all(c["pass"] for c in report["checks"])

    def test_no_floats_anywhere(self, capsys):
        def walk(node):
            assert not isinstance(node, float)
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)

        for cmd in ["check-calculus", "check-fgamma", "check-closed-form"]:
            _, report = run_main(capsys, cmd, "--scenario", R1)
            walk(report)

    def test_pretty_and_compact_agree(self, capsys):
        _, compact = run_main(capsys, "build-cocycle", "--scenario", R1)
        _, pretty = run_main(capsys, "build-cocycle", "--scenario", R1, "--pretty")
        assert compact == pretty

    def test_samples_override(self, capsys):
        code, report = run_main(
            capsys, "stokes-check", "--scenario", R1, "--samples", "7"
        )
        assert code == 0
        assert report["samples"] == 7
        assert report["checks"][0]["samples"] == 7

    def test_timings_flag(self, capsys):
        _, without = run_main(capsys, "build-cocycle", "--scenario", R1)
        _, with_t = run_main(capsys, "build-cocycle", "--scenario", R1, "--timings")
        assert "elapsed_ms" not in without
        assert isinstance(with_t["elapsed_ms"], int)


class TestCommandTable:
    def test_docs_list_every_command(self):
        doc = cli.__doc__.split("Commands\n--------\n\n")[1].split("\n\n")[0]
        documented = [line.split()[0] for line in doc.splitlines()]
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command-line interface")[1].split("```sh\n")[1]
        listed = [line.split()[1] for line in block.split("```")[0].splitlines()]
        assert documented == list(cli.COMMANDS) == listed


class TestExitCodes:
    def test_missing_scenario_is_config_error(self, capsys):
        code, report = run_main(capsys, "build-cocycle", "--scenario", "/no/such.json")
        assert code == 2
        assert report["error"]["type"] == "ScenarioError"

    def test_tight_degree_cap_surfaces(self, capsys):
        code, report = run_main(
            capsys,
            "eval-cocycle",
            "--scenario",
            R2,
            "--tuple",
            "sigma^2",
            "T(0,1)",
            "--degree-cap",
            "2",
        )
        assert code == 2
        assert report["error"]["type"] == "DegreeCapExceededError"

    def test_huge_power_is_config_error_in_bounded_time(self):
        # sigma^k stays at degree 2, so no degree cap ever refuses it
        proc = run_proc(
            "eval-cocycle", "--scenario", R2, "--tuple", "sigma^99999999999999999999", "T2",
            timeout=30,
        )
        assert proc.returncode == 2, proc.stderr
        report = json.loads(proc.stdout)
        assert report["error"]["type"] == "ScenarioError"
        assert "out of range" in report["error"]["message"]

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        # force a failing record through the real report path
        def fake_suite(dim, samples, seed):
            return [
                {"name": "forced", "samples": 1, "failures": 1, "pass": False}
            ]

        monkeypatch.setattr(cli, "stokes_suite", fake_suite)
        code, report = run_main(capsys, "stokes-check", "--scenario", R1)
        assert code == 1
        assert report["pass"] is False

    def test_descent_p_out_of_range_is_config_error(self, capsys, tmp_path):
        data = json.loads(Path(R2).read_text())
        data["descent"]["p"] = 5
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(data))
        code, report = run_main(capsys, "build-cocycle", "--scenario", str(path))
        assert code == 2
        assert report["pass"] is False
        assert report["error"]["type"] == "ScenarioError"
        assert "descent p" in report["error"]["message"]

    def test_zero_descent_form_is_config_error(self, capsys, tmp_path):
        data = json.loads(Path(R2).read_text())
        data["forms"][0]["form"]["components"] = []
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(data))
        code, report = run_main(capsys, "build-cocycle", "--scenario", str(path))
        assert code == 2
        assert report["error"]["type"] == "ScenarioError"
        assert repr(data["forms"][0]["name"]) in report["error"]["message"]

    def test_misspelt_generator_key_is_config_error(self, capsys, tmp_path):
        data = json.loads(Path(R2).read_text())
        data["group"]["generators"][0]["lable"] = data["group"]["generators"][0].pop("label")
        path = tmp_path / "misspelt.json"
        path.write_text(json.dumps(data))
        code, report = run_main(
            capsys, "eval-cocycle", "--scenario", str(path), "--tuple", "T2", "T2"
        )
        assert code == 2
        assert report["error"]["message"] == "unknown translation generator keys: ['lable']"

    def test_value_too_large_to_print_is_named_error(self, capsys):
        # the value is 2200-digit times 2200-digit, past the 4300-digit str limit
        nines = "9" * 2200
        code, report = run_main(
            capsys,
            "eval-cocycle",
            "--scenario",
            R2,
            "--tuple",
            f"T({nines},0)",
            f"T(0,{nines})",
        )
        assert code == 2
        assert report["pass"] is False
        assert report["error"]["type"] == "ValueTooLargeError"

    @pytest.mark.parametrize("literal", ["1e5000", "1e10000000"])
    def test_huge_exponent_literal_is_config_error_in_bounded_time(self, literal):
        # Fraction would build 10**exponent first, which takes time without bound
        proc = run_proc(
            "eval-cocycle", "--scenario", R2, "--tuple", f"T({literal},0)", "T2", timeout=30
        )
        assert proc.returncode == 2, proc.stderr
        report = json.loads(proc.stdout)
        assert report["error"]["type"] == "ScenarioError"
        assert f"{literal!r}: exponent magnitude above" in report["error"]["message"]

    def test_unprintable_translation_label_is_named_error(self, capsys):
        # 10**4300 has 4301 digits, one past the str limit, so T(...) cannot be named
        code, report = run_main(
            capsys, "eval-cocycle", "--scenario", R2, "--tuple", "T(1e4300,0)", "T2"
        )
        assert code == 2
        assert report["error"]["type"] == "ValueTooLargeError"

    def test_nonlinear_pushforward_is_named_error(self, capsys, tmp_path):
        # the stabilizer sampler pushes the loop forward along every
        # generator, and the shear s23 is not affine
        data = json.loads(Path(R3).read_text())
        data["descent"] = {"p": 1}
        corners = [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]]
        data["cycle"] = {
            "dim": 1,
            "simplices": [
                {"coeff": "1", "verts": [corners[k], corners[(k + 1) % 3]]} for k in range(3)
            ],
        }
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(data))
        with pytest.warns(UserWarning, match="descent depth"):
            code, report = run_main(
                capsys, "check-triviality", "--scenario", str(path),
                "--subgroup", "stabilizer", "--samples", "2",
            )
        assert code == 2
        assert report["error"]["type"] == "NonAffineImageError"
        assert "nonlinear map 's23'" in report["error"]["message"]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("form degree", 2.9),
            ("form degree", True),
            ("form dim", "2"),
            ("chain dim", 0.5),
            ("chain dim", "0"),
            ("chain dim", False),
        ],
    )
    def test_non_integer_dim_or_degree_is_config_error(self, capsys, tmp_path, field, value):
        # int() would truncate 2.9 and 0.5 and parse "0", and the scenario
        # would load as if the file had said 2 or 0
        data = json.loads(Path(R2).read_text())
        if field == "chain dim":
            data["cycle"]["dim"] = value
        else:
            data["forms"][0]["form"][field.split()[1]] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, report = run_main(
            capsys, "eval-cocycle", "--scenario", str(path), "--tuple", "T1", "T2"
        )
        assert code == 2
        assert report["error"]["type"] == "ScenarioError"
        assert f"{field} must be an integer >= 0, got {value!r}" in report["error"]["message"]

    def test_unknown_command_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            cli.main(["make-plots", "--scenario", R1])


# JSON values a hand-edited dim or degree field might hold
ODD_VALUES = st.one_of(
    st.integers(-2, 4),
    st.integers(-(10**12), 10**12),
    st.floats(),
    st.sampled_from(["0", "1", "2", "3", "x", ""]),
    st.booleans(),
    st.none(),
)
FUZZ_COMMANDS = (
    ("eval-cocycle", "--tuple"),
    ("check-triviality", "--subgroup", "stabilizer", "--samples", "1"),
    ("build-cocycle", "--samples", "1"),
)


@st.composite
def mutated_scenario(draw):
    """r2 or r3 with its cycle replaced by a point, segment or loop and
    its cycle dim and form dim/degree possibly replaced by odd values."""
    name, n = draw(st.sampled_from([("r2_area", 2), ("r3_volume", 3)]))
    data = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    coord = st.integers(-2, 2).map(str)
    a, b, c = draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=3, max_size=3))
    kind = draw(st.sampled_from(["keep", "point", "segment", "loop"]))
    if kind != "keep":
        edges = {"point": [[a]], "segment": [[a, b]], "loop": [[a, b], [b, c], [c, a]]}[kind]
        data["cycle"] = {
            "dim": 0 if kind == "point" else 1,
            "simplices": [{"coeff": "1", "verts": verts} for verts in edges],
        }
    if draw(st.booleans()):
        data["cycle"]["dim"] = draw(ODD_VALUES)
    form = data["forms"][0]["form"]
    for key in ("dim", "degree"):
        if draw(st.booleans()):
            form[key] = draw(ODD_VALUES)
    command = draw(st.sampled_from(FUZZ_COMMANDS))
    if command[0] == "eval-cocycle":
        command += tuple(f"T{i}" for i in range(1, n + 1))
    return data, command


# values a hand-edited generator spec might hold
SPEC_VALUES = st.one_of(
    ODD_VALUES,
    st.lists(ODD_VALUES, max_size=3),
    st.sampled_from(["translation", "linear", "shear", "explicit", "mystery"]),
)
SPEC_KEYS = ("type", "label", "vector", "matrix", "axis", "poly", "forward", "inverse", "lable")
# Field values other than huge integers, with valid small ones drawn more
# often.  max_word_length is drawn from these or from above MAX_WORD_LENGTH,
# which the loader refuses: valid lengths near the cap sample words too
# slowly on r2 for the deadline.
SMALL_FIELD_VALUES = st.one_of(
    st.integers(-2, 5),
    st.integers(0, 3),
    st.floats(),
    st.sampled_from(["1", "x", "", "poincare-origin", "radial"]),
    st.booleans(),
    st.none(),
    st.lists(st.integers(0, 2), max_size=2),
)
FIELDS = {
    ("verify", "samples"): st.one_of(SMALL_FIELD_VALUES, st.integers(-(10**12), 10**12)),
    ("verify", "max_word_length"): st.one_of(
        SMALL_FIELD_VALUES, st.integers(MAX_WORD_LENGTH + 1, 10**12)
    ),
    ("verify", "seed"): st.one_of(SMALL_FIELD_VALUES, st.integers(-(10**12), 10**12)),
    ("verify", "degree_cap"): st.one_of(SMALL_FIELD_VALUES, st.integers(1, 10**12)),
    ("verify", "tolerance"): SMALL_FIELD_VALUES,
    ("descent", "p"): SMALL_FIELD_VALUES,
    ("descent", "homotopy"): SMALL_FIELD_VALUES,
    ("descent", "depth"): SMALL_FIELD_VALUES,
}


@st.composite
def group_element(draw, labels, n):
    """A well-formed --tuple expression: one to three factors joined by *,
    each a label or T(...), possibly raised to a power ^k (|k| may exceed
    the bound)."""
    coord = st.sampled_from(["0", "1", "-1", "1/2", "-3/2"])
    atom = st.one_of(
        st.sampled_from(labels),
        st.lists(coord, min_size=n, max_size=n).map(lambda cs: f"T({','.join(cs)})"),
    )
    power = st.one_of(
        st.just(""),
        st.integers(-3, 3).map(lambda k: f"^{k}"),
        st.integers(-1100, 1100).map(lambda k: f"^{k}"),
    )
    factors = draw(st.lists(st.tuples(atom, power).map("".join), min_size=1, max_size=3))
    return draw(st.sampled_from(["*", " * "])).join(factors)


# malformed --tuple expressions and factors
BAD_ELEMENTS = st.sampled_from(
    ["", " ", "*", "T", "nope", "T(1,0", "T(1)", "T(1,0,0,0)", "T(x,0)", "T1^", "T1^x",
     "T1**T2", "T1^99999999999999999999", "(T1)", "T1^-0"]
)


@st.composite
def mutated_inputs(draw):
    """r2 or r3 with one generator spec, one verify/descent field, or the
    --tuple of eval-cocycle changed."""
    name, n = draw(st.sampled_from([("r2_area", 2), ("r3_volume", 3)]))
    data = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    labels = [g["label"] for g in data["group"]["generators"]]
    width = data["descent"]["p"] + 1
    target = draw(st.sampled_from(["generator", "field", "tuple"]))
    if target == "generator":
        spec = draw(st.sampled_from(data["group"]["generators"]))
        key = draw(st.sampled_from(SPEC_KEYS))
        if draw(st.booleans()):
            spec.pop(key, None)
        else:
            spec[key] = draw(SPEC_VALUES)
    elif target == "field":
        section, key = draw(st.sampled_from(sorted(FIELDS)))
        data[section][key] = draw(FIELDS[section, key])
    if target == "tuple" or draw(st.booleans()):
        count = draw(st.sampled_from([width] * 4 + [width - 1, width + 1]))
        exprs = draw(st.lists(group_element(labels, n), min_size=count, max_size=count))
        if draw(st.booleans()):
            k = draw(st.integers(0, len(exprs) - 1))
            bad = draw(BAD_ELEMENTS)
            exprs[k] = draw(st.sampled_from([bad, f"{exprs[k]}*{bad}", f"{bad}*{exprs[k]}"]))
        return data, ("eval-cocycle", "--tuple", *exprs)
    return data, draw(st.sampled_from(FUZZ_COMMANDS[1:]))


def run_mutated(data, command):
    """Run the CLI on ``data`` written to a scenario file: (exit code, report)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.json"
        path.write_text(json.dumps(data))
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()) as out:
            warnings.simplefilter("ignore")
            code = cli.main([*command, "--scenario", str(path)])
    return code, json.loads(out.getvalue())


class TestLoaderFuzz:
    @given(mutated_scenario())
    @settings(max_examples=150, deadline=2000)
    def test_exit_code_contract(self, case):
        code, report = run_mutated(*case)
        assert code in (0, 1, 2)
        assert ("error" in report) == (code == 2)

    @given(mutated_inputs())
    @settings(max_examples=150, deadline=2000)
    def test_exit_code_contract_specs_fields_tuples(self, case):
        code, report = run_mutated(*case)
        assert code in (0, 1, 2)
        assert ("error" in report) == (code == 2)


class TestSubprocess:
    def test_module_runs(self):
        proc = run_proc("eval-cocycle", "--scenario", R2, "--tuple", "T1", "T2")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["checks"][0]["value"] == "1/2"

    def test_console_script_installed(self, tmp_path):
        exe = console_script("cocycle-forge", tmp_path)
        proc = subprocess.run(
            [exe, "build-cocycle", "--scenario", R1],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_byte_identical_reruns(self):
        first = run_proc("check-calculus", "--scenario", R1)
        second = run_proc("check-calculus", "--scenario", R1)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_seed_changes_report(self):
        base = run_proc("stokes-check", "--scenario", R1)
        reseeded = run_proc("stokes-check", "--scenario", R1, "--seed", "123")
        assert base.stdout != reseeded.stdout
        assert json.loads(reseeded.stdout)["seed"] == 123
