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
from cocycle_forge.diffeo import GroupPresentation
from cocycle_forge.scenario import MAX_DEGREE_CAP, MAX_DIMENSION, MAX_SAMPLES, MAX_WORD_LENGTH
from cocycle_forge.serialize import MAX_POLY_EXPONENT

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"
R1 = str(SCENARIO_DIR / "r1_line.json")
R2 = str(SCENARIO_DIR / "r2_area.json")
R3 = str(SCENARIO_DIR / "r3_volume.json")
R4 = str(SCENARIO_DIR / "r4_symplectic.json")


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def r3_loop_scenario(tmp_path):
    """r3 over a triangle loop; returns its path."""
    data = json.loads(Path(R3).read_text())
    corners = [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]]
    data["cycle"] = {
        "dim": 1,
        "simplices": [
            {"coeff": "1", "verts": [corners[k], corners[(k + 1) % 3]]} for k in range(3)
        ],
    }
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(data))
    return str(path)


def explicit_shear(n):
    """x1 -> x1 + x2^2 on R^n, written as an explicit generator labelled e."""

    def mono(axis, power=1):
        return [power if j == axis else 0 for j in range(n)]

    def side(coeff):
        head = [{"exps": mono(0), "coeff": "1"}, {"exps": mono(1, 2), "coeff": coeff}]
        return [head] + [[{"exps": mono(i), "coeff": "1"}] for i in range(1, n)]

    return {"type": "explicit", "forward": side("1"), "inverse": side("-1"), "label": "e"}


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

    @pytest.mark.parametrize(
        "dim, form, generator, tuple_",
        [
            # x dx on R^1 under x -> -x; T(1) moves it to (x+1) dx
            (1, [{"idx": [1], "poly": [{"exps": [1], "coeff": "1"}]}],
             {"type": "linear", "matrix": [["-1"]], "label": "neg"}, ["T(1)"]),
            # x dx^dy on R^2 under T2; T(1,0) moves it to (x+1) dx^dy
            (2, [{"idx": [1, 2], "poly": [{"exps": [1, 0], "coeff": "1"}]}],
             {"type": "translation", "vector": ["0", "1"], "label": "T2"}, ["T(1,0)", "T2"]),
        ],
        ids=["r1-reflection", "r2-translation"],
    )
    def test_translation_outside_the_group_refused(
        self, capsys, tmp_path, dim, form, generator, tuple_
    ):
        data = {
            "dimension": dim,
            "forms": [{"name": "w", "form": {"dim": dim, "degree": dim, "components": form}}],
            "group": {"generators": [generator]},
            "cycle": {"dim": 0, "simplices": [{"coeff": "1", "verts": [["0"] * dim]}]},
        }
        path = tmp_path / "not_invariant.json"
        path.write_text(json.dumps(data))
        code, report = run_main(
            capsys, "eval-cocycle", "--scenario", str(path), "--tuple", *tuple_
        )
        assert code == 2
        assert report["error"]["type"] == "InvarianceError"
        assert report["error"]["message"].startswith(f"generator {tuple_[0]} does not preserve")


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

    def test_seed_override(self, capsys):
        def b_tuples(*flags):
            code, report = run_main(
                capsys, "check-triviality", "--scenario", R2,
                "--subgroup", "stabilizer", "--samples", "2", *flags,
            )
            assert code == 0
            return report, [v["tuple"] for v in report["checks"][0]["b_values"]]

        base, base_tuples = b_tuples()
        same, _ = b_tuples("--seed", "7")  # the scenario's own seed
        assert same == base
        reseeded, tuples = b_tuples("--seed", "99")
        assert reseeded["seed"] == 99
        assert tuples[1] == ["id*rot90^-1*rot90^-1"] != base_tuples[1]

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


def _singular_rot90(data):
    data["group"]["generators"][2]["matrix"] = [["1", "2"], ["2", "4"]]


def _sigma_on_x1(data):
    data["group"]["generators"][3]["poly"] = [{"exps": [1, 0], "coeff": "1"}]


def _form_as_string(data):
    data["forms"][0]["form"] = "dx1^dx2"


def _form_without_components(data):
    del data["forms"][0]["form"]["components"]


def _samples_over_cap(data):
    data["verify"]["samples"] = MAX_SAMPLES + 1


class TestExitCodes:
    @pytest.mark.parametrize(
        "flags, edit, message",
        [
            (["--samples", "-1"], None, "samples must be an integer >= 0, got -1"),
            (
                ["--samples", str(MAX_SAMPLES + 1)],
                None,
                f"samples may be at most {MAX_SAMPLES}, got {MAX_SAMPLES + 1}",
            ),
            (
                [],
                _samples_over_cap,
                f"samples may be at most {MAX_SAMPLES}, got {MAX_SAMPLES + 1}",
            ),
            (["--degree-cap", "0"], None, "degree_cap must be an integer >= 1, got 0"),
            ([], _singular_rot90, "matrix for rot90 is singular"),
            ([], _sigma_on_x1, "shear polynomial may not involve x1"),
            ([], _form_as_string, "form must be an object"),
            (
                [],
                _form_without_components,
                "form needs dim, degree, components: 'components'",
            ),
        ],
        ids=[
            "negative-samples",
            "samples-flag-over-cap",
            "samples-field-over-cap",
            "zero-degree-cap",
            "singular-matrix",
            "shear-on-own-axis",
            "form-not-object",
            "form-missing-key",
        ],
    )
    def test_refusal_error_object(self, capsys, tmp_path, flags, edit, message):
        scenario = R2
        if edit is not None:
            data = json.loads(Path(R2).read_text())
            edit(data)
            path = tmp_path / "refused.json"
            path.write_text(json.dumps(data))
            scenario = str(path)
        code, report = run_main(capsys, "build-cocycle", "--scenario", scenario, *flags)
        assert code == 2
        assert report["error"] == {"type": "ScenarioError", "message": message}

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

    def test_eval_forms_no_product_for_the_cap_to_refuse(self, capsys):
        # the value is read at the homotopy centre, so sigma*sigma (degree
        # 4 > 2), which a full top d' would merge, is never formed
        argv = ["eval-cocycle", "--scenario", R2, "--degree-cap", "2", "--tuple", "sigma", "sigma"]
        code, report = run_main(capsys, *argv)
        assert code == 0
        assert report["checks"][0]["value"] == "0"

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-triviality", "--subgroup", "stabilizer", "--samples", "5"],
            ["check-cocycle-identity", "--samples", "60"],
        ],
    )
    def test_product_of_sampled_words_over_the_cap_ends_the_command(self, capsys, argv):
        # each sampled word stays under the cap, but a product that a check
        # forms from two of them is not retried
        code, report = run_main(capsys, *argv, "--scenario", R2, "--degree-cap", "4")
        assert code == 2
        error = report["error"]
        assert error["type"] == "DegreeCapExceededError"
        assert "above the cap 4" in error["message"]
        assert "sample_words" not in error["message"]

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

    @pytest.mark.parametrize("where", ["explicit", "shear", "form", "spread"])
    def test_huge_polynomial_exponent_is_config_error_in_bounded_time(self, tmp_path, where):
        # y^(10^12): expanding its powers in the inverse or invariance
        # check would not end.  x1^24 x2^24 x3^24 x4^24 has no exponent
        # above the cap, but its pullback along T(1,1,1,1) has 25^4 terms.
        spread = where == "spread"
        data = json.loads(Path(R4 if spread else R2).read_text())
        huge = {"exps": [24] * 4 if spread else [0, 10**12], "coeff": "1"}
        if where in ("form", "spread"):
            data["forms"][0]["form"]["components"][0]["poly"].append(huge)
            if spread:
                data["group"]["generators"].append(
                    {"type": "translation", "vector": ["1"] * 4, "label": "T1111"}
                )
        elif where == "shear":
            data["group"]["generators"].append(
                {"type": "shear", "axis": 1, "poly": [huge], "label": "h"}
            )
        else:
            spec = explicit_shear(2)
            spec["forward"][0][1] = huge
            spec["inverse"][0][1] = dict(huge, coeff="-1")
            data["group"]["generators"].append(spec)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        proc = run_proc("build-cocycle", "--scenario", str(path), timeout=30)
        assert proc.returncode == 2, proc.stderr
        report = json.loads(proc.stdout)
        assert report["error"]["type"] == "ScenarioError"
        assert report["error"]["message"] == (
            f"exponent vector {huge['exps']} has total degree above {MAX_POLY_EXPONENT}"
        )

    def test_huge_dimension_is_config_error_in_bounded_time(self, tmp_path):
        # random forms on R^30 would walk all C(30, k) index tuples
        n = 30
        data = {
            "dimension": n,
            "forms": [{"name": "dx1", "form": {
                "dim": n, "degree": 1,
                "components": [{"idx": [1], "poly": [{"exps": [0] * n, "coeff": "1"}]}],
            }}],
            "group": {"generators": [
                {"type": "translation", "vector": ["1"] + ["0"] * (n - 1), "label": "T1"}
            ]},
            "cycle": {"dim": 0, "simplices": [{"coeff": "1", "verts": [["0"] * n]}]},
        }
        path = tmp_path / "r30.json"
        path.write_text(json.dumps(data))
        for command in ("check-calculus", "stokes-check", "check-fgamma"):
            proc = run_proc(command, "--scenario", str(path), "--samples", "1", timeout=30)
            assert proc.returncode == 2, proc.stderr
            assert json.loads(proc.stdout)["error"] == {
                "type": "ScenarioError",
                "message": f"dimension must be an integer in 1..{MAX_DIMENSION}, got {n}",
            }

    @pytest.mark.parametrize(
        "content, reason",
        [
            (b"\xff\xfe" + json.dumps({"dimension": 2}).encode("utf-16-le"), "codec can't decode"),
            (b'{"name": ' + b"[" * 200_000, "maximum recursion depth exceeded"),
        ],
        ids=["utf-16-bytes", "deep-nesting"],
    )
    def test_unreadable_scenario_is_config_error(self, capsys, tmp_path, content, reason):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, report = run_main(capsys, "build-cocycle", "--scenario", str(path))
        assert code == 2
        assert report["error"]["type"] == "ScenarioError"
        assert report["error"]["message"].startswith(f"scenario {path} is not valid JSON: ")
        assert reason in report["error"]["message"]

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

    def test_descent_key_is_config_error(self, capsys, tmp_path):
        # the depth is always m - 1 and cannot be set
        data = json.loads(Path(R2).read_text())
        data["descent"] = {"p": 1}
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(data))
        code, report = run_main(capsys, "build-cocycle", "--scenario", str(path))
        assert code == 2
        assert report["pass"] is False
        assert report["error"] == {
            "type": "ScenarioError",
            "message": "unknown scenario keys: ['descent']",
        }

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

    def test_huge_integer_literal_in_scenario_is_config_error(self, capsys, tmp_path):
        # json.load refuses an int literal past the 4300-digit str limit
        # with a plain ValueError, not a JSONDecodeError
        text = Path(R1).read_text()
        assert '"seed": 5' in text
        path = tmp_path / "huge_seed.json"
        path.write_text(text.replace('"seed": 5', '"seed": 1' + "0" * 4999))
        code, report = run_main(capsys, "build-cocycle", "--scenario", str(path))
        assert code == 2
        assert report["error"]["type"] == "ScenarioError"
        assert report["error"]["message"].startswith(f"scenario {path} is not valid JSON: ")

    def test_unprintable_translation_label_is_named_error(self, capsys):
        # 10**4300 has 4301 digits, one past the str limit, so T(...) cannot be named
        code, report = run_main(
            capsys, "eval-cocycle", "--scenario", R2, "--tuple", "T(1e4300,0)", "T2"
        )
        assert code == 2
        assert report["error"]["type"] == "ValueTooLargeError"

    @pytest.mark.parametrize(
        "command, check",
        [
            ("check-closed-form", "translation_closed_form"),
            ("check-cocycle-identity", "point_cycle_independence"),
            ("build-cocycle", "descent_build"),
            ("eval-cocycle", "eval_cocycle"),
            ("check-triviality", "coboundary_on_linear_stabilizer"),
            ("check-calculus", "ext_d_squared_zero"),
            ("stokes-check", "stokes_exact"),
            ("check-fgamma", "point_cycle_identity_on_constants"),
        ],
    )
    @pytest.mark.parametrize("samples", ["0", "2"])
    def test_point_checks_refuse_shallow_descent(self, capsys, tmp_path, command, check, samples):
        # The descent runs to p = m - 1 only and pairs with points.  r3
        # reaches `check`; a copy over the loop a shallower depth would
        # need is refused at load instead, whatever the command and the
        # sample count.
        argv = [command, "--samples", samples]
        if command == "eval-cocycle":
            argv += ["--tuple", "T1", "T2", "T3"]
        code, report = run_main(capsys, *argv, "--scenario", R3)
        assert code == 0
        assert check in [c["name"] for c in report["checks"]]
        code, report = run_main(capsys, *argv, "--scenario", r3_loop_scenario(tmp_path))
        assert code == 2
        assert report["error"] == {
            "type": "ScenarioError",
            "message": "the cycle must be a 0-chain of points, got a 1-chain",
        }

    @pytest.mark.parametrize(
        "edit, argv, message",
        [
            (
                "weighted_form",
                ["check-closed-form"],
                "the closed-form comparison needs a constant-coefficient form",
            ),
            (
                "weighted_form",
                ["check-triviality"],
                "linear-subgroup sampling needs a constant-coefficient form",
            ),
            (
                "moved_point",
                ["check-triviality", "--subgroup", "linear"],
                "the cycle is not fixed by origin-fixing linear maps; "
                "use a point cycle at the origin or subgroup=stabilizer",
            ),
        ],
    )
    def test_checks_refuse_what_they_cannot_compare(self, capsys, tmp_path, edit, argv, message):
        # (1 + 3y^2) dx^dy is preserved by T1 and the shear sigma, but its
        # coefficient is not constant; a point at (7, 9) is moved by linear maps
        data = json.loads(Path(R2).read_text())
        if edit == "weighted_form":
            data["forms"][0]["form"]["components"][0]["poly"] = [
                {"exps": [0, 0], "coeff": "1"},
                {"exps": [0, 2], "coeff": "3"},
            ]
            gens = data["group"]["generators"]
            data["group"]["generators"] = [g for g in gens if g["label"] in ("T1", "sigma")]
        else:
            data["cycle"]["simplices"][0]["verts"] = [["7", "9"]]
        path = tmp_path / f"{edit}.json"
        path.write_text(json.dumps(data))
        code, report = run_main(capsys, *argv, "--scenario", str(path))
        assert code == 2
        assert report["error"] == {"type": "ScenarioError", "message": message}

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


def edited_r2(tmp_path, edit):
    """r2 with ``edit`` applied to its JSON, written to a file; returns the path."""
    data = json.loads(Path(R2).read_text())
    edit(data)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestFlagsThroughLoader:
    """--samples, --seed and --degree-cap are read by the loader's verify rules."""

    def test_degree_cap_flag_over_cap(self, capsys):
        flags = ["--degree-cap", str(MAX_DEGREE_CAP + 1)]
        code, report = run_main(capsys, "build-cocycle", "--scenario", R2, *flags)
        assert code == 2
        assert report["error"] == {
            "type": "ScenarioError",
            "message": f"degree_cap may be at most {MAX_DEGREE_CAP}, got {MAX_DEGREE_CAP + 1}",
        }

    def test_bad_file_value_refused_under_flag(self, capsys, tmp_path):
        path = edited_r2(tmp_path, lambda d: d["verify"].update(samples="abc"))
        code, report = run_main(capsys, "build-cocycle", "--scenario", path, "--samples", "5")
        assert code == 2
        assert report["error"] == {
            "type": "ScenarioError",
            "message": "samples must be an integer >= 0, got 'abc'",
        }

    def test_file_fault_reported_before_flag_fault(self, capsys, tmp_path):
        path = edited_r2(tmp_path, lambda d: d.update(name=7))
        code, report = run_main(capsys, "build-cocycle", "--scenario", path, "--samples", "-1")
        assert code == 2
        assert report["error"] == {
            "type": "ScenarioError",
            "message": "scenario name must be a string",
        }

    def test_degree_cap_flag_builds_group_once(self, capsys, monkeypatch):
        built = []
        init = GroupPresentation.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("degree_cap"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(GroupPresentation, "__init__", counting)
        code, report = run_main(capsys, "build-cocycle", "--scenario", R2, "--degree-cap", "8")
        assert code == 0
        assert report["degree_cap"] == 8
        assert built == [8]


# (argv, the argument its refusal names)
ARGUMENT_REFUSALS = [
    (["check-calculus", "--scenario", R2, "--samples", "abc"], "--samples"),
    (["check-calculus"], "--scenario"),
    (["bogus", "--scenario", R2], "command"),
    (["check-triviality", "--scenario", R2, "--subgroup", "nope"], "--subgroup"),
    (["build-cocycle", "--scenario", R2, "--bogus"], "--bogus"),
]


class TestArgumentRefusals:
    @pytest.mark.parametrize(
        "argv, argument",
        ARGUMENT_REFUSALS,
        ids=[
            "samples-not-int", "no-scenario", "unknown-command", "unknown-subgroup", "unknown-flag"
        ],
    )
    def test_refusal_prints_failure_document(self, capsys, argv, argument):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        report = json.loads(capsys.readouterr().out)
        assert report["command"] is None and report["scenario"] is None
        assert report["pass"] is False
        assert report["error"]["type"] == "ScenarioError"
        assert argument in report["error"]["message"]

    def test_refusal_through_module(self):
        proc = run_proc("check-calculus", "--scenario", R2, "--samples", "abc")
        assert proc.returncode == 2
        assert proc.stdout.count("\n") == 1
        assert json.loads(proc.stdout)["error"]["type"] == "ScenarioError"

    def test_help_prints_text_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: cocycle-forge")


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
# slowly on r2 for the deadline.  dimension is drawn likewise from these or
# from above MAX_DIMENSION.
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
    ("", "dimension"): st.one_of(SMALL_FIELD_VALUES, st.integers(MAX_DIMENSION + 1, 10**6)),
    ("", "descent"): SMALL_FIELD_VALUES,
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
    """r2 or r3, plus an explicit generator, with one generator spec, one
    verify field, the dimension, a descent key or the --tuple of
    eval-cocycle changed."""
    name, n = draw(st.sampled_from([("r2_area", 2), ("r3_volume", 3)]))
    data = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    data["group"]["generators"].append(explicit_shear(n))
    labels = [g["label"] for g in data["group"]["generators"]]
    width = data["forms"][0]["form"]["degree"]
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
        (data[section] if section else data)[key] = draw(FIELDS[section, key])
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
