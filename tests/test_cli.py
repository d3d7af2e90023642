import hashlib
import importlib.metadata
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from anovabf import datasets, simulation
from anovabf.cli import _jsonify, entry_point, run, write_csv
from anovabf.datasets import ONE_WAY_HEADER, TWO_WAY_HEADER
from anovabf.errors import DomainError

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

ONE_WAY_CSV = "level,value\n1,1.0\n1,1.0\n2,2.0\n2,2.0\n"
TWO_WAY_CSV = (
    "a,b,value\n"
    "a1,b1,0.0\na1,b1,0.2\n"
    "a1,b2,5.0\na1,b2,5.2\n"
    "a2,b1,5.1\na2,b1,4.9\n"
    "a2,b2,0.1\na2,b2,-0.1\n"
)
# 3x2 cells, r = 3, rows interleaved across cells; labels first appear
# out of sorted order (a2 before a1, b2 before b1)
TWO_WAY_SHUFFLED_CSV = (
    "a,b,value\n"
    "a2,b2,3.1\na1,b1,0.4\na3,b2,-1.2\na2,b1,2.2\na1,b2,1.7\na3,b1,0.9\n"
    "a1,b1,0.8\na3,b1,1.3\na2,b2,2.6\na1,b2,1.1\na3,b2,-0.7\na2,b1,2.9\n"
    "a3,b2,-1.5\na2,b1,2.0\na1,b2,1.4\na2,b2,3.3\na3,b1,0.5\na1,b1,0.1\n"
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def load_toml(path):
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(path, "rb") as fh:
        return tomllib.load(fh)


def run_json(capsys, argv):
    assert run(argv) == 0
    return json.loads(capsys.readouterr().out)


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["frobnicate"],
            ["bf", "one-way"],
            ["bf", "one-way", "--input", "x.csv", "--wat"],
            ["bf", "one-way", "--input", "x.csv", "--json", "--csv"],
            ["oracle", "check", "--p", "3", "--r", "2"],
            ["simulate", "--truth", "bogus", "--p", "2", "--r", "2"],
            ["simulate", "--truth", "m1", "--p", "2", "--r", "2", "--ca", "1"],
            ["simulate", "--truth", "ma1", "--p", "2", "--r", "2", "--criteria", "fb,bogus"],
            ["simulate", "--truth", "ma1", "--p", "2", "--r", "2", "--ca", "1", "--ca", "1.0"],
        ],
    )
    def test_rejected_with_code_two(self, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2


class TestRuntimeErrors:
    def test_missing_input_file(self, capsys):
        assert run(["bf", "one-way", "--input", "/no/such/file.csv"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unbalanced_data(self, tmp_path, capsys):
        path = write(tmp_path, "bad.csv", "level,value\n1,1.0\n1,2.0\n2,3.0\n")
        assert run(["bf", "one-way", "--input", path]) == 1
        assert "error:" in capsys.readouterr().err

    def test_constant_data(self, tmp_path, capsys):
        path = write(tmp_path, "flat.csv", "level,value\n1,5.0\n1,5.0\n2,5.0\n2,5.0\n")
        assert run(["bf", "one-way", "--input", path]) == 1
        assert "error:" in capsys.readouterr().err

    def test_undecodable_input(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"level,value\na,1\na,\xff2\nb,3\nb,4\n")
        assert run(["bf", "one-way", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "byte offset 18" in err
        assert "Traceback" not in err

    def test_field_over_csv_limit(self, tmp_path, capsys):
        path = write(tmp_path, "long.csv", "level,value\na,1\n" + "b" * 131073 + ",2\n")
        assert run(["bf", "one-way", "--input", path]) == 1
        err = capsys.readouterr().err
        assert err == "error: line 3: field larger than field limit (131072)\n"

    @pytest.mark.parametrize(
        "grid",
        [
            ["--p", "3", "--p", "3", "--r", "2"],
            ["--p", "3", "--r", "2", "--r", "2"],
            ["--p", "3", "--r", "2", "--criteria", "fb,FB"],
        ],
        ids=["p", "r", "criteria"],
    )
    def test_duplicate_grid_values(self, grid, capsys):
        assert run(["simulate", "--truth", "ma1", "--ca", "1", "--reps", "5", *grid]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "duplicate" in err
        assert "Traceback" not in err and "Criterion" not in err


    @pytest.mark.parametrize(
        "argv,field",
        [
            (["oracle", "check", "--p", "3", "--r", "2", "--ratio", "0.5", "--b", "inf"], "b"),
            (["simulate", "--truth", "ma1", "--p", "2", "--r", "2", "--ca", "nan"], "c_a"),
            (["simulate", "--truth", "ma1", "--p", "2", "--r", "2", "--ca", "inf"], "c_a"),
            (["consistency", "two-way", "--r", "2", "--ca", "nan"], "c_a"),
            (["consistency", "mse-gap", "--p", "2", "--r", "2", "--effect", "nan"], "effect"),
            (["consistency", "mse-gap", "--p", "2", "--r", "2", "--effect", "inf"], "effect"),
        ],
        ids=[
            "oracle-b-inf",
            "simulate-ca-nan",
            "simulate-ca-inf",
            "consistency-ca-nan",
            "mse-gap-effect-nan",
            "mse-gap-effect-inf",
        ],
    )
    def test_non_finite_parameter_named(self, argv, field, capsys):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f" {field} must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["oracle", "check", "--p", "3", "--r", "2", "--ratio", "0.5", "--b", "1e20"],
                "beta-prime prior a=-0.5, b=1e+20",
            ),
            (
                ["oracle", "check", "--p", "3", "--r", "2", "--ratio", "0.5", "--b", "1e300"],
                "beta-prime prior a=-0.5, b=1e+300",
            ),
            (
                ["oracle", "check", "--p", "3", "--r", "2", "--ratio", "nan"],
                "ratio must be in (0, 1], got nan",
            ),
            (
                ["oracle", "check", "--p", "3", "--r", "2", "--ratio", "0.5",
                 "--a", "1e300", "--b", "1e300"],
                "beta-prime prior a=1e+300, b=1e+300",
            ),
            (
                ["oracle", "check", "--p", "3", "--r", "2", "--ratio", "0.5", "--b", "1e10"],
                "beta-prime prior a=-0.5, b=10000000000.0",
            ),
            (
                ["simulate", "--truth", "ma1", "--p", str(2**40), "--r", str(2**40),
                 "--ca", "1", "--reps", "1"],
                f"cell (p={2**40}, r={2**40})",
            ),
            (
                ["simulate", "--truth", "ma1", "--p", "3", "--r", "2", "--ca", "1e308",
                 "--reps", "5"],
                "replication 0 at (p=3, r=2, seed=0) has a sum of squares that is not finite",
            ),
            (
                ["simulate", "--truth", "ma1", "--p", "3", "--r", "2", "--ca", "0.5",
                 "--ca", "1e308", "--reps", "5"],
                "replication 0 at (p=3, r=2, seed=0) has a sum of squares that is not finite"
                " (c_a=1e+308)",
            ),
            (
                ["consistency", "h", "--r", str(10**400)],
                "replication count r must fit a double, got a 1329-bit integer",
            ),
            (
                ["consistency", "two-way", "--r", str(10**400)],
                "replication count r must fit a double, got a 1329-bit integer",
            ),
            (
                ["oracle", "check", "--p", str(10**400), "--r", "2", "--ratio", "0.5"],
                "observation count n must fit a double, got a 1330-bit integer",
            ),
            (
                # the design, not the prior built from it, is at fault
                ["oracle", "check", "--p", "3", "--r", "1", "--ratio", "0.5"],
                "need n > p_alt, got n=3, p_alt=3",
            ),
        ],
        ids=[
            "oracle-b-1e20",
            "oracle-b-1e300",
            "oracle-ratio-nan",
            "oracle-a-b-1e300",
            "oracle-b-1e10",
            "simulate-cell-2**80",
            "simulate-ca-1e308",
            "simulate-second-ca-1e308",
            "consistency-h-r-10**400",
            "consistency-two-way-r-10**400",
            "oracle-p-10**400",
            "oracle-n-equals-p",
        ],
    )
    def test_single_error_line(self, argv, message, capsys, recwarn):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not recwarn.list

    def test_nan_refused_on_output(self):
        with pytest.raises(DomainError, match="refusing to emit NaN"):
            _jsonify({"report": [1.0, math.nan]})


class TestBayesFactorCommand:
    def test_one_way_json_document(self, tmp_path, capsys):
        path = write(tmp_path, "d.csv", ONE_WAY_CSV)
        doc = run_json(capsys, ["bf", "one-way", "--input", path, "--json"])
        assert (doc["design"], doc["p"], doc["r"], doc["n"]) == ("one-way", 2, 2, 4)
        assert doc["sums_of_squares"]["w_e"] == 0.0
        assert doc["report"]["log_bf_fb"] == "inf"
        assert doc["report"]["choice_fb"] == "A+1"
        assert doc["report"]["posterior_prob_fb"] == 1.0

    def test_json_is_default(self, tmp_path, capsys):
        path = write(tmp_path, "d.csv", ONE_WAY_CSV)
        assert run(["bf", "one-way", "--input", path]) == 0
        default_out = capsys.readouterr().out
        assert run(["bf", "one-way", "--input", path, "--json"]) == 0
        assert capsys.readouterr().out == default_out

    def test_one_way_csv_mode(self, tmp_path, capsys):
        path = write(tmp_path, "d.csv", ONE_WAY_CSV)
        assert run(["bf", "one-way", "--input", path, "--csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        header = "model,log_bf_fb,log_bf_bic,posterior_prob_fb,choice_fb,choice_bic,ss_ratio"
        assert lines[0] == header
        assert len(lines) == 2
        assert lines[1].startswith("A+1,inf,")

    def test_two_way_json_document(self, tmp_path, capsys):
        path = write(tmp_path, "d.csv", TWO_WAY_CSV)
        doc = run_json(capsys, ["bf", "two-way", "--input", path, "--json"])
        assert (doc["design"], doc["p"], doc["q"], doc["r"]) == ("two-way", 2, 2, 2)
        assert set(doc["reports"]) == {"A+1", "B+1", "A+B+1", "(A+1)(B+1)"}
        assert doc["reports"]["(A+1)(B+1)"]["choice_fb"] == "(A+1)(B+1)"
        ranking = doc["ranking_fb"]
        assert len(ranking) == 5
        assert ranking[0][0] == "(A+1)(B+1)"
        assert ["1", 0.0] in ranking

    def test_output_file_with_manifest(self, tmp_path):
        path = write(tmp_path, "d.csv", ONE_WAY_CSV)
        out = tmp_path / "report.json"
        assert run(["bf", "one-way", "--input", path, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["report"]["choice_fb"] == "A+1"
        manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
        assert manifest["subcommand"] == "bf one-way"
        assert "timestamp" in manifest and "version" in manifest


class TestDataScale:
    """``bf`` gives the unit-scale log factors at any data scale; sums of
    squares beyond the range of a double render as "inf"."""

    rng = np.random.default_rng(31)
    values = rng.normal(scale=0.3, size=(6, 4, 1)) + rng.normal(size=(6, 4, 5))

    def bf(self, tmp_path, capsys, layout, scale):
        # one-way: level i of the first axis; two-way: cell (i, j)
        header, factors = (ONE_WAY_HEADER, 1) if layout == "one-way" else (TWO_WAY_HEADER, 2)
        rows = [
            (*(f"{name}{i}" for name, i in zip("ab", index[:factors])), repr(float(v)))
            for index, v in np.ndenumerate(self.values * scale)
        ]
        path = write(tmp_path, f"{layout}-{scale}.csv", write_csv(header, rows))
        return run_json(capsys, ["bf", layout, "--input", path, "--json"])

    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200])
    @pytest.mark.parametrize("layout", ["one-way", "two-way"])
    def test_log_factors_and_sums(self, layout, scale, tmp_path, capsys):
        base = self.bf(tmp_path, capsys, layout, 1.0)
        doc = self.bf(tmp_path, capsys, layout, scale)
        reports = [(doc["report"], base["report"])] if layout == "one-way" else [
            (doc["reports"][m], report) for m, report in base["reports"].items()
        ]
        for got, want in reports:
            for key in ("log_bf_fb", "log_bf_bic", "ss_ratio"):
                assert got[key] == pytest.approx(want[key], rel=1e-9, abs=1e-9)
        sums = doc["sums_of_squares"].values()
        if scale > 1:
            assert set(sums) == {"inf"}
        else:
            assert all(0.0 <= w < 1e-300 for w in sums)


class TestOracleCommand:
    def test_closed_form_agreement(self, capsys):
        doc = run_json(capsys, ["oracle", "check", "--p", "3", "--r", "2", "--ratio", "0.5"])
        assert doc["prior_matches_closed_form"] is True
        assert doc["within_tolerance"] is True
        assert doc["relative_difference"] < 1e-8
        assert doc["closed_form_log_bf"] == pytest.approx(math.log(2.0 / 3.0), abs=1e-9)
        assert doc["quadrature_log_bf"] == pytest.approx(math.log(2.0 / 3.0), abs=1e-9)

    def test_off_closure_prior_reports_no_verdict(self, capsys):
        doc = run_json(
            capsys,
            ["oracle", "check", "--p", "3", "--r", "2", "--ratio", "0.5", "--b", "3.0"],
        )
        assert doc["prior_matches_closed_form"] is False
        assert doc["relative_difference"] is None
        assert doc["within_tolerance"] is None
        assert doc["quadrature_log_bf"] != pytest.approx(doc["closed_form_log_bf"], abs=1e-3)

    def test_log_bf_beyond_double_range(self, capsys):
        doc = run_json(capsys, ["oracle", "check", "--p", "50", "--r", "50", "--ratio", "0.5"])
        assert doc["within_tolerance"] is True
        assert doc["quadrature_log_bf"] == pytest.approx(728.5256, abs=1e-4)

    def test_peak_far_from_unit_scale(self, capsys):
        # the closed form is 0.118; a scan over t = g/(1+g) once returned 2.2e-234
        doc = run_json(
            capsys, ["oracle", "check", "--p", "2", "--r", "500000", "--ratio", "0.99999"]
        )
        assert doc["within_tolerance"] is True

    @pytest.mark.parametrize(
        "p,r,ratio", [("2", "2", "5e-324"), ("3", "2", "1e-300"), ("200", "5000", "1e-300")]
    )
    def test_ratio_near_the_smallest_double(self, p, r, ratio, capsys):
        # the mode's quadratic has a leading coefficient of the ratio's size;
        # at 5e-324 its plain root formula cannot locate the mode
        doc = run_json(capsys, ["oracle", "check", "--p", p, "--r", r, "--ratio", ratio])
        assert doc["within_tolerance"] is True

    @pytest.mark.parametrize("ratio", ["0.01", "0.3", "0.9", "0.99999"])
    @pytest.mark.parametrize("r", ["2", "70", "5000"])
    @pytest.mark.parametrize("p", ["2", "14", "200"])
    def test_verdict_across_the_design_range(self, p, r, ratio, capsys):
        # the corners of the oracle benchmark's domain; several factors lie
        # beyond +-709, where the linear scale overflows
        doc = run_json(capsys, ["oracle", "check", "--p", p, "--r", r, "--ratio", ratio])
        assert doc["within_tolerance"] is True


class TestConsistencyCommand:
    def test_threshold(self, capsys):
        doc = run_json(capsys, ["consistency", "h", "--r", "2"])
        assert doc == {"r": 2, "h": 1.0}

    def test_two_way_window(self, capsys):
        doc = run_json(capsys, ["consistency", "two-way", "--r", "2", "--cab", "3"])
        assert (doc["lower"], doc["signal"], doc["upper"]) == (2.0, 4.0, 8.0)
        assert doc["consistent"] is True

    @pytest.mark.parametrize(
        "argv", [["--r", "100000", "--cab", "0.5"], ["--r", "2", "--cab", "1e308"]]
    )
    def test_two_way_upper_beyond_a_double(self, argv, capsys):
        doc = run_json(capsys, ["consistency", "two-way", *argv])
        assert doc["upper"] == "inf"
        assert doc["consistent"] is True

    def test_mse_gap(self, capsys):
        doc = run_json(
            capsys, ["consistency", "mse-gap", "--p", "2", "--r", "2", "--effect", "1"]
        )
        assert doc["gap"] == 0.75

    def test_mse_gap_past_a_double(self, capsys):
        # (p - 1)/(p*r) is an exact integer division, so no count overflows
        argv = ["consistency", "mse-gap", "--p", str(10**400), "--r", "2", "--effect", "1"]
        assert run_json(capsys, argv)["gap"] == 0.5


class TestSimulateCommand:
    def test_stdout_csv(self, capsys):
        argv = [
            "simulate", "--truth", "m1", "--p", "2", "--r", "2",
            "--reps", "20", "--seed", "3", "--criteria", "fb",
        ]
        assert run(argv) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "criterion,truth,c_a,p,r,frequency,replications,seed"
        assert len(lines) == 2
        assert lines[1].split(",")[:3] == ["fb", "1", "0.0"]

    def test_repeatable_flags_make_a_grid(self, capsys):
        argv = [
            "simulate", "--truth", "ma1", "--p", "2", "--p", "3", "--r", "2",
            "--ca", "0.5", "--ca", "1.0", "--reps", "10", "--seed", "1",
            "--criteria", "fb",
        ]
        assert run(argv) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        # one header, then 2 effect sizes x 2 level counts
        assert len(lines) == 5
        assert sum(line.startswith("criterion") for line in lines) == 1
        effect_values = {line.split(",")[2] for line in lines[1:]}
        assert effect_values == {"0.5", "1.0"}

    def test_output_file_and_manifest(self, tmp_path):
        out = tmp_path / "freq.csv"
        argv = [
            "simulate", "--truth", "ma1", "--p", "2", "--r", "2", "--ca", "1",
            "--reps", "50", "--seed", "9", "--out", str(out),
        ]
        assert run(argv) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3
        manifest = json.loads((tmp_path / "freq.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "simulate"
        assert manifest["seed"] == 9
        assert manifest["parameters"]["truth"] == "A+1"


GOLDEN_INPUTS = {
    "one_way": ONE_WAY_CSV,
    "two_way": TWO_WAY_CSV,
    "two_way_shuffled": TWO_WAY_SHUFFLED_CSV,
    "one_way_noisy": (
        "level,value\n"
        "x,0.5\nx,1.7\nx,1.1\n"
        "y,2.0\ny,3.1\ny,2.2\n"
        "z,0.2\nz,1.0\nz,-0.4\n"
    ),
}

# argv -> SHA-256 of the exact stdout bytes; {name} stands for the path
# of the GOLDEN_INPUTS file of that name
GOLDEN_ARGV = {
    "bf-one-way-json": ["bf", "one-way", "--input", "{one_way}", "--json"],
    "bf-one-way-csv": ["bf", "one-way", "--input", "{one_way}", "--csv"],
    "bf-one-way-noisy-json": ["bf", "one-way", "--input", "{one_way_noisy}", "--json"],
    "bf-one-way-noisy-csv": ["bf", "one-way", "--input", "{one_way_noisy}", "--csv"],
    "bf-two-way-json": ["bf", "two-way", "--input", "{two_way}", "--json"],
    "bf-two-way-csv": ["bf", "two-way", "--input", "{two_way}", "--csv"],
    "bf-two-way-shuffled-json": ["bf", "two-way", "--input", "{two_way_shuffled}", "--json"],
    "bf-two-way-shuffled-csv": ["bf", "two-way", "--input", "{two_way_shuffled}", "--csv"],
    "oracle-closure": ["oracle", "check", "--p", "3", "--r", "2", "--ratio", "0.5"],
    "oracle-off-closure": [
        "oracle", "check", "--p", "3", "--r", "2", "--ratio", "0.5", "--a", "0", "--b", "0",
    ],
    "consistency-h": ["consistency", "h", "--r", "5"],
    "consistency-two-way": ["consistency", "two-way", "--r", "2", "--cab", "3"],
    "consistency-mse-gap": ["consistency", "mse-gap", "--p", "5", "--r", "10", "--effect", "0.5"],
    "simulate-ma1-grid": [
        "simulate", "--truth", "ma1", "--p", "2", "--p", "4", "--r", "2", "--r", "3",
        "--ca", "0.5", "--ca", "2", "--reps", "60", "--seed", "11",
    ],
    # effect sizes out of sorted order: rows follow the argv
    "simulate-ma1-ca-argv-order": [
        "simulate", "--truth", "ma1", "--p", "2", "--p", "4", "--r", "2", "--r", "3",
        "--ca", "1.0", "--ca", "0.5", "--reps", "60", "--seed", "11",
    ],
    "simulate-m1-bic": [
        "simulate", "--truth", "m1", "--p", "3", "--r", "2", "--r", "5",
        "--reps", "80", "--seed", "4", "--criteria", "bic",
    ],
}

GOLDEN_SHA256 = {
    "bf-one-way-json": "03ed5c19c07ddc3afea202e878170bfc13daa5a735d168d49d91f87dc1f400e6",
    "bf-one-way-csv": "4c78d1bbe981ed7d6583ce3ba6f791dd61c105f100bb24f9f1af911e4877b570",
    "bf-one-way-noisy-json": "7b7b216b7fa1c8889f3dc98e35330fdcc4cf9f67895d7704e6bfb22a026c8e42",
    "bf-one-way-noisy-csv": "69bf37702cd2a59bb0930dbb7808bc097751b5ccf47943e110ae7ae8a23c64d9",
    "bf-two-way-json": "49ef6ba2896b13b4eb71d0e87fa6387acce0b1005ddc4d63b3199d2a2d7fb985",
    "bf-two-way-csv": "320d8b272c35d40e122ee459515d76c2e84d7ab19d0f7b020221676dafaa72fe",
    "bf-two-way-shuffled-json": "795c49791c249d8562ae8109e53e8d0ea8f89e550f05a60d6953dabf69d3d115",
    "bf-two-way-shuffled-csv": "920d55491d953863235ae4a5058c1b75c3d8a7873854c669aeb39dbcdeabf7ef",
    "oracle-closure": "0b0143f55512675a775f99e10262a5d132241e48de2cfcdcf24179643882511e",
    "oracle-off-closure": "1c7a75168f9951399fba2ef8f37e27d093eb96cea7623d6ee5e0f0dd86be2b6e",
    "consistency-h": "a6823b28288b751efed1de943e23458defbaff9ed8fe919fa094eec0bb2055cf",
    "consistency-two-way": "dd01a7e31acb70bc5df1f87a3d059b45c1263a7519589446a6f184987811d920",
    "consistency-mse-gap": "3f63a72f4c59774a58eca6336bdf61813653be9aaac91d1a102e977d2ec6878a",
    "simulate-ma1-grid": "58cabd51ed57c4f6af49aacaa1f4d87035ad4a7a1093227612ebe886d8f609f1",
    "simulate-ma1-ca-argv-order": "47547cdbe939a5f7f7238c941fa68dd885edeb8e570a4b53b180997b7d25ded3",
    "simulate-m1-bic": "8823ac3d29626774d9b48780894de24a1eaabbf945fb6859215798cd55290d34",
}


class TestGoldenOutputs:
    """Exact output bytes of a fixed argv set, pinned across refactors."""

    @pytest.fixture
    def inputs(self, tmp_path):
        return {name: write(tmp_path, f"{name}.csv", text) for name, text in GOLDEN_INPUTS.items()}

    def stdout_bytes(self, capsys, argv):
        assert run(argv) == 0
        return capsys.readouterr().out.encode("utf-8")

    @pytest.mark.parametrize("case", sorted(GOLDEN_ARGV))
    def test_stdout_bytes(self, case, inputs, capsys):
        argv = [arg.format(**inputs) for arg in GOLDEN_ARGV[case]]
        digest = hashlib.sha256(self.stdout_bytes(capsys, argv)).hexdigest()
        assert digest == GOLDEN_SHA256[case]

    @pytest.mark.parametrize("case", ["bf-two-way-csv", "simulate-ma1-grid"])
    def test_out_file_equals_stdout(self, case, inputs, tmp_path, capsys):
        argv = [arg.format(**inputs) for arg in GOLDEN_ARGV[case]]
        out = tmp_path / "primary.out"
        assert run(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == self.stdout_bytes(capsys, argv)


class TestLargeInput:
    """``bf`` on files of more than two ``_FORK_CHARS``, which the columnar
    pass cuts into a range per CPU for forked processes to code."""

    @pytest.fixture(scope="class", params=["one-way", "two-way"])
    def large(self, request, tmp_path_factory):
        """The layout and the path of a balanced file of rows of 30 characters or more:
        one-way grouped by level, so that later levels first appear in a
        later range, and two-way interleaved across cells."""
        layout = request.param
        if layout == "one-way":
            header, cells = ONE_WAY_HEADER, [(f"group-{i:02d}-of-the-large-file",) for i in range(50)]
        else:
            header = TWO_WAY_HEADER
            cells = [(f"row-level-{i:02d}", f"column-level-{j}") for i in range(25) for j in range(4)]
        r = 2 * datasets._FORK_CHARS // (30 * len(cells)) + 1
        values = np.random.default_rng(7).normal(size=(len(cells), r)) + np.arange(len(cells))[:, None] % 3
        if layout == "one-way":
            rows = [(*cell, f"{v:.4f}") for cell, row in zip(cells, values) for v in row]
        else:
            rows = [(*cell, f"{v:.4f}") for column in values.T for cell, v in zip(cells, column)]
        text = write_csv(header, rows)
        assert len(text) > 2 * datasets._FORK_CHARS
        path = tmp_path_factory.mktemp("large") / f"{layout}.csv"
        path.write_text(text)
        return layout, str(path)

    def stdout(self, capsys, argv):
        assert run(argv) == 0
        return capsys.readouterr().out

    def test_same_stdout_with_and_without_forks(self, large, forks, no_children, monkeypatch, capsys):
        layout, path = large
        argv = ["bf", layout, "--input", path]
        monkeypatch.setattr(datasets, "_cpus", lambda: 2)
        forked = self.stdout(capsys, argv)
        assert len(forks) == 1
        no_children()
        monkeypatch.setattr(datasets, "_cpus", lambda: 1)
        assert self.stdout(capsys, argv) == forked
        assert len(forks) == 1

    def test_no_warning_under_w_always(self, large, child_env, capsys):
        # numpy's BLAS threads make os.fork warn from Python 3.12 on
        layout, path = large
        argv = ["bf", layout, "--input", path]
        proc = subprocess.run(
            [sys.executable, "-W", "always", "-m", "anovabf", *argv],
            capture_output=True,
            text=True,
            env=child_env,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout == self.stdout(capsys, argv)


class TestForkedSimulate:
    """``simulate`` on the benchmark's grid shape at a replication count of
    more than two ``_FORK_VALUES`` noise values, which runs in a part per
    CPU, all but the first in forked children."""

    ARGV = [
        "simulate", "--truth", "ma1", "--p", "10", "--p", "50", "--p", "100", "--r", "2",
        "--r", "5", "--ca", "0.5", "--ca", "1", "--reps", "2000", "--seed", "4294967311",
    ]

    def stdout(self, capfd):
        # captured at the file descriptor, where a child's writes would land too
        assert run(self.ARGV) == 0
        out, err = capfd.readouterr()
        assert err == ""
        return out

    def test_same_stdout_on_one_cpu_and_two(self, forks, no_children, monkeypatch, capfd):
        assert 2000 * (20 + 50 + 100 + 250 + 200 + 500) >= 2 * simulation._FORK_VALUES
        monkeypatch.setattr(simulation, "_cpus", lambda: 2)
        forked = self.stdout(capfd)
        assert len(forks) == 1
        no_children()
        assert forked.count("criterion,") == 1
        assert len(forked.splitlines()) == 1 + 2 * 2 * 3 * 2
        monkeypatch.setattr(simulation, "_cpus", lambda: 1)
        assert self.stdout(capfd) == forked
        assert len(forks) == 1

    def test_module_run_under_w_always(self, child_env, monkeypatch, capfd):
        proc = subprocess.run(
            [sys.executable, "-W", "always", "-m", "anovabf", *self.ARGV],
            capture_output=True,
            text=True,
            env=child_env,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        monkeypatch.setattr(simulation, "_cpus", lambda: 1)
        assert proc.stdout == self.stdout(capfd)


class TestInstalledEntryPoints:
    @pytest.mark.parametrize("preset, threads", [(None, "1"), ("4", "4")], ids=["unset", "preset"])
    def test_one_openblas_thread_unless_set(self, preset, threads, monkeypatch, capsys):
        # set first, so that the variable is restored to its state before the test
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset or "")
        if preset is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        monkeypatch.setattr(sys, "argv", ["anovabf", "consistency", "h", "--r", "2"])
        with pytest.raises(SystemExit) as leaving:
            entry_point()
        assert leaving.value.code == 0
        assert json.loads(capsys.readouterr().out) == {"r": 2, "h": 1.0}
        assert os.environ["OPENBLAS_NUM_THREADS"] == threads

    def test_module_invocation(self, child_env):
        proc = subprocess.run(
            [sys.executable, "-m", "anovabf", "consistency", "h", "--r", "5"],
            capture_output=True,
            text=True,
            env=child_env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["h"] == pytest.approx(0.49534878122122054)

    def test_console_script(self, tmp_path, child_env):
        # Runs the [project.scripts] target through the launcher that
        # installers write, so the check needs no installed package.
        target = load_toml(PYPROJECT)["project"]["scripts"]["anovabf"]
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr))
        installed = importlib.metadata.entry_points(group="console_scripts", name="anovabf")
        if installed:
            assert [ep.value for ep in installed] == [target]
        launcher = tmp_path / "anovabf"
        launcher.write_text(f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n")
        proc = subprocess.run(
            [sys.executable, str(launcher), "consistency", "h", "--r", "2"],
            capture_output=True,
            text=True,
            env=child_env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"r": 2, "h": 1.0}

    # prints the scipy modules loaded after importing the package and, when
    # argv is given, running the CLI on it in the same interpreter
    SCIPY_PROBE = (
        "import sys\n"
        "import anovabf.cli\n"
        "if sys.argv[1:]:\n"
        "    try:\n"
        "        anovabf.cli.run(sys.argv[1:])\n"
        "    except SystemExit:\n"
        "        pass\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'], file=sys.stderr)\n"
    )

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["--help"],
            ["bf", "one-way", "--input", "{input}"],
            ["simulate", "--truth", "ma1", "--p", "3", "--r", "2", "--ca", "1", "--reps", "20"],
            ["oracle", "check", "--p", "3", "--r", "2", "--ratio", "0.5"],
        ],
        ids=["import", "help", "bf-one-way", "simulate", "oracle"],
    )
    def test_scipy_not_imported(self, argv, tmp_path, child_env):
        argv = [arg.format(input=write(tmp_path, "d.csv", ONE_WAY_CSV)) for arg in argv]
        proc = subprocess.run(
            [sys.executable, "-c", self.SCIPY_PROBE, *argv],
            capture_output=True,
            text=True,
            env=child_env,
        )
        assert proc.stderr.splitlines()[-1] == "[]"

    def test_probe_sees_scipy_when_loaded(self, child_env):
        # the positive control of the probe above: scipy loaded beside the CLI
        pytest.importorskip("scipy.optimize")
        argv = ["oracle", "check", "--p", "3", "--r", "2", "--ratio", "0.5"]
        proc = subprocess.run(
            [sys.executable, "-c", "import scipy.optimize\n" + self.SCIPY_PROBE, *argv],
            capture_output=True,
            text=True,
            env=child_env,
        )
        loaded = proc.stderr.splitlines()[-1]
        assert "'scipy.optimize'" in loaded

    # prints the anovabf modules loaded, and whether numpy is, after running
    # the CLI on argv in the same interpreter
    LOAD_PROBE = (
        "import sys\n"
        "import anovabf.cli\n"
        "try:\n"
        "    anovabf.cli.run(sys.argv[1:])\n"
        "except SystemExit:\n"
        "    pass\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'anovabf')\n"
        "print(loaded, 'numpy' in sys.modules, file=sys.stderr)\n"
    )
    CLI_MODULES = ["anovabf", "anovabf.cli", "anovabf.errors"]

    def loaded(self, argv, env, before=""):
        proc = subprocess.run(
            [sys.executable, "-c", before + self.LOAD_PROBE, *argv],
            capture_output=True,
            text=True,
            env=env,
        )
        return proc.stderr.splitlines()[-1]

    @pytest.mark.parametrize(
        "argv, modules, numpy",
        [
            (["--help"], [], False),
            (["simulate", "--truth", "ma1"], [], False),
            (
                ["simulate", "--truth", "ma1", "--p", "3", "--r", "2", "--ca", "1", "--reps", "20"],
                ["_parallel", "bayes_factors", "simulation", "sums_of_squares"],
                True,
            ),
            (
                ["bf", "one-way", "--input", "{input}"],
                ["_parallel", "bayes_factors", "datasets", "sums_of_squares"],
                True,
            ),
            (
                ["oracle", "check", "--p", "3", "--r", "2", "--ratio", "0.5"],
                ["bayes_factors", "numerics", "prior"],
                True,
            ),
            (["consistency", "h", "--r", "5"], ["bayes_factors", "consistency", "numerics"], True),
        ],
        ids=["help", "usage-error", "simulate", "bf-one-way", "oracle", "consistency-h"],
    )
    def test_command_loads_only_what_it_runs(self, argv, modules, numpy, tmp_path, child_env):
        argv = [arg.format(input=write(tmp_path, "d.csv", ONE_WAY_CSV)) for arg in argv]
        expected = sorted(self.CLI_MODULES + [f"anovabf.{m}" for m in modules])
        assert self.loaded(argv, child_env) == f"{expected} {numpy}"

    def test_load_probe_sees_modules_loaded_beside_the_cli(self, child_env):
        # the positive control of the probe above: a module loaded before --help
        loaded = self.loaded(["--help"], child_env, before="import anovabf.prior\n")
        expected = sorted(self.CLI_MODULES + ["anovabf.numerics", "anovabf.prior"])
        assert loaded == f"{expected} True"

    def test_identical_runs_identical_bytes(self, child_env):
        argv = [
            sys.executable, "-m", "anovabf", "simulate", "--truth", "ma1",
            "--p", "3", "--r", "2", "--ca", "1", "--reps", "40", "--seed", "5",
        ]
        first = subprocess.run(argv, capture_output=True, env=child_env)
        second = subprocess.run(argv, capture_output=True, env=child_env)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
