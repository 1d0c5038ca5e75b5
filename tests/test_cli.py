"""CLI surface: exit codes, report schemas, precedence, determinism."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeboundary import (
    IDENTITY, CocycleInput, FreeGroup, LocallyConstantFunction, Truncation, chern, mul,
    word_to_str,
)
from treeboundary.cli import COMMANDS, EPSILON_RANGE, P_RANGE, SETTINGS, main

F2 = FreeGroup(2)


def run_cli(args, env_extra=None):
    """Run in-process; returns (exit_code, captured argv side effects)."""
    return main([str(a) for a in args])


def write_phi(tmp_path, name="indicator_a.json", letter="a", rank=2):
    group = FreeGroup(rank)
    phi = LocallyConstantFunction.indicator(group, group.word(letter))
    obj = phi.to_json_obj()
    obj["rank"] = rank
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


def write_terms(tmp_path):
    def ind(s):
        return LocallyConstantFunction.indicator(F2, F2.word(s)).to_json_obj()

    obj = {
        "rank": 2,
        "degree": 3,
        "terms": [
            {"phi": ind("a"), "g": "a"},
            {"phi": ind("b"), "g": "A"},
            {"phi": ind("A"), "g": "b"},
            {"phi": ind("B"), "g": "B"},
        ],
    }
    path = tmp_path / "terms.json"
    path.write_text(json.dumps(obj))
    return path


def test_growth_closed_form_column(tmp_path):
    assert run_cli(["growth", "--n", 2, "--R", 3, "--out", tmp_path]) == 0
    obj = json.loads((tmp_path / "growth.json").read_text())
    assert obj["rows"][-1] == {"R": 3, "closed_form": 53, "enumerated": 53}
    csv_lines = (tmp_path / "growth.csv").read_text().splitlines()
    assert csv_lines[0] == "R,closed_form,enumerated"
    assert csv_lines[-1] == "3,53,53"


def test_deviation_golden_row(tmp_path):
    phi = write_phi(tmp_path)
    assert run_cli(["deviation", "--phi", phi, "--R", 2, "--out", tmp_path]) == 0
    assert "b,1,1/12,0/1,11/144" in (tmp_path / "deviation.csv").read_text()


def test_deviation_requires_phi(tmp_path, capsys):
    assert run_cli(["deviation", "--out", tmp_path]) == 2
    assert "needs --phi" in capsys.readouterr().err


def test_summability_schema(tmp_path):
    assert (
        run_cli(
            ["summability", "--n", 2, "--R", 5, "--p", 2, "--p", 3, "--out", tmp_path]
        )
        == 0
    )
    obj = json.loads((tmp_path / "summability.json").read_text())
    assert obj["dimension"] == "1"
    assert obj["threshold"] == "2"
    assert [r["p"] for r in obj["reports"]] == ["2", "3"]
    assert obj["reports"][0]["verdict"] == "diverging"
    assert obj["reports"][0]["total_exact"] is None
    assert obj["reports"][1]["verdict"] == "converging"
    # floats travel as 17-digit strings
    assert isinstance(obj["reports"][0]["sphere_sums"][0], str)


def test_summability_of_a_constant_function_has_no_fit(tmp_path):
    # sigma vanishes on every sphere: each verdict and total is defined, and
    # there is no decay to fit
    phi = tmp_path / "constant.json"
    phi.write_text(json.dumps({"rank": 2, "depth": 0, "values": {"1": ["1/2", "0"]}}))
    assert run_cli(["summability", "--phi", phi, "--p", 2, "--p", 3, "--out", tmp_path]) == 0
    obj = json.loads((tmp_path / "summability.json").read_text())
    assert obj["decay_exponent_fit"] is None
    assert [r["verdict"] for r in obj["reports"]] == ["converging", "converging"]
    assert obj["reports"][0]["total_exact"] == "0/1"
    assert set(obj["reports"][1]["sphere_sums"]) == {"0"}


def test_spectrum_schema(tmp_path):
    phi = write_phi(tmp_path)
    assert run_cli(["spectrum", "--phi", phi, "--R", 1, "--out", tmp_path]) == 0
    obj = json.loads((tmp_path / "spectrum.json").read_text())
    assert obj["dim"] == 60
    assert float(obj["pi_identity_error"]) <= 1e-10
    assert float(obj["deviation_match_error"]) <= 1e-9
    top = float(obj["singular_values"][0])
    assert top == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-9)


def test_chern_schema_with_oracle(tmp_path):
    terms = write_terms(tmp_path)
    code = run_cli(
        [
            "chern",
            "--input",
            terms,
            "--radius",
            4,
            "--oracle-R",
            4,
            "--oracle-m",
            4,
            "--out",
            tmp_path,
        ]
    )
    assert code == 0
    obj = json.loads((tmp_path / "chern.json").read_text())
    assert obj["partial_exact"] == {"re": "52003/3779136", "im": "0/1"}
    assert obj["total_exact"] == {"re": "1/72", "im": "0/1"}
    assert obj["total"] == {"re": "0.013888888888888888", "im": "0"}
    assert "tail_bound" not in obj and "bound" not in obj["spheres"][0]
    assert obj["oracle"]["consistent"] is True
    assert obj["group_product"] == "1"


@pytest.mark.parametrize(
    "given, missing", [("--oracle-R", "--oracle-m"), ("--oracle-m", "--oracle-R")]
)
def test_chern_lone_oracle_setting_is_usage_error(tmp_path, capsys, given, missing):
    # the trace oracle needs both settings; one alone must not be dropped
    terms = write_terms(tmp_path)
    out = tmp_path / "out"
    code = run_cli(["chern", "--input", terms, "--radius", 2, given, 3, "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and f"{missing} is missing" in err
    assert not out.exists()


def test_chern_oracle_that_compares_no_h_is_a_usage_error(tmp_path, capsys):
    # at --oracle-R 1 --oracle-m 1 no chain of the depth-1 terms stays on
    # exact blocks; one level deeper the identity compares h = 1
    terms = write_terms(tmp_path)
    argv = ["chern", "--input", terms, "--radius", 2, "--oracle-R", 1]
    assert run_cli(argv + ["--oracle-m", 1, "--out", tmp_path / "empty"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "--oracle-R 1 --oracle-m 1 compares no h" in err
    assert not (tmp_path / "empty").exists()
    assert run_cli(argv + ["--oracle-m", 2, "--out", tmp_path / "one"]) == 0
    oracle = json.loads((tmp_path / "one" / "chern.json").read_text())["oracle"]
    assert (oracle["identity_h"], oracle["consistent"]) == (1, True)
    # a group product other than 1 leaves every chain off the diagonal
    obj = json.loads(terms.read_text())
    obj["terms"][1]["g"] = "b"
    terms.write_text(json.dumps(obj))
    argv = ["chern", "--input", terms, "--radius", 2, "--oracle-R", 2, "--oracle-m", 3]
    assert run_cli(argv + ["--out", tmp_path / "off"]) == 2
    err = capsys.readouterr().err
    assert "compares no h: the terms' group product is not 1" in err
    assert not (tmp_path / "off").exists()


def test_chern_n_flag_is_rank(tmp_path):
    # --n must mean rank here like everywhere else, not collide with --degree.
    terms = write_terms(tmp_path)
    code = run_cli(
        ["chern", "--n", 2, "--input", terms, "--radius", 3, "--out", tmp_path]
    )
    assert code == 0
    obj = json.loads((tmp_path / "chern.json").read_text())
    assert obj["degree"] == 3
    assert obj["rank"] == 2


def test_furstenberg_exact_rows(tmp_path):
    assert (
        run_cli(["furstenberg", "--g", "a", "--max-power", 4, "--out", tmp_path])
        == 0
    )
    obj = json.loads((tmp_path / "furstenberg.json").read_text())
    assert [r["distance"] for r in obj["rows"]] == [
        "1/2",
        "1/6",
        "1/18",
        "1/54",
    ]


def test_profile_budget_charges_classes_and_the_writers_the_ball(tmp_path, capsys):
    # |B_20| is about 7e9, past the default budget of 10^7; summability
    # evaluates the 81 prefix classes of B_20, while deviation writes one row
    # for every element
    phi = ["--phi", write_phi(tmp_path)]
    argv = ["summability", *phi, "--R", 20, "--p", 2, "--p", 2.5, "--p", 3]
    assert run_cli([*argv, "--out", tmp_path / "s"]) == 0
    obj = json.loads((tmp_path / "s" / "summability.json").read_text())
    assert [len(r["sphere_sums"]) for r in obj["reports"]] == [21, 21, 21]
    capsys.readouterr()
    assert run_cli(["deviation", *phi, "--R", 20, "--out", tmp_path / "d"]) == 3
    assert "budget exceeded" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()
    # 1 + 4 x 20 = 81 classes against a budget of 80
    assert run_cli([*argv, "--budget", 80, "--out", tmp_path / "b"]) == 3
    assert "81 prefix classes" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rank, g, depth", [(2, "a", 1), (2, "aB", 3), (3, "aBc", 7), (2, "ab", 12)]
)
def test_furstenberg_rows_match_the_powers(tmp_path, rank, g, depth):
    # the report builds no power; the oracle multiplies g^m out and reads
    # the pushforward mass of the endpoint's depth-k cylinder
    from treeboundary import BoundaryPoint, IDENTITY, mul, weak_distance_to_delta

    args = ["--n", rank, "--g", g, "--max-power", 12, "--depth", depth]
    assert run_cli(["furstenberg", *args, "--out", tmp_path]) == 0
    group = FreeGroup(rank)
    omega, power, want = BoundaryPoint(IDENTITY, group.word(g)), IDENTITY, []
    for _ in range(12):
        power = mul(power, group.word(g))
        d = weak_distance_to_delta(power, omega, depth, group)
        want.append(f"{d.numerator}/{d.denominator}")
    obj = json.loads((tmp_path / "furstenberg.json").read_text())
    assert [r["distance"] for r in obj["rows"]] == want


def test_furstenberg_rejects_identity(tmp_path):
    assert run_cli(["furstenberg", "--g", "1", "--out", tmp_path]) == 2


def test_verify_all_green(tmp_path):
    assert run_cli(["verify-all", "--n", 2, "--R", 2, "--out", tmp_path]) == 0
    obj = json.loads((tmp_path / "verify-all.json").read_text())
    assert obj["ok"] is True
    assert all(c["ok"] for c in obj["checks"])


def test_verify_all_tol_scale_zero_exits_one(tmp_path):
    assert (
        run_cli(
            ["verify-all", "--n", 2, "--R", 2, "--tol-scale", 0, "--out", tmp_path]
        )
        == 1
    )
    obj = json.loads((tmp_path / "verify-all.json").read_text())
    assert obj["ok"] is False


def test_budget_exit_code(tmp_path):
    assert (
        run_cli(["growth", "--n", 2, "--R", 6, "--budget", 100, "--out", tmp_path])
        == 3
    )


def test_spectrum_dense_budget_exit_code(tmp_path, capsys):
    # dim 612 over an explicit budget of 100: exit 3, not an invariant failure
    args = ["spectrum", "--R", 2, "--m", 3, "--budget", 100, "--out", tmp_path]
    assert run_cli(args) == 3
    assert "budget exceeded" in capsys.readouterr().err


def test_bad_budget_is_usage_error(tmp_path):
    assert run_cli(["growth", "--n", 2, "--budget", -5, "--out", tmp_path]) == 2


def test_unknown_subcommand_exits_two():
    proc = subprocess.run(
        [sys.executable, "-m", "treeboundary.cli", "nonsense"],
        capture_output=True,
    )
    assert proc.returncode == 2


# ----------------------------------------------------------------------
# command-line syntax: both flag forms, aliases, unique prefixes, repeats

_PHI = ["--phi", "{phi}"]
_DEVIATION = ["deviation", *_PHI, "--R", "3"]


@pytest.mark.parametrize(
    "argv, same, expect",
    [
        (_DEVIATION, ["deviation", "--phi={phi}", "--R=3"], {"radius": 3}),
        (_DEVIATION, ["deviation", *_PHI, "--radius", "3"], {"radius": 3}),
        # --ph and --rad are unique prefixes of --phi and --radius
        (_DEVIATION, ["deviation", "--ph", "{phi}", "--rad", "3"], {"radius": 3}),
        # the last value wins; --p appends, and is --p, not a prefix of --phi
        (_DEVIATION, ["deviation", *_PHI, "--R", "1", "--R=3"], {"radius": 3}),
        (
            ["summability", *_PHI, "--R", "4", "--p", "2", "--p", "4"],
            ["summability", *_PHI, "--R", "4", "--config", "{config}"],
            {"radius": 4},
        ),
        (
            ["verify-all", "--R", "1", "--seed", "-3"],
            ["verify-all", "--R", "1", "--seed=-3"],
            {"seed": -3},
        ),
    ],
    ids=["equals", "alias", "prefix", "last-wins", "p-appends", "negative-seed"],
)
def test_flag_forms_give_the_same_report(tmp_path, argv, same, expect):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"p": [2, 4]}))
    paths = {"phi": write_phi(tmp_path), "config": config}
    reports = []
    for side, args in (("one", argv), ("two", same)):
        out = tmp_path / side
        assert run_cli([*(a.format(**paths) for a in args), "--out", out]) == 0
        reports.append([(out / f"{argv[0]}.{suffix}").read_bytes() for suffix in ("json", "csv")])
    assert reports[0] == reports[1]
    obj = json.loads(reports[0][0])
    assert {key: obj[key] for key in expect} == expect


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["nonsense"],
        ["chern", "--ora", "2"],  # --oracle-R or --oracle-m
        ["spectrum", "--bogus", "1"],
        ["spectrum", "stray"],
        ["spectrum", "--R"],
    ],
    ids=[
        "no-subcommand", "unknown-subcommand", "ambiguous-flag", "unknown-flag", "stray", "no-value"
    ],
)
def test_malformed_command_line_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)  # a report written by mistake lands here
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", [None, *COMMANDS], ids=["top", *COMMANDS])
def test_help_lists_every_setting_and_default(command):
    # in a fresh process: help may end by SystemExit(0) or by returning 0
    argv = [] if command is None else [command]
    proc = subprocess.run(
        [sys.executable, "-m", "treeboundary.cli", *argv, "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    text = " ".join(proc.stdout.split())
    if command is None:
        wanted = [f"{name} {help_text}" for name, (_, help_text, _) in COMMANDS.items()]
    else:
        defaults = COMMANDS[command][2]
        wanted = [flag for name in defaults for flag in SETTINGS[name].flags] + ["--config"]
        wanted += [f"(default {d})" for d in defaults.values() if d is not None]
    assert [w for w in wanted if w not in text] == []


def test_env_budget_honored(tmp_path):
    env = dict(os.environ, TREEBOUNDARY_BUDGET="40")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "treeboundary.cli",
            "growth",
            "--n",
            "2",
            "--R",
            "5",
            "--out",
            str(tmp_path),
        ],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 3
    assert b"budget exceeded" in proc.stderr


def test_config_beats_env_and_flag_beats_config(tmp_path):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"budget": 10**6, "radius": 5}))
    env = dict(os.environ, TREEBOUNDARY_BUDGET="40")
    base = [
        sys.executable,
        "-m",
        "treeboundary.cli",
        "growth",
        "--n",
        "2",
        "--config",
        str(config),
        "--out",
        str(tmp_path),
    ]
    proc = subprocess.run(base, capture_output=True, env=env)
    assert proc.returncode == 0  # config budget overrides the env value
    obj = json.loads((tmp_path / "growth.json").read_text())
    assert obj["radius"] == 5  # radius came from the config
    proc = subprocess.run(
        base + ["--R", "2"], capture_output=True, env=env
    )
    assert proc.returncode == 0
    obj = json.loads((tmp_path / "growth.json").read_text())
    assert obj["radius"] == 2  # explicit flag wins over the config


def test_verify_all_byte_identical(tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    for out in (out1, out2):
        assert (
            run_cli(
                [
                    "verify-all",
                    "--n",
                    2,
                    "--R",
                    2,
                    "--seed",
                    0,
                    "--out",
                    out,
                ]
            )
            == 0
        )
    assert (out1 / "verify-all.json").read_bytes() == (
        out2 / "verify-all.json"
    ).read_bytes()
    assert (out1 / "verify-all.csv").read_bytes() == (
        out2 / "verify-all.csv"
    ).read_bytes()


def test_bad_config_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    assert run_cli(["growth", "--n", 2, "--config", bad, "--out", tmp_path]) == 2


def test_bad_function_file(tmp_path):
    bad = tmp_path / "phi.json"
    bad.write_text("[1, 2, 3]")
    assert run_cli(["deviation", "--phi", bad, "--out", tmp_path]) == 2


def test_zero_denominator_is_usage_error(tmp_path, capsys):
    phi_path = write_phi(tmp_path)
    phi = json.loads(phi_path.read_text())
    phi["values"]["a"] = ["1/0", "0/1"]
    phi_path.write_text(json.dumps(phi))
    assert run_cli(["deviation", "--phi", phi_path, "--out", tmp_path]) == 2
    assert "error:" in capsys.readouterr().err
    # a bare string where a [re, im] pair belongs
    phi["values"]["a"] = "1"
    phi_path.write_text(json.dumps(phi))
    assert run_cli(["deviation", "--phi", phi_path, "--out", tmp_path]) == 2
    assert "error:" in capsys.readouterr().err

    terms_path = write_terms(tmp_path)
    terms = json.loads(terms_path.read_text())
    terms["terms"][2]["phi"]["values"]["b"] = ["0/1", "1/0"]
    terms_path.write_text(json.dumps(terms))
    assert run_cli(["chern", "--input", terms_path, "--out", tmp_path]) == 2
    assert "error:" in capsys.readouterr().err


def test_list_valued_config_setting_is_usage_error(tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"radius": [1]}))
    assert run_cli(["growth", "--n", 2, "--config", config, "--out", tmp_path]) == 2
    assert "error:" in capsys.readouterr().err
    # a setting of another subcommand is refused as its flag is: growth
    # never took epsilon, chern no longer does; both were silently dropped
    terms = write_terms(tmp_path)
    for argv in (["growth", "--n", 2, "--R", 1], ["chern", "--input", terms, "--radius", 1]):
        config.write_text(json.dumps({"epsilon": 3.0}))
        assert run_cli(argv + ["--config", config, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "'epsilon'" in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, config",
    [
        (["growth", "--n", 2, "--R", -1], None),  # wrote an empty table
        (["growth"], {"rank": 2.5}),  # was truncated to rank 2
        (["growth", "--n", 2], {"radius": 1.5}),
        (["growth", "--n", 2], {"radius": "2.5"}),
        (["furstenberg", "--n", 2, "--max-power", -2], None),  # wrote empty rows
        (["furstenberg", "--n", 2, "--depth", 0], None),
        (["verify-all", "--n", 2], {"seed": 0.5}),
        (["growth", "--n", 2], {"budget": 0}),
        # float settings: epsilon and every p finite and > 0, tol_scale finite and >= 0
        (["summability", "--R", 4, "--epsilon", "inf"], None),  # ZeroDivisionError
        (["summability", "--R", 4, "--p", "inf"], None),  # OverflowError
        (["summability", "--p", "nan"], None),  # "cannot convert float NaN", after --out
        (["spectrum", "--R", 1, "--p", 0], None),  # ZeroDivisionError
        (["spectrum", "--R", 1, "--p", -1], None),  # exit 0 with meaningless norms
        (["spectrum", "--R", 1, "--p", "nan"], None),
        (["verify-all", "--n", 2, "--R", 1, "--tol-scale", -1], None),  # exit 1
        (["verify-all", "--n", 2, "--R", 1, "--tol-scale", "nan"], None),
        (["growth"], {"radius": True}),  # booleans are not numbers
        (["spectrum"], {"p": [True]}),
        (["summability", "--R", 4, "--epsilon", "5e-324"], None),  # reported dimension "inf"
        (["summability", "--R", 4, "--epsilon", 17], None),  # above EPSILON_RANGE
        (["summability", "--R", 4, "--p", 65], None),  # above P_RANGE
        (["spectrum", "--R", 1, "--p", 0.1], None),  # below P_RANGE
    ],
)
def test_out_of_range_integer_setting_is_usage_error(tmp_path, capsys, argv, config):
    if config is not None:
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", path]
    assert run_cli(argv + ["--out", tmp_path / "out"]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # rejected before any output


@pytest.mark.parametrize(
    "argv",
    [
        ["summability", "--R", 4, "--p", "1e300"],  # raised exact sigma^2 to 5e299: no end
        ["summability", "--R", 4, "--epsilon", "1e300"],  # OverflowError in the sorted decay
        ["summability", "--R", 4, "--epsilon", 1000],  # ZeroDivisionError there
        ["spectrum", "--R", 1, "--p", "1e-300"],  # OverflowError in the Schatten norm
    ],
)
def test_extreme_settings_end_quickly_without_traceback(tmp_path, argv):
    proc = subprocess.run(
        [sys.executable, "-m", "treeboundary.cli", *map(str, argv), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=5,
    )
    assert proc.returncode in (0, 2)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "oracle_R, oracle_m",
    [
        (40, 2),  # |B_40| elements: ran for more than 30 s
        (3, 100000),  # RecursionError in the depth-m sphere enumeration
    ],
)
def test_trace_oracle_beyond_budget_exits_three(tmp_path, oracle_R, oracle_m):
    argv = ["chern", "--input", write_terms(tmp_path), "--radius", 1,
            "--oracle-R", oracle_R, "--oracle-m", oracle_m, "--out", tmp_path / "out"]
    proc = subprocess.run(
        [sys.executable, "-m", "treeboundary.cli", *map(str, argv)],
        capture_output=True,
        text=True,
        timeout=5,
    )
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "budget exceeded" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_chern_is_charged_for_the_classes_it_sums(tmp_path, capsys):
    # depth-1 terms times a, A, b, B: K = 2, and radius R sums 12 classes
    # per sphere past 2, charged 12 m at sphere m; |B_16| = 86,093,441 is
    # past the default budget, but no element of the ball is enumerated
    terms = write_terms(tmp_path)
    assert run_cli(["chern", "--input", terms, "--radius", 16, "--out", tmp_path / "16"]) == 0
    assert json.loads((tmp_path / "16" / "chern.json").read_text())["radius"] == 16
    capsys.readouterr()
    assert run_cli(["chern", "--input", terms, "--radius", 2000, "--out", tmp_path / "2000"]) == 3
    assert "24011992 class sphere radii exceed budget 10000000" in capsys.readouterr().err
    assert not (tmp_path / "2000").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--R", 10**7],
        ["chern", "--radius", 10**7],
        ["summability", "--R", 10**7],
        ["deviation", "--R", 10**7],
        ["furstenberg", "--depth", 10**7, "--max-power", 1],
        ["chern", "--radius", 1, "--oracle-R", 10**7, "--oracle-m", 2],
    ],
    ids=["spectrum", "chern", "summability", "deviation", "furstenberg", "chern-oracle"],
)
def test_budget_checks_never_build_the_huge_count(tmp_path, argv):
    # building |B_R| or |S_m| first took from 4 to 44 s before exit 3
    files = {"chern": ["--input", write_terms(tmp_path)], "deviation": ["--phi", write_phi(tmp_path)]}
    argv = [*argv, *files.get(argv[0], []), "--out", tmp_path / "out"]
    proc = subprocess.run(
        [sys.executable, "-m", "treeboundary.cli", *map(str, argv)],
        capture_output=True,
        text=True,
        timeout=5,
    )
    assert proc.returncode == 3, proc.stderr
    assert "budget exceeded:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["--max-power", 10**8],  # distances of 4.8e7 digits
        ["--max-power", 9100],  # 4343 digits: just past the 4300-digit limit
    ],
    ids=["digits", "digits-near-the-limit"],
)
def test_furstenberg_max_power_decided_from_the_settings(tmp_path, argv):
    # 10^8 ran for 6 s, then exited 2 with Python's int-to-str digit limit
    argv = ["furstenberg", *argv, "--out", tmp_path / "out"]
    proc = subprocess.run(
        [sys.executable, "-m", "treeboundary.cli", *map(str, argv)],
        capture_output=True,
        text=True,
        timeout=5,
    )
    assert proc.returncode == 3, proc.stderr
    assert "error: budget exceeded: --max-power" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def _timed_cli(argv):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "treeboundary.cli", *map(str, argv)],
        capture_output=True,
        text=True,
        timeout=10,
    )
    return proc, time.perf_counter() - start


def test_verify_all_charges_its_costly_checks_up_front(tmp_path):
    # n = 26 is the largest rank: |B_2|^2 = 7,317,025 Gromov pairs fit the
    # default budget, not 7,000,000, and the charge comes before any Gromov
    # product (the full run takes minutes)
    out = tmp_path / "out"
    proc, seconds = _timed_cli(["verify-all", "--n", 26, "--R", 2, "--budget", 7_000_000, "--out", out])
    assert proc.returncode == 3, proc.stderr
    assert "error: budget exceeded: 7317025 Gromov pairs exceed budget 7000000" in proc.stderr
    assert seconds < 2
    assert not out.exists()
    # n = 3: the growth check's |B_4| of F3 (937) fits 1000, the 1369
    # Gromov pairs of B_2 do not
    assert run_cli(["verify-all", "--n", 3, "--budget", 1000, "--out", out]) == 3
    assert run_cli(["verify-all", "--n", 3, "--budget", 1369, "--out", out]) == 0
    # a rank past 26 is a usage error, not a budget stop
    proc, _ = _timed_cli(["verify-all", "--n", 30, "--R", 2, "--out", out])
    assert proc.returncode == 2, proc.stderr
    assert "rank must be an integer in 2..26, got 30" in proc.stderr


def test_summability_charges_each_class_by_its_sphere(tmp_path):
    # a depth-1 F2 function has 4 classes on each sphere m >= 1, charged m
    # each: 2 R (R + 1) in all, 8,004,000 at R = 2000 (which fits) and
    # 50,010,000 at R = 5000
    phi = write_phi(tmp_path)
    proc, seconds = _timed_cli(["summability", "--phi", phi, "--R", 5000, "--out", tmp_path / "out"])
    assert proc.returncode == 3, proc.stderr
    assert "error: budget exceeded: 50010000 class sphere radii exceed budget 10000000" in proc.stderr
    assert seconds < 1
    argv = ["summability", "--phi", phi, "--R", 10, "--out", tmp_path]
    assert run_cli([*argv, "--budget", 220]) == 0
    assert run_cli([*argv, "--budget", 219]) == 3


# sha256 of verify-all.json and verify-all.csv with seed 0, taken before the
# verify layer summed its exact values on integers; a change that moves the
# bytes of a detail must update these and say why in CHANGES.md
VERIFY_ALL_SHA256 = {
    ("--n", 2, "--R", 2): (
        "adec6dce7759c9aac4adb3762d1375297b93bf0107ebc754758de23df40eac53",
        "12202ce0cda27b9ace90371964b43c78323b4232afffd0a31a9e00fa3a2676a1",
    ),
    ("--n", 3): (
        "0004bafa8897c5f42538fb3f272679fb492a0a1516fd74aaef46199ad91411fa",
        "225090e7ea8f80cd8cbd0f487591cf7f8073c3553e68327dc5cfb263da0f3809",
    ),
    # complement covers of 11 letters per level, and many (|g|, |w|, l) shapes
    ("--n", 6, "--R", 2): (
        "1a83bdec68010d0b940a5941d028580f60cef4ec49f48a00b5a99fcb11617e30",
        "c92396330781e4e5e4517e5349efc89abddd7c8ffe7b8c8d634c54b3ade09757",
    ),
}


@pytest.mark.parametrize("args", list(VERIFY_ALL_SHA256), ids=["n2-R2", "n3", "n6-R2"])
def test_verify_all_reports_are_byte_stable(tmp_path, args):
    assert run_cli(["verify-all", *args, "--seed", 0, "--out", tmp_path]) == 0
    digests = tuple(
        hashlib.sha256((tmp_path / f"verify-all.{ext}").read_bytes()).hexdigest()
        for ext in ("json", "csv")
    )
    assert digests == VERIFY_ALL_SHA256[args]


def test_verify_all_runs_under_the_benchmark_tracer(tmp_path):
    # benchmarks/tracing.py wraps library routines by name (preimage_cylinder,
    # pushforward_mass, deviation_sq_pairsum, FreeGroup.ball and sphere,
    # run_all, ...), and the tests do not collect benchmarks/: a renamed
    # routine must fail here.  Traced, verify-all still writes its pinned bytes
    root = Path(__file__).resolve().parent.parent
    script = f"""
import sys
sys.path[:0] = [{str(root / "benchmarks")!r}, {str(root / "src")!r}]
import tracing
from treeboundary import cli
tracing.run_checks_in_process()
tracing.install(tracing.Tracer())
sys.exit(cli.main(["verify-all", "--n", "2", "--R", "2", "--seed", "0", "--out", {str(tmp_path)!r}]))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    digests = tuple(
        hashlib.sha256((tmp_path / f"verify-all.{ext}").read_bytes()).hexdigest()
        for ext in ("json", "csv")
    )
    assert digests == VERIFY_ALL_SHA256["--n", 2, "--R", 2]


def test_chern_runs_under_the_benchmark_tracer(tmp_path):
    # the tracer wraps translate and counts the cells of every
    # LocallyConstantFunction.__init__; the cocycle value's pair tables are
    # products with translates, so traced, chern still writes its pinned bytes
    root = Path(__file__).resolve().parent.parent
    args, *want = REPORT_SHA256["chern oracle 3"]
    argv = [*map(str, args), *map(str, _dense_inputs(tmp_path)["chern oracle 3"])]
    script = f"""
import sys
sys.path[:0] = [{str(root / "benchmarks")!r}, {str(root / "src")!r}]
import tracing
from treeboundary import cli
tracing.install(tracing.Tracer())
sys.exit(cli.main({argv!r} + ["--out", {str(tmp_path / "out")!r}]))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    digests = [
        hashlib.sha256((tmp_path / "out" / f"chern.{ext}").read_bytes()).hexdigest()
        for ext in ("json", "csv")
    ]
    assert digests == want


def test_spectrum_runs_under_the_benchmark_tracer(tmp_path):
    # the tracer wraps verify_pi_identity and commutator_singular_values,
    # which read the fiber runs; traced, spectrum still writes its pinned bytes
    root = Path(__file__).resolve().parent.parent
    args, *want = REPORT_SHA256["spectrum"]
    argv = [*map(str, args), *map(str, _dense_inputs(tmp_path)["spectrum"])]
    script = f"""
import sys
sys.path[:0] = [{str(root / "benchmarks")!r}, {str(root / "src")!r}]
import tracing
from treeboundary import cli
tracing.install(tracing.Tracer())
sys.exit(cli.main({argv!r} + ["--out", {str(tmp_path / "out")!r}]))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    digests = [
        hashlib.sha256((tmp_path / "out" / f"spectrum.{ext}").read_bytes()).hexdigest()
        for ext in ("json", "csv")
    ]
    assert digests == want


def _with_large_value(obj):
    obj["values"]["a"] = ["1e200", "0"]  # sigma^2 near 10^400 has no binary64 value
    return obj


@pytest.mark.parametrize("command", ["summability", "chern", "deviation"])
def test_values_too_large_for_float_fields(tmp_path, command):
    if command == "chern":
        obj = json.loads(write_terms(tmp_path).read_text())
        _with_large_value(obj["terms"][0]["phi"])
        argv = ["chern", "--input", tmp_path / "terms.json", "--radius", 2]
    else:
        obj = _with_large_value(json.loads(write_phi(tmp_path, name="phi.json").read_text()))
        argv = [command, "--phi", tmp_path / "phi.json", "--R", 4]
    (tmp_path / ("terms.json" if command == "chern" else "phi.json")).write_text(json.dumps(obj))
    proc = subprocess.run(
        [sys.executable, "-m", "treeboundary.cli", *map(str, argv), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=5,
    )
    assert "Traceback" not in proc.stderr
    if command == "deviation":  # every field is exact
        assert proc.returncode == 0, proc.stderr
        # E at the identity: the mean 10^200 / 4 of the four cells, exact
        assert f'"{10**200 // 4}/1"' in (tmp_path / "out" / "deviation.json").read_text()
    else:
        assert proc.returncode == 2
        assert "error: a value is too large for the report's float fields" in proc.stderr
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["summability", "--R", 6, "--p", P_RANGE[0], "--p", P_RANGE[1], "--p", 63],
        ["summability", "--R", 6, "--epsilon", EPSILON_RANGE[0]],
        ["summability", "--R", 6, "--epsilon", EPSILON_RANGE[1]],
        ["spectrum", "--R", 1, "--p", P_RANGE[0], "--p", P_RANGE[1], "--epsilon", EPSILON_RANGE[1]],
    ],
)
def test_settings_at_their_bounds_give_finite_reports(tmp_path, argv):
    assert run_cli(argv + ["--out", tmp_path]) == 0
    report = (tmp_path / f"{argv[0]}.json").read_text()
    assert all(f'"{x}"' not in report for x in ("inf", "-inf", "nan"))  # floats as strings


def test_summability_past_the_float_range_of_the_ball(tmp_path):
    # |B_700| and the sorted-decay slot j pass the float range, and the
    # float of the largest sigma^2 underflows to 0 although it is positive
    phi = write_phi(tmp_path, name="dense.json")
    obj = json.loads(phi.read_text())
    obj["values"] = {"a": ["2/5", "-3/7"], "A": ["4/13", "1/2"], "b": ["-1/3", "5/11"], "B": ["-6/17", "-2/9"]}
    phi.write_text(json.dumps(obj))
    argv = ["summability", "--phi", phi, "--R", 700, "--p", 2, "--p", 3, "--out", tmp_path]
    assert run_cli(argv) == 0
    report = json.loads((tmp_path / "summability.json").read_text())
    assert report["sorted_decay"]["ok"] is True
    assert -0.6 < float(report["decay_exponent_fit"]) < -0.5  # log(3) / 2 = 0.549...


# a small run of every subcommand that writes a report
_ROUTES = {
    "deviation": ["--phi", "{phi}", "--R", "3"],
    "summability": ["--phi", "{phi}", "--R", "4", "--p", "2", "--p", "3"],
    "spectrum": ["--phi", "{phi}", "--R", "1"],
    "chern": ["--input", "{terms}", "--radius", "2", "--oracle-R", "2", "--oracle-m", "2"],
    "verify-all": ["--n", "2", "--R", "2"],
    "growth": ["--n", "2", "--R", "3"],
    "furstenberg": ["--g", "a", "--max-power", "3"],
}


# modules that no report process loads: numpy serves only the dense test
# oracles, dataclasses brings inspect, ast, dis and tokenize with it, and
# argparse gettext, whose first lookup imports locale
_UNLOADED = ("numpy", "dataclasses", "inspect", "argparse", "gettext", "locale")


def _modules_after(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that then prints, on its last
    line, whether each module of ``_UNLOADED`` was imported."""
    import treeboundary

    env = dict(os.environ, PYTHONPATH=str(Path(treeboundary.__file__).parent.parent))
    check = f"import sys\nprint(*[m in sys.modules for m in {_UNLOADED!r}])"
    return subprocess.run(
        [sys.executable, "-c", f"{code}\n{check}"],
        capture_output=True, text=True, env=env, timeout=60,
    )


def _loaded(proc: subprocess.CompletedProcess) -> dict[str, str]:
    assert proc.returncode == 0, proc.stderr
    return dict(zip(_UNLOADED, proc.stdout.splitlines()[-1].split()))


def test_package_import_loads_no_numpy():
    proc = _modules_after("import treeboundary\nimport treeboundary.cli")
    assert _loaded(proc) == {m: "False" for m in _UNLOADED}


@pytest.mark.parametrize("command", sorted(_ROUTES))
def test_report_routes_load_no_numpy(tmp_path, command):
    # every report is plain Python: numpy serves only the dense test oracles
    paths = {"phi": write_phi(tmp_path), "terms": write_terms(tmp_path)}
    argv = [command, *(a.format(**paths) for a in _ROUTES[command]), "--out", str(tmp_path / "out")]
    proc = _modules_after(f"from treeboundary.cli import main\nassert main({argv!r}) == 0")
    assert _loaded(proc) == {m: "False" for m in _UNLOADED}


def _set(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


@pytest.mark.parametrize(
    "command, path, value",
    [
        ("deviation", ["values"], [1, 2]),  # AttributeError
        ("deviation", ["depth"], 1.5),  # "the depth-1.5 partition has 6.93 cells"
        ("deviation", ["values", "a"], ["x/y", "0"]),  # the error did not name the file
        ("summability", ["values", "a"], ["1/0", "0/1"]),  # wrote --out first
        ("chern", ["terms"], 5),  # TypeError
        ("chern", ["terms", 0, "g"], 5),  # TypeError
        ("chern", ["terms", 2, "phi", "values", "b"], ["0/1", "1/0"]),  # wrote --out first
    ],
)
def test_malformed_input_file_is_usage_error(tmp_path, capsys, command, path, value):
    file = write_terms(tmp_path) if command == "chern" else write_phi(tmp_path)
    obj = json.loads(file.read_text())
    _set(obj, path, value)
    file.write_text(json.dumps(obj))
    flag = "--input" if command == "chern" else "--phi"
    assert run_cli([command, flag, file, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and str(file) in err
    assert not (tmp_path / "out").exists()  # rejected before any output


@pytest.mark.parametrize(
    "command, depth, key, match",
    [
        ("deviation", 1, "ab", "key Word('ab') does not have depth 1"),
        ("deviation", 2, "a", "4 values given, the depth-2 partition has 12 cells"),
        ("chern", 1, "ab", "key Word('ab') does not have depth 1"),
        ("chern", 2, "a", "4 values given, the depth-2 partition has 12 cells"),
    ],
)
def test_table_with_a_bad_key_or_depth_is_usage_error(tmp_path, capsys, command, depth, key, match):
    # the cell "a" of a depth-1 table renamed to ``key``, under ``depth``
    file = write_terms(tmp_path) if command == "chern" else write_phi(tmp_path)
    obj = json.loads(file.read_text())
    table = obj["terms"][1]["phi"] if command == "chern" else obj
    table["values"][key] = table["values"].pop("a")
    table["depth"] = depth
    file.write_text(json.dumps(obj))
    flag = "--input" if command == "chern" else "--phi"
    assert run_cli([command, flag, file, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert match in err and str(file) in err
    assert not (tmp_path / "out").exists()


def test_out_path_that_is_a_file_is_usage_error(tmp_path, capsys):
    (tmp_path / "out").write_text("")
    assert run_cli(["growth", "--out", tmp_path / "out"]) == 2  # FileExistsError
    assert "error:" in capsys.readouterr().err


def test_verify_all_budget_stop_exits_three(tmp_path, capsys):
    # the checks enumerate B_2 (161 elements) against a budget of 100
    args = ["verify-all", "--n", 2, "--R", 2, "--budget", 100, "--out", tmp_path / "out"]
    assert run_cli(args) == 3
    assert "budget exceeded" in capsys.readouterr().err


def test_integral_settings_still_accepted(tmp_path):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"rank": 2.0, "radius": "2"}))
    assert run_cli(["growth", "--config", config, "--out", tmp_path]) == 0
    obj = json.loads((tmp_path / "growth.json").read_text())
    assert (obj["rank"], obj["radius"]) == (2, 2)


def test_summability_takes_the_function_file_rank(tmp_path):
    # like deviation and spectrum: flag > config > the file's "rank" > 2
    phi = write_phi(tmp_path, rank=3)
    assert run_cli(["summability", "--phi", phi, "--R", 4, "--out", tmp_path]) == 0
    assert json.loads((tmp_path / "summability.json").read_text())["rank"] == 3


def test_non_integral_rank_in_function_file_is_usage_error(tmp_path, capsys):
    phi_path = write_phi(tmp_path)
    phi = json.loads(phi_path.read_text())
    phi["rank"] = 2.5
    phi_path.write_text(json.dumps(phi))
    assert run_cli(["deviation", "--phi", phi_path, "--out", tmp_path]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("rank", [3, 4, 5, 8])
def test_verify_all_passes_at_higher_rank(tmp_path, rank):
    # dim 27,750 (n = 3) and 178,360 (n = 4) for the conditional lower bound;
    # n = 5 failed the summability witness 0.1 before it scaled with rank;
    # at n = 8 the dense fiber block of P, 3,600^2 complex entries, is gone
    assert run_cli(["verify-all", "--n", rank, "--R", 2, "--out", tmp_path]) == 0
    obj = json.loads((tmp_path / "verify-all.json").read_text())
    assert obj["ok"] and all(c["ok"] for c in obj["checks"])


# ----------------------------------------------------------------------
# contract fuzz: every subcommand, settings from flags and config, valid
# small values and malformed ones

_MALFORMED = st.sampled_from(
    [-1, -0.5, 0.5, 2.5, math.nan, math.inf, -math.inf, True, False, "x", "", [1], [], {}]
)
# finite numbers just outside the accepted range of p and epsilon
_OUT_OF_RANGE = {
    "epsilon": st.sampled_from([1e-310, EPSILON_RANGE[0] / 2, 16.5, 1e300]),
    "p": st.sampled_from([1e-300, P_RANGE[0] / 2, 65.0, 1e6, 1e300]),
}
_VALID = {
    "rank": st.sampled_from([2, 2, 3]),  # the input files are over F_2
    "degree": st.sampled_from([1, 3, 3]),  # the terms file has four terms
    "m": st.integers(1, 2),
    "oracle_R": st.integers(0, 2),
    "oracle_m": st.integers(1, 2),
    "epsilon": st.floats(*EPSILON_RANGE),  # the whole accepted range
    "p": st.lists(st.floats(*P_RANGE), min_size=1, max_size=2),
    "g": st.sampled_from(["a", "B", "aB", "1", "z"]),
    "max_power": st.integers(1, 4),
    "depth": st.integers(1, 2),
    "seed": st.integers(-3, 3),
    "tol_scale": st.sampled_from([0.0, 0.5, 1.0, 2.0]),  # 0 fails some checks
    "budget": st.sampled_from([50, 10**6, 10**7]),  # 50 stops most reports
}
# radii stay small so that every report runs in well under a second
_RADIUS = {
    "growth": (0, 3),
    "deviation": (0, 2),
    "summability": (3, 4),
    "spectrum": (0, 1),
    "chern": (0, 2),
    "verify-all": (0, 1),
}
_FILES = {"phi": "phi.json", "input": "terms.json"}
# every setting of each subcommand but --out, and the flags that differ from --<name>
_COMMANDS = {
    "growth": ["rank", "radius", "budget"],
    "deviation": ["rank", "phi", "radius", "budget"],
    "summability": ["rank", "phi", "radius", "epsilon", "p", "budget"],
    "spectrum": ["rank", "phi", "radius", "m", "epsilon", "p", "budget"],
    "chern": ["degree", "rank", "input", "radius", "oracle_R", "oracle_m", "budget"],
    "furstenberg": ["rank", "g", "max_power", "depth", "budget"],
    "verify-all": ["rank", "radius", "seed", "tol_scale", "epsilon", "budget"],
}
_FLAGS = {
    "rank": "--n",
    "radius": "--R",
    "oracle_R": "--oracle-R",
    "oracle_m": "--oracle-m",
    "max_power": "--max-power",
    "tol_scale": "--tol-scale",
}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.data())
def test_main_keeps_the_exit_code_contract(data):
    command = data.draw(st.sampled_from(sorted(_COMMANDS)))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_phi(tmp, name="phi.json")
        terms = json.loads(write_terms(tmp).read_text())
        if data.draw(st.integers(0, 3)) == 0:  # one malformed entry in each input file
            (tmp / "phi.json").write_text(json.dumps({"depth": 1, "values": {"a": ["1/0"]}}))
            terms["terms"][1]["g"] = data.draw(_MALFORMED)
            (tmp / "terms.json").write_text(json.dumps(terms))
        argv, config = [command], {}
        for name in _COMMANDS[command]:
            source = data.draw(st.sampled_from(["none", "flag", "config"]))
            if source == "none":
                continue
            if name in _FILES:
                value = str(tmp / _FILES[name])
            elif data.draw(st.integers(0, 5)) == 0:
                value = data.draw(_MALFORMED | _OUT_OF_RANGE.get(name, st.nothing()))
            elif name == "radius":
                value = data.draw(st.integers(*_RADIUS[command]))
            else:
                value = data.draw(_VALID[name])
            if source == "config":
                config[name] = value
                continue
            flag = _FLAGS.get(name, f"--{name}")
            for item in value if isinstance(value, list) and name == "p" else [value]:
                argv.append(f"{flag}={item}")
        if config:
            (tmp / "conf.json").write_text(json.dumps(config))
            argv.append(f"--config={tmp / 'conf.json'}")
        argv.append(f"--out={tmp / 'out'}")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv, config)
        assert code != 1 or command in ("verify-all", "chern"), (argv, config, err.getvalue())
        assert "Traceback" not in err.getvalue()


# ----------------------------------------------------------------------
# one rendering of each number kind

# small runs of every subcommand; p = 4 gives summability an exact total
_RENDER_ROUTES = dict(
    _ROUTES,
    summability=["--phi", "{phi}", "--R", "4", "--p", "2", "--p", "3", "--p", "4"],
    spectrum=["--phi", "{phi}", "--R", "1", "--p", "2.5"],
)
_MARK = re.compile(r"<[QF](.*?)>")
_WHOLE_NUMBER = re.compile(r"-?\d+/\d+|-?\d*\.?\d+(e[+-]?\d+)?|-?inf|nan")
_DECIMAL = re.compile(r"\d\.\d|\de[+-]?\d|\binf\b|\bnan\b")
# fields and columns that hold words or integers, and those that hold text
_WORD_KEYS = {"g", "group_product", "endpoint"}
_PLAIN_COLUMNS = {"g", "|g|", "m", "R", "closed_form", "enumerated", "index", "name", "ok"}
_TEXT = {"detail"}


def _mark_renderings(monkeypatch):
    """Wrap the output of the one "p/q" and the one float rendering in
    markers, <Q...> and <F...>, wherever a module binds them."""
    import treeboundary.functions as functions

    for original, mark in ((functions.frac_str, "Q"), (functions.float_str, "F")):
        def marked(x, original=original, mark=mark):
            return f"<{mark}{original(x)}>"

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "treeboundary":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, marked)


def _check_leaf(plain, marked, name, plain_names, where):
    """``marked`` is ``plain`` with markers added; a field named in
    ``plain_names`` needs none, text needs one around each decimal number,
    and any other field that holds a number is one marker."""
    assert _MARK.sub(r"\1", marked) == plain, where
    if name in plain_names:
        return
    if name not in _TEXT and _WHOLE_NUMBER.fullmatch(plain):
        assert _MARK.fullmatch(marked), where
    assert not _DECIMAL.search(_MARK.sub("", marked)), where


def _check_json(plain, marked, where, key=None):
    if isinstance(plain, dict):
        assert plain.keys() == marked.keys(), where
        for k in plain:
            _check_json(plain[k], marked[k], f"{where}.{k}", k)
    elif isinstance(plain, list):
        assert len(plain) == len(marked), where
        for i, (p, m) in enumerate(zip(plain, marked)):
            _check_json(p, m, f"{where}[{i}]", key)
    elif isinstance(plain, str):
        _check_leaf(plain, marked, key, _WORD_KEYS, where)
    else:
        assert plain == marked, where


@pytest.mark.parametrize("command", sorted(_RENDER_ROUTES))
def test_every_rendered_number_comes_from_the_one_rendering(tmp_path, monkeypatch, command):
    # a report field rendered by anything but functions.frac_str or
    # functions.float_str stays unmarked and fails here
    paths = {"phi": write_phi(tmp_path), "terms": write_terms(tmp_path)}
    argv = [command, *(a.format(**paths) for a in _RENDER_ROUTES[command])]
    assert run_cli([*argv, "--out", tmp_path / "plain"]) == 0
    _mark_renderings(monkeypatch)
    assert run_cli([*argv, "--out", tmp_path / "marked"]) == 0
    marks = 0
    for suffix in ("json", "csv"):
        plain, marked = (
            (tmp_path / side / f"{command}.{suffix}").read_text() for side in ("plain", "marked")
        )
        marks += len(_MARK.findall(marked))
        if suffix == "json":
            _check_json(json.loads(plain), json.loads(marked), command)
            continue
        plain_rows, marked_rows = (list(csv.reader(io.StringIO(t))) for t in (plain, marked))
        header = plain_rows[0]
        assert marked_rows[0] == header and len(marked_rows) == len(plain_rows)
        for i, (p, m) in enumerate(zip(plain_rows[1:], marked_rows[1:]), 1):
            for column, a, b in zip(header, p, m, strict=True):
                _check_leaf(a, b, column, _PLAIN_COLUMNS, f"{command}.csv[{i}].{column}")
    assert marks or command == "growth"


# dense depth-1 F2 tables, every value a nonzero Gaussian rational, like the
# benchmark's inputs: one per term of g = a, A, b, B
DENSE_VALUES = [
    {"A": ["4/7", "5/11"], "B": ["-7/13", "-9/17"], "a": ["4/5", "5/7"], "b": ["-10/11", "-11/13"]},
    {"A": ["1/7", "3/11"], "B": ["-11/13", "1/17"], "a": ["3/5", "-4/7"], "b": ["-7/11", "-3/13"]},
    {"A": ["-1/7", "-9/11"], "B": ["-10/13", "-14/17"], "a": ["4/5", "-1/7"], "b": ["1/11", "-7/13"]},
    {"A": ["-4/7", "6/11"], "B": ["-1/13", "-13/17"], "a": ["-3/5", "2/7"], "b": ["-10/11", "-1/13"]},
]


def _deep_terms(tmp_path):
    """Degree-3 terms with g = a, A, b, B and functions of depths 2, 4, 1, 2:
    at --oracle-R 3 --oracle-m 6 the depth-4 term's blocks at the points
    A h of length 3 hold depth-6 cells that the depth-7 walk splits (exact
    averages of the runs under them), and the depth-2 and depth-4 terms have blocks whose cancellation
    cylinder is the whole fiber (t = 0)."""
    def table(depth, shift):
        cells = F2.iter_sphere_letters(depth)
        return {"depth": depth, "values": {
            word_to_str(u): [f"{(5 * i + shift) % 13 - 6}/{7 + i % 5}",
                             f"{(3 * i + 2 * shift) % 11 - 5}/{9 + i % 4}"]
            for i, u in enumerate(cells)
        }}

    terms = tmp_path / "deep_terms.json"
    terms.write_text(json.dumps({
        "rank": 2,
        "degree": 3,
        "terms": [
            {"phi": table(depth, shift), "g": g}
            for depth, shift, g in ((2, 1, "a"), (4, 4, "A"), (1, 2, "b"), (2, 7, "B"))
        ],
    }))
    return terms


def _shared_terms(tmp_path):
    """Degree-3 terms with g = a, A, b, B whose tables, of depths 1, 2, 1, 1,
    have denominators 4, 6, 9, 12 and 18, which share factors: a product's
    common denominator D_f D_g is then not the lcm of its values'."""
    dens = (4, 6, 9, 12, 18)

    def table(depth, shift):
        cells = F2.iter_sphere_letters(depth)
        return {"depth": depth, "values": {
            word_to_str(u): [f"{(7 * i + shift) % 11 - 5}/{dens[(i + shift) % 5]}",
                             f"{(5 * i + 3 * shift) % 13 - 6}/{dens[(2 * i + shift) % 5]}"]
            for i, u in enumerate(cells)
        }}

    terms = tmp_path / "shared_terms.json"
    terms.write_text(json.dumps({
        "rank": 2,
        "degree": 3,
        "terms": [
            {"phi": table(depth, shift), "g": g}
            for depth, shift, g in ((1, 1, "a"), (2, 2, "A"), (1, 3, "b"), (1, 4, "B"))
        ],
    }))
    return terms


def _dense_inputs(tmp_path):
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"rank": 2, "depth": 1, "values": DENSE_VALUES[0]}))
    terms = tmp_path / "terms.json"
    terms.write_text(json.dumps({
        "rank": 2,
        "degree": 3,
        "terms": [
            {"phi": {"depth": 1, "values": values}, "g": g}
            for values, g in zip(DENSE_VALUES, ("a", "A", "b", "B"))
        ],
    }))
    return {
        "deviation": ["--phi", phi],
        "summability": ["--phi", phi],
        "spectrum": ["--phi", phi],
        "chern": ["--input", terms],
        "chern oracle 3": ["--input", terms],
        "chern depths 1-4": ["--input", _deep_terms(tmp_path)],
        "chern shared denominators": ["--input", _shared_terms(tmp_path)],
    }


# sha256 of <command>.json and <command>.csv on the inputs above, by input:
# chern and summability taken before the cocycle summand read products of
# consecutive arguments and the whole-group series shared one charged solve,
# spectrum and chern depths 1-4 before the fiber walks were shared by shape,
# deviation, chern oracle 3 and chern shared denominators before the tables
# of locally constant functions were kept as integer numerators alone
REPORT_SHA256 = {
    "deviation": (
        ("deviation", "--R", 5),
        "5e36f61e8f5767f1787f7ebc999c817360ea9221153ac38a950d409765cb5886",
        "f7df22bd64397b573dfabf08ae70bdf86c9d4a92469ffa8910ed6296ae7c0e1a",
    ),
    "chern": (
        ("chern", "--radius", 4, "--oracle-R", 5, "--oracle-m", 5),
        "4ce25a704c783959cbc4c8f7bf69fd2f585ad0ffa5fea1ca3ae4827a884cacc5",
        "43d71b9cfc4f7f12832a5b23553cf2f163a157983bb7e10962f05958d8735ad4",
    ),
    "chern oracle 3": (
        ("chern", "--radius", 4, "--oracle-R", 3, "--oracle-m", 3),
        "56f6d1b879ae9ec35d944d619b2e41b7c7d229c6aecdf84e0323a1e2bfe1db30",
        "43d71b9cfc4f7f12832a5b23553cf2f163a157983bb7e10962f05958d8735ad4",
    ),
    "chern shared denominators": (
        ("chern", "--radius", 4, "--oracle-R", 3, "--oracle-m", 3),
        "7fd4319a0ebb582565645feb3ef7c96e7463faca79dbcbb4e2e420589699f846",
        "7865755a77d7ae7f3a3edc0d343ce6eb9fb501d1b258c183d9de39013fca3704",
    ),
    "summability": (
        ("summability", "--R", 7, "--p", 2, "--p", 3, "--p", 4),
        "a5750b2976f852997819d4d010d494f1e339da1665564861a4b83dd2237dfe3e",
        "29884514d622e6999036981a5e9c5df809325cb6bbddc93e185c7236d656558f",
    ),
    "spectrum": (
        ("spectrum", "--R", 2, "--m", 3),
        "d131af2c60d1a3066c29a9b152617f439631656109c8105f094d515872dcea5d",
        "eb148f279972cc98a6f7356ee06103171b008546509107f7fbc35934364e0945",
    ),
    "chern depths 1-4": (
        ("chern", "--radius", 2, "--oracle-R", 3, "--oracle-m", 6),
        "741106fbf9ff3beaa962f0c6cec951f64aaf2abad4d1bccfb3dff3483a2019b0",
        "537a77bcaa6dcc4411dfcca7b23f6640f22928ffafe28c79ad3b3d2b6d2ba638",
    ),
}


@pytest.mark.parametrize("name", list(REPORT_SHA256))
def test_reports_are_byte_stable(tmp_path, name):
    args, *want = REPORT_SHA256[name]
    assert run_cli([*args, *_dense_inputs(tmp_path)[name], "--out", tmp_path / "out"]) == 0
    digests = [
        hashlib.sha256((tmp_path / "out" / f"{args[0]}.{ext}").read_bytes()).hexdigest()
        for ext in ("json", "csv")
    ]
    assert digests == want


@pytest.mark.parametrize("name, R, m", [("chern", 5, 5), ("chern depths 1-4", 3, 6)])
def test_both_chern_routes_read_one_chain(tmp_path, monkeypatch, name, R, m):
    # at every exact h the trace oracle reads the fiber block of phi_i at
    # s_i h, s_i = g_i ... g_n, and the cocycle value reads E(phi_i) and
    # E(pair_i) at that same point
    obj = json.loads(Path(_dense_inputs(tmp_path)[name][1]).read_text())
    terms = [
        (LocallyConstantFunction.from_json_obj(t["phi"], F2), F2.word(t["g"])) for t in obj["terms"]
    ]
    inp, trunc = CocycleInput(obj["degree"], terms), Truncation(F2, R, m)
    reads = []
    runs, sums = chern.fiber_runs, chern._sums
    monkeypatch.setattr(
        chern, "fiber_runs", lambda f, x, t: reads.append((id(f), x)) or runs(f, x, t)
    )
    monkeypatch.setattr(chern, "_sums", lambda f, x: reads.append((id(f), x)) or sums(f, x))
    report = chern.trace_oracle_report(inp, trunc)
    # the oracle reads n + 1 blocks for each h whose chain stays in B_R
    chains = [reads[i : i + len(terms)] for i in range(0, len(reads), len(terms))]
    exact = [
        chain for chain in chains
        if all(phi.depth + len(x) <= m for (phi, _), (_, x) in zip(terms, chain))
    ]
    assert len(exact) == len(report.traces) > 0
    # the chain multiplied out here, apart from CocycleInput.suffixes
    suffixes = [reduce(mul, [g for _, g in terms[i:]], IDENTITY) for i in range(len(terms))]
    value = chern.cocycle_value(inp, 0)
    phis = [id(phi) for phi, _ in terms]
    for h, oracle_reads in zip(report.traces, exact):
        reads.clear()
        value.classes.clear()
        value(h)
        points = [mul(s, h) for s in suffixes]
        assert oracle_reads == list(zip(phis, points))
        assert reads == list(zip(phis + [id(pair) for pair in value.pairs], points + points))
