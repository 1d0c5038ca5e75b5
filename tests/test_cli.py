"""CLI surface: exit codes, report schemas, precedence, determinism."""

import json
import math
import os
import subprocess
import sys

import pytest

from treeboundary import FreeGroup, LocallyConstantFunction
from treeboundary.cli import main

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
    assert obj["reports"][1]["verdict"] == "converging"
    # floats travel as 17-digit strings
    assert isinstance(obj["reports"][0]["sphere_sums"][0], str)


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
    assert obj["certified"] is True
    assert obj["oracle"]["consistent"] is True
    assert obj["group_product"] == "1"


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


def test_integral_settings_still_accepted(tmp_path):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"rank": 2.0, "radius": "2"}))
    assert run_cli(["growth", "--config", config, "--out", tmp_path]) == 0
    obj = json.loads((tmp_path / "growth.json").read_text())
    assert (obj["rank"], obj["radius"]) == (2, 2)


def test_non_integral_rank_in_function_file_is_usage_error(tmp_path, capsys):
    phi_path = write_phi(tmp_path)
    phi = json.loads(phi_path.read_text())
    phi["rank"] = 2.5
    phi_path.write_text(json.dumps(phi))
    assert run_cli(["deviation", "--phi", phi_path, "--out", tmp_path]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("rank", [3, 4])
def test_verify_all_passes_at_higher_rank(tmp_path, rank):
    # dim 27,750 (n = 3) and 178,360 (n = 4) for the conditional lower bound
    assert run_cli(["verify-all", "--n", rank, "--R", 2, "--out", tmp_path]) == 0
    obj = json.loads((tmp_path / "verify-all.json").read_text())
    assert obj["ok"] and all(c["ok"] for c in obj["checks"])
