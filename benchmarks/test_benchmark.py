"""Tests of the benchmark itself.

    python3 -m pytest benchmarks -q

Every output check must accept a genuine report and reject one with a single
field corrupted, and a traced report's self times must account for its wall
time.
"""

from __future__ import annotations

import copy
import importlib
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

cli = importlib.import_module("treeboundary.cli")


def _nudge(pq: str) -> str:
    """A "p/q" string moved by 10^-9."""
    value = Fraction(pq) + Fraction(1, 10**9)
    return f"{value.numerator}/{value.denominator}"


@pytest.fixture(scope="module")
def case(tmp_path_factory):
    base = tmp_path_factory.mktemp("reports")
    paths = inputs.write_inputs(base / "inputs", seed=7)

    def report(*argv: str) -> dict:
        out = base / argv[0]
        assert cli.main([*argv, "--out", str(out)]) == 0
        return json.loads((out / f"{argv[0]}.json").read_text())

    phi = str(paths["phi_f2"])
    return {
        "paths": paths,
        "phi": checks.load_function(paths["phi_f2"]),
        "deviation": report("deviation", "--phi", phi, "--R", "4"),
        "summability": report("summability", "--phi", phi, "--R", "4", "--p", "2", "--p", "3"),
        "spectrum": report("spectrum", "--phi", str(paths["phi_spectrum"]), "--R", "1", "--m", "2"),
        "chern": report(
            "chern", "--input", str(paths["terms"]), "--radius", "2", "--oracle-R", "3", "--oracle-m", "3"
        ),
        "verify": report("verify-all", "--n", "2", "--R", "2"),
    }


def test_inputs_are_dense_and_seeded(tmp_path):
    first = inputs.write_inputs(tmp_path / "a", seed=3)
    again = inputs.write_inputs(tmp_path / "b", seed=3)
    other = inputs.write_inputs(tmp_path / "c", seed=4)
    for role, path in first.items():
        assert path.read_text() == again[role].read_text()
        assert path.read_text() != other[role].read_text()
    phi = checks.load_function(first["phi_f3"])
    assert phi.group.n == 3 and phi.depth == 1
    assert all(v.re and v.im for v in phi.values.values())


@pytest.mark.parametrize("field", ["deviation_sq", "expectation"])
def test_deviation_check_rejects_a_perturbed_row(case, field):
    report, phi = case["deviation"], case["phi"]
    sample = checks.sample_rows(len(report["rows"]), random.Random(0))
    assert checks.check_deviation(report, phi, 4, sample) is None

    bad = copy.deepcopy(report)
    row = bad["rows"][sample[-1]]
    if field == "deviation_sq":
        row["deviation_sq"] = _nudge(row["deviation_sq"])
    else:
        row["expectation"][1] = _nudge(row["expectation"][1])
    assert checks.check_deviation(bad, phi, 4, sample) is not None


def test_deviation_check_rejects_a_missing_row(case):
    bad = copy.deepcopy(case["deviation"])
    bad["rows"].pop()
    assert checks.check_deviation(bad, case["phi"], 4, []) is not None


def test_summability_check_rejects_a_perturbed_sum(case):
    assert checks.check_summability(case["summability"], case["deviation"]) is None

    bad_deviation = copy.deepcopy(case["deviation"])
    row = bad_deviation["rows"][-1]
    row["deviation_sq"] = _nudge(row["deviation_sq"])
    assert checks.check_summability(case["summability"], bad_deviation) is not None

    bad = copy.deepcopy(case["summability"])
    p2 = next(r for r in bad["reports"] if float(r["p"]) == 2.0)
    p2["sphere_sums"][2] = repr(float(p2["sphere_sums"][2]) * (1 + 1e-12))
    assert checks.check_summability(bad, case["deviation"]) is not None


@pytest.mark.parametrize("field", sorted(checks.SPECTRUM_TOLERANCES))
def test_spectrum_check_rejects_an_error_above_tolerance(case, field):
    assert checks.check_spectrum(case["spectrum"]) is None
    bad = copy.deepcopy(case["spectrum"])
    bad[field] = repr(checks.SPECTRUM_TOLERANCES[field] * 10)
    assert checks.check_spectrum(bad) is not None
    bad[field] = "nan"
    assert checks.check_spectrum(bad) is not None


@pytest.mark.parametrize("part", ["re", "im"])
def test_chern_check_rejects_a_shifted_oracle(case, part):
    assert checks.check_chern(case["chern"]) is None
    bad = copy.deepcopy(case["chern"])
    value = bad["oracle"]["value"]
    value[part] = repr(float(value[part]) + 1e-9)
    assert checks.check_chern(bad) is not None


def test_verify_check_rejects_a_failed_check(case):
    assert checks.check_verify(case["verify"]) is None
    bad = copy.deepcopy(case["verify"])
    bad["checks"][-1]["ok"] = False
    assert checks.check_verify(bad) is not None
    missing = copy.deepcopy(case["verify"])
    missing["checks"].pop()
    assert checks.check_verify(missing) is not None


def test_traced_self_times_account_for_the_wall_time(case, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    spec = {
        "argv": ["deviation", "--phi", str(case["paths"]["phi_f2"]), "--R", "3"],
        "inputs": [str(case["paths"]["phi_f2"])],
        "out": str(out),
        "result": str(tmp_path / "result.json"),
        "mode": "trace",
        "in_process_checks": False,
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    subprocess.run([sys.executable, str(HERE / "child.py"), str(tmp_path / "spec.json")], check=True)
    result = json.loads((tmp_path / "result.json").read_text())

    import numpy as np

    with np.load(tmp_path / "result.npz") as spans:
        part = tracing.summarize(result["names"], spans)
    part.update(counters=result["counters"], wall_s=result["wall_s"], bytes_written=result["bytes_written"])
    total: dict = {}
    tracing.merge(total, part)
    total["untraced_wall_s"] = result["wall_s"]
    metrics = tracing.layer_metrics(total)

    rows = 1 + 4 + 12 + 36
    assert metrics["deviation.rows"] == rows
    assert metrics["deviation.expectation_calls"] == 2 * rows
    assert metrics["boundary.pushforward_calls"] == 2 * rows * 4
    assert metrics["deviation.nonzero_cell_frac"] == 1.0
    assert metrics["words.enumerated"] == rows
    assert 0 <= metrics["trace.unaccounted_s"] < 1e-3
    layers = [f"{layer}.self_s" for layer in ("boundary", "functions", "deviation", "summability",
                                              "operators", "chern", "verify", "cli")]
    accounted = sum(metrics[m] for m in layers) + metrics["words.enum_s"] + metrics["svd.s"]
    assert accounted == pytest.approx(metrics["trace.wall_s"] - metrics["trace.unaccounted_s"])


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    expected = [(name, unit) for name, unit, _ in tracing.PER_LAYER]
    expected += [(name, "s") for name in run.SUBCOMMAND_METRICS.values()]
    assert per_layer == expected
