"""Schatten summability diagnostics against the growth/decay arithmetic."""

import gc
import json
import math
import random
import weakref
from fractions import Fraction

import pytest

from treeboundary import (
    BudgetError,
    DeviationProfile,
    FreeGroup,
    LocallyConstantFunction,
    VisualStructure,
    decay_exponent_fit,
    dplus_surrogate_check,
    hausdorff_dimension,
    lp_report,
    random_unit_function,
    sphere_series,
    summability_threshold,
)
from treeboundary import deviation, summability
from treeboundary.cli import main

F2 = FreeGroup(2)
F3 = FreeGroup(3)
VS2 = VisualStructure(F2, math.log(3))

IA = LocallyConstantFunction.indicator(F2, F2.word("a"))


@pytest.fixture(scope="module")
def profile_r6():
    return DeviationProfile.compute(IA, 6, label="indicator_a")


def test_dimension_formula():
    assert abs(hausdorff_dimension(VS2) - 1.0) <= 1e-15
    assert hausdorff_dimension(VisualStructure(F2, math.log(3) / 2)) == (
        pytest.approx(2.0)
    )
    assert hausdorff_dimension(
        VisualStructure(F3, math.log(5))
    ) == pytest.approx(1.0)


def test_visual_parameter_defaults_to_the_growth_rate():
    # epsilon = ln(2n-1), the parameter of dimension 1
    vs = VisualStructure(F3)
    assert vs.epsilon == math.log(5)
    assert hausdorff_dimension(vs) == 1.0


def test_threshold_is_max_of_two_and_dimension():
    assert summability_threshold(VS2) == 2.0
    fine = VisualStructure(F2, math.log(3) / 5.0)  # dimension 5
    assert summability_threshold(fine) == pytest.approx(5.0)


def test_p3_converges_p2_diverges(profile_r6):
    r3 = lp_report(profile_r6, 3.0, VS2)
    assert r3.verdict == "converging"
    # sphere ratios approach 3 * 3^(-3/2) = 3^(-1/2)
    assert r3.tail_ratios[-1] == pytest.approx(3 ** -0.5, abs=0.02)
    r2 = lp_report(profile_r6, 2.0, VS2)
    assert r2.verdict == "diverging" and r2.total is None
    # p = 2 sphere sums approach 1/2 from below: no decay
    assert all(s >= 0.1 for s in r2.sphere_sums)
    assert r2.sphere_sums[-1] == pytest.approx(0.5, abs=0.01)


def test_even_p_sphere_sums_exact(profile_r6):
    # p = 2 path sums Fractions; compare to a direct rational sum
    from fractions import Fraction

    r2 = lp_report(profile_r6, 2.0, VS2)
    for m in range(7):
        direct = sum(
            (row.deviation_sq for row in profile_r6.rows if row.length == m),
            Fraction(0),
        )
        assert r2.sphere_sums[m] == float(direct)


def test_report_validation(profile_r6):
    with pytest.raises(ValueError):
        lp_report(DeviationProfile.compute(IA, 3), 2.0, VS2)  # radius < 4
    with pytest.raises(ValueError):
        lp_report(profile_r6, 0.0, VS2)


def test_constant_function_report_trivial():
    one = LocallyConstantFunction.constant(F2, 1)
    profile = DeviationProfile.compute(one, 4, label="one")
    report = lp_report(profile, 2.0, VS2)
    assert all(s == 0.0 for s in report.sphere_sums)
    assert report.verdict == "converging" and report.total == 0


def test_decay_exponent_fit(profile_r6):
    # sigma ~ 3^(-m/2) so log sigma / m -> -(ln 3)/2 = -0.5493
    slope = decay_exponent_fit(profile_r6)
    assert slope == pytest.approx(-math.log(3) / 2, abs=0.06)


def test_decay_exponent_fit_rank3():
    phi = LocallyConstantFunction.indicator(F3, F3.word("a"))
    profile = DeviationProfile.compute(phi, 4, label="indicator_a")
    slope = decay_exponent_fit(profile)
    assert slope == pytest.approx(-math.log(5) / 2, abs=0.06)


def test_decay_exponent_fit_of_a_constant_is_none_and_short_profiles_raise():
    constant = LocallyConstantFunction.constant(F2, Fraction(1, 2))
    assert decay_exponent_fit(DeviationProfile.compute(constant, 5)) is None
    with pytest.raises(ValueError, match="at least 4 spheres"):
        decay_exponent_fit(DeviationProfile.compute(IA, 3))
    with pytest.raises(ValueError, match="at least 4 spheres"):
        decay_exponent_fit(DeviationProfile.compute(constant, 0))


@pytest.mark.parametrize("group, radius", [(F2, 6), (F3, 4)], ids=["F2", "F3"])
def test_decay_exponent_fit_matches_the_numpy_fit(group, radius):
    # the former numpy route, kept as the reference: the same logs, the
    # slope of np.polyfit; the order of the sums differs, hence 1e-12
    np = pytest.importorskip("numpy")
    phi = LocallyConstantFunction.indicator(group, group.word("a")) * (2, 1)
    profile = DeviationProfile.compute(phi, radius)
    points = [(m, 0.5 * math.log(float(s))) for m, s in enumerate(profile.sphere_max_sq()) if m]
    want = np.polyfit(*np.array(points).T, 1)[0]
    assert decay_exponent_fit(profile) == pytest.approx(want, abs=1e-12)


def test_dplus_surrogate_ratios_are_exact_at_the_sorted_slots():
    # (|B_m| / 3^m)^(1/D) / C at D = 1, C = 2: |B_m| = 2 * 3^m - 1, so the
    # ratio is 1 - 3^-m / 2, exact in binary64 up to rounding of the quotient
    check = dplus_surrogate_check(F2, VS2, 700)
    assert check.ok and check.max_ratio == 1.0  # 1 - 3^-700 / 2 rounds to 1
    assert dplus_surrogate_check(F2, VS2, 3).max_ratio == pytest.approx(1 - 1 / 54, abs=1e-15)


def test_dplus_surrogate():
    check = dplus_surrogate_check(F2, VS2, 6)
    assert check.ok
    assert check.dimension == pytest.approx(1.0)
    assert check.max_ratio <= 1.0 + 1e-12
    # epsilon twice as coarse halves the dimension and still passes
    coarse = dplus_surrogate_check(F2, VisualStructure(F2, 2 * math.log(3)), 6)
    assert coarse.ok
    assert coarse.dimension == pytest.approx(0.5)


def test_report_json_shape(profile_r6):
    obj = lp_report(profile_r6, 3.0, VS2).to_json_obj()
    assert obj["p"] == 3.0
    assert obj["verdict"] == "converging"
    assert len(obj["sphere_sums"]) == 7
    assert obj["threshold"] == 2.0
    assert "total_exact" not in obj  # odd p
    assert lp_report(profile_r6, 4.0, VS2).to_json_obj()["total_exact"] == "417/3328"
    assert lp_report(profile_r6, 2.0, VS2).to_json_obj()["total_exact"] is None


@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("group", [F2, F3], ids=["F2", "F3"])
def test_sphere_sums_match_the_row_by_row_oracle(group, depth):
    # the per-class sums against the rows of each sphere, bitwise: exact
    # rational sums for even p, otherwise the rows' float terms summed
    # exactly and rounded once
    rng = random.Random(group.n + 10 * depth)
    values = [0, 1, Fraction(-2, 3), 1j, (Fraction(5, 7), Fraction(-1, 3))]
    phi = LocallyConstantFunction(
        group, depth, {w: rng.choice(values) for w in group.sphere(depth)}
    )
    profile = DeviationProfile.compute(phi, 5 if group is F2 else 4)
    vs = VisualStructure(group, math.log(2 * group.n - 1))
    spheres = [
        [r.deviation_sq for r in profile.rows if r.length == m]
        for m in range(profile.radius + 1)
    ]
    assert profile.sphere_max_sq() == [max(s) for s in spheres]
    for p in (2.0, 4.0):
        got = lp_report(profile, p, vs).sphere_sums
        want = [float(sum((s ** int(p / 2) for s in ss), Fraction(0))) for ss in spheres]
        assert [x.hex() for x in got] == [x.hex() for x in want]
    for p in (3.0, 2.5):
        got = lp_report(profile, p, vs).sphere_sums
        want = [float(sum((Fraction(float(s) ** (p / 2.0)) for s in ss), Fraction(0))) for ss in spheres]
        assert [x.hex() for x in got] == [x.hex() for x in want]


# the benchmark's seed-1 dense F2 function
PHI_F2 = LocallyConstantFunction.from_json_obj(
    {"depth": 1, "values": {
        "A": ["-1/7", "5/11"], "B": ["12/13", "-12/17"], "a": ["2/5", "-1/7"], "b": ["-4/11", "9/13"]
    }},
    F2,
)


def with_budget(phi, budget):
    """``phi`` over a group of its rank that carries ``budget``."""
    return LocallyConstantFunction(FreeGroup(phi.group.n, budget), phi.depth, phi.values)


def _sigma_p(profile, m, half):
    """The exact sum of sigma^(2 half) over sphere m."""
    return sum((c.multiplicity * c.deviation_sq**half for c in profile.sphere(m)), Fraction(0))


def test_even_p_total_is_the_limit_of_the_partial_sums():
    total = lp_report(DeviationProfile.compute(PHI_F2, 4), 4.0, VS2).total
    deep = DeviationProfile.compute(with_budget(PHI_F2, 10**20), 40)
    report = lp_report(deep, 4.0, VS2)
    assert report.total == total
    assert float(total) == report.partial_sum == pytest.approx(0.96933314264895, abs=1e-14)
    # the exact tail past sphere 40
    partial = sum((_sigma_p(deep, m, 2) for m in range(41)), Fraction(0))
    assert 0 < total - partial < Fraction(1, 3**38)
    # p = 2 on the dense function diverges: its sphere sums tend to 1.4536
    l2 = lp_report(DeviationProfile.compute(PHI_F2, 8), 2.0, VS2)
    assert l2.verdict == "diverging" and l2.total is None
    assert l2.sphere_sums[-1] == pytest.approx(1.4536, abs=1e-3)


def test_even_p_series_check_sphere_has_teeth():
    # p = 4: powers 1..3 past K = depth 1; sphere 0 is off the series
    profile = DeviationProfile.compute(PHI_F2, 4)
    total = sphere_series(lambda m: _sigma_p(profile, m, 2), 3, 1, 1, 3)
    assert total == lp_report(profile, 4.0, VS2).total
    with pytest.raises(AssertionError, match="off the series"):
        sphere_series(lambda m: _sigma_p(profile, m, 2), 3, 0, 1, 3)
    with pytest.raises(AssertionError, match="off the series"):
        sphere_series(lambda m: _sigma_p(profile, m, 2), 3, 1, 2, 3)


def test_even_total_charges_its_series_classes(tmp_path, capsys):
    # depth 5 and p = 2: powers 0..1 past K = 5 solve from spheres 5, 6 and
    # check on 7, 3 x |S_5| = 972 classes at radii 324 (5 + 6 + 7) = 5,832,
    # charged before any is evaluated
    phi = random_unit_function(F2, 5, random.Random(0))
    with pytest.raises(BudgetError, match="972 prefix classes exceed budget 971"):
        lp_report(DeviationProfile.compute(with_budget(phi, 971), 4), 2.0, VS2)
    with pytest.raises(BudgetError, match="5832 class sphere radii exceed budget 5831"):
        lp_report(DeviationProfile.compute(with_budget(phi, 5831), 4), 2.0, VS2)
    obj = phi.to_json_obj()
    obj["rank"] = 2
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(obj))
    argv = ["summability", "--phi", str(path), "--R", "4", "--p", "2", "--out", str(tmp_path)]
    assert main([*argv, "--budget", "971"]) == 3
    assert "972 prefix classes exceed budget 971" in capsys.readouterr().err
    assert main([*argv, "--budget", "5831"]) == 3
    assert "5832 class sphere radii exceed budget 5831" in capsys.readouterr().err
    assert main([*argv, "--budget", "5832"]) == 0
def test_even_total_charges_the_head_spheres_past_the_radius(monkeypatch):
    # depth 6, R = 4 and p = 4: powers 1..3 past K = 6 read spheres 6..9,
    # 4 x |S_6| = 3,888 classes, and the head sphere 5, past the profile's
    # radius, another |S_5| = 324: all 4,212 are charged, at radii
    # 5 x 324 + 972 (6 + 7 + 8 + 9) = 30,780, and evaluated
    phi = random_unit_function(F2, 6, random.Random(0))
    with pytest.raises(BudgetError, match="4212 prefix classes exceed budget 3888"):
        lp_report(DeviationProfile.compute(with_budget(phi, 3888), 4), 4.0, VS2)
    with pytest.raises(BudgetError, match="30780 class sphere radii exceed budget 30779"):
        lp_report(DeviationProfile.compute(with_budget(phi, 30779), 4), 4.0, VS2)
    profile = DeviationProfile.compute(with_budget(phi, 30780), 4)
    calls = []
    evaluate = deviation.mean_and_deviation_sq

    def counted(f, g):
        calls.append(g)
        return evaluate(f, g)

    monkeypatch.setattr(deviation, "mean_and_deviation_sq", counted)
    assert lp_report(profile, 4.0, VS2).total is not None
    assert len(calls) == 4212




def test_even_totals_at_several_p_read_each_series_sphere_once(monkeypatch):
    # depth 6, R = 4: p = 2 reads spheres 6..8 (2,916 classes) and diverges
    # before its head sphere; p = 4 then needs spheres 5..9, of which only
    # sphere 5 (324) and sphere 9 (972) are new: 4,212 in all, not 7,128;
    # the p = 4 series charges those classes at radii 30,780
    phi = with_budget(random_unit_function(F2, 6, random.Random(0)), 30780)
    profile = DeviationProfile.compute(phi, 4)
    calls = []
    evaluate = deviation.mean_and_deviation_sq

    def counted(f, g):
        calls.append(g)
        return evaluate(f, g)

    monkeypatch.setattr(deviation, "mean_and_deviation_sq", counted)
    assert lp_report(profile, 2.0, VS2).total is None
    assert len(calls) == 2916
    report = lp_report(profile, 4.0, VS2)
    assert len(calls) == 4212 == len(set(calls))
    # the kept spheres give the total of a fresh profile
    assert report.total == lp_report(DeviationProfile.compute(phi, 4), 4.0, VS2).total


def test_even_totals_live_and_die_with_their_profile(monkeypatch):
    # the totals are kept on the profile, not in a cache that outlives it
    profile = DeviationProfile.compute(IA, 4)
    sums = []
    series = summability.group_sum

    def counted(sphere, *rest):  # keeps no reference to the sphere closure
        sums.append(rest)
        return series(sphere, *rest)

    monkeypatch.setattr(summability, "group_sum", counted)
    lp_report(profile, 2.0, VS2)
    lp_report(profile, 4.0, VS2)
    lp_report(profile, 2.0, VS2)
    assert len(sums) == 2 and set(profile.totals) == {2, 4}
    ref = weakref.ref(profile)
    del profile
    gc.collect()
    assert ref() is None
