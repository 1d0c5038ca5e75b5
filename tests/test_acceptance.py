"""Acceptance gate: one test per release criterion.

Each test pins the tolerance and domain it was promised with and carries a
wall-clock ceiling where one was promised.  These are deliberately
redundant with the unit suites; they are the contract.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from treeboundary import (
    BoundaryPoint,
    CocycleInput,
    DeviationProfile,
    FreeGroup,
    GaussianRational,
    IDENTITY,
    LocallyConstantFunction,
    QQ_I,
    Truncation,
    VisualStructure,
    Word,
    cocycle_value,
    commutator_singular_values,
    deviation_sq,
    deviation_sq_pairsum,
    hausdorff_dimension,
    homotopy_projection,
    homotopy_projection_check,
    lp_report,
    mul,
    projection_P,
    random_unit_function,
    trace_identity,
    trace_oracle_report,
    verify_pi_identity,
    weak_distance_to_delta,
)

F2 = FreeGroup(2)
F3 = FreeGroup(3)
VS2 = VisualStructure(F2, math.log(3))

VALUE_SET = [
    GaussianRational(),
    GaussianRational(Fraction(1)),
    GaussianRational(Fraction(1, 2)),
    QQ_I,
]


def test_criterion_1_deviation_identity():
    """sigma^2 == pair-sum form, exact, >= 2000 cases, < 30 s."""
    start = time.monotonic()
    ball3 = F2.ball(3)
    cases = 0
    # exhaustive over depth <= 1 (260 tables)
    tables = [[]]
    for _ in range(1):
        tables = [t + [v] for t in tables for v in VALUE_SET]
    depth0 = [LocallyConstantFunction(F2, 0, {IDENTITY: t[0]}) for t in tables]
    tables = [[]]
    for _ in F2.sphere(1):
        tables = [t + [v] for t in tables for v in VALUE_SET]
    depth1 = [
        LocallyConstantFunction(F2, 1, dict(zip(F2.sphere(1), t)))
        for t in tables
    ]
    for phi in depth0 + depth1:
        for g in ball3:
            assert deviation_sq(phi, g) == deviation_sq_pairsum(phi, g)
            cases += 1
    # seeded random depth-2 tables complete the promised domain
    rng = random.Random(2024)
    cells2 = F2.sphere(2)
    while cases < 2000 + 260 * len(ball3):
        phi = LocallyConstantFunction(
            F2, 2, {w: rng.choice(VALUE_SET) for w in cells2}
        )
        g = rng.choice(ball3)
        assert deviation_sq(phi, g) == deviation_sq_pairsum(phi, g)
        cases += 1
    assert cases >= 2000
    assert time.monotonic() - start < 30.0


def test_criterion_2_c0_decay_envelope():
    """max sphere sigma^2 <= K 3^-m for m <= 8, K fixed from m <= 3.

    The constant uses only m <= 3 data: twice the largest scaled maximum.
    The margin covers the residual climb of 3^m sigma^2 toward its
    supremum 3/4 (the m <= 3 value 35/48 is already past 97% of it).
    """
    phi = LocallyConstantFunction.indicator(F2, F2.word("a"))
    profile = DeviationProfile.compute(phi, 8, label="indicator_a")
    maxima = profile.sphere_max_sq()
    K = 2 * max(maxima[m] * Fraction(3) ** m for m in range(4))
    assert K == Fraction(35, 24)
    violations = [
        m for m in range(9) if maxima[m] > K * Fraction(1, 3) ** m
    ]
    assert violations == []


def test_criterion_3_summability_threshold():
    """p=3 ratios <= 3^-1/2 + 0.1 on m=4..8; p=2 sums >= 0.1; < 60 s."""
    start = time.monotonic()
    phi = LocallyConstantFunction.indicator(F2, F2.word("a"))
    profile = DeviationProfile.compute(phi, 8, label="indicator_a")
    r3 = lp_report(profile, 3.0, VS2)
    limit = 3.0 ** -0.5 + 0.1
    for m in range(4, 9):
        ratio = r3.sphere_sums[m] / r3.sphere_sums[m - 1]
        assert ratio <= limit, (m, ratio)
    r2 = lp_report(profile, 2.0, VS2)
    assert all(s >= 0.1 for s in r2.sphere_sums)
    assert time.monotonic() - start < 60.0


def test_criterion_4_operator_identities_612():
    """dim 612: Pi*Pi and P lambda P within 1e-10; spectrum to 1e-9; < 2 min."""
    start = time.monotonic()
    phi = LocallyConstantFunction.indicator(F2, F2.word("a"))
    trunc = Truncation(F2, 2, 3)
    assert trunc.dim == 612
    report = verify_pi_identity(phi, trunc)
    assert report.pi_error <= 1e-10
    assert report.compression_error <= 1e-10
    values = np.array(commutator_singular_values(phi, trunc))
    expected = sorted(
        (
            math.sqrt(float(deviation_sq(phi, h)))
            for h in trunc.group_basis
            for _ in range(2)
        ),
        reverse=True,
    )
    expected = np.array([s for s in expected if s > 1e-12])
    nonzero = values[values > 1e-12]
    assert nonzero.size == expected.size
    assert np.max(np.abs(nonzero - expected)) <= 1e-9
    assert time.monotonic() - start < 120.0


def test_criterion_5_homotopy_inequality():
    """||P(e1)-P(e2)|| <= 2||e1-e2|| on 50 random unit pairs; P(1) = P."""
    trunc = Truncation(F2, 1, 2)
    rng = random.Random(50)
    for i in range(50):
        eta1 = random_unit_function(F2, 1 + (i % 2), rng)
        eta2 = random_unit_function(F2, 1 + ((i + 1) % 2), rng)
        norm_diff, bound = homotopy_projection_check(eta1, eta2, trunc)
        assert norm_diff <= bound + 1e-12
    one = LocallyConstantFunction.constant(F2, 1)
    gap = np.max(
        np.abs(
            homotopy_projection(one, trunc).matrix
            - projection_P(trunc).matrix
        )
    )
    assert gap <= 1e-12


def test_criterion_6_furstenberg_rate():
    """weak distance of a^m to a^inf at depth 1 equals 2(1/4)3^(1-m), m<=10."""
    omega = BoundaryPoint(IDENTITY, F2.word("a"))
    g = IDENTITY
    for m in range(1, 11):
        g = mul(g, F2.word("a"))
        got = weak_distance_to_delta(g, omega, 1, F2)
        assert got == 2 * Fraction(1, 4) * Fraction(1, 3) ** (m - 1)


def test_criterion_7_chern_cocycle():
    """Vanishing exact 0; symmetry exact 0; formula = trace per h; < 5 min."""
    start = time.monotonic()
    ind = {
        s: LocallyConstantFunction.indicator(F2, F2.word(s))
        for s in ("a", "A", "b", "B")
    }
    # vanishing: product != e
    off = CocycleInput(1, [(ind["a"], F2.word("a")), (ind["b"], F2.word("b"))])
    cv_off = cocycle_value(off, 4)
    assert cv_off.value == 0j and cv_off.exact_partial.abs2() == 0
    assert cv_off.total.abs2() == 0
    # identical-argument symmetry: psi_1 = psi_3
    sym = CocycleInput(
        3,
        [
            (ind["a"], IDENTITY),
            (ind["b"], IDENTITY),
            (ind["a"], IDENTITY),
            (ind["b"], IDENTITY),
        ],
    )
    assert cocycle_value(sym, 4).exact_partial.abs2() == 0
    assert cocycle_value(sym, 4).total.abs2() == 0
    # n = 3 cross-validation against the truncated trace
    inp = CocycleInput(
        3,
        [
            (ind["a"], F2.word("a")),
            (ind["b"], F2.word("A")),
            (ind["A"], F2.word("b")),
            (ind["B"], F2.word("B")),
        ],
    )
    cv = cocycle_value(inp, 4)
    trunc = Truncation(F2, 4, 4)
    report = trace_oracle_report(inp, trunc)
    # at each of the 17 h with an exact chain: fiber trace = signed summand
    identity = trace_identity(inp, trunc, cv, report)
    assert identity.compared == 17 and identity.gap <= 1e-15
    assert time.monotonic() - start < 300.0


def test_criterion_8_growth_closed_form():
    """Enumerated ball sizes equal the closed form, n in {2,3}, R <= 8."""
    for group in (F2, F3):
        for R in range(9):
            n, q = group.n, 2 * group.n - 1
            closed = 1 + 2 * n * (q**R - 1) // (q - 1)
            assert group.growth_count(R) == closed
            count = sum(1 for _ in group.iter_ball(R))
            assert count == closed


def test_criterion_9_dimension_formula():
    """hausdorff_dimension at epsilon = ln 3 is 1 in binary64."""
    assert abs(hausdorff_dimension(VS2) - 1.0) <= 1e-15


def test_criterion_10_verify_all_deterministic(tmp_path):
    """Two verify-all runs with one seed produce byte-identical reports."""
    from treeboundary.cli import main

    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        code = main(
            [
                "verify-all",
                "--n",
                "2",
                "--R",
                "2",
                "--seed",
                "0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outs.append(out)
    for filename in ("verify-all.json", "verify-all.csv"):
        a = (outs[0] / filename).read_bytes()
        b = (outs[1] / filename).read_bytes()
        assert a == b
