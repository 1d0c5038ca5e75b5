"""Gaussian-rational scalars and locally constant boundary functions."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treeboundary import (
    BoundaryPoint,
    Cylinder,
    FreeGroup,
    GaussianRational,
    IDENTITY,
    LocallyConstantFunction,
    QQ_I,
    QQ_ONE,
    QQ_ZERO,
    Word,
    boundary_action,
    random_unit_function,
    translate,
)

F2 = FreeGroup(2)

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=12
)
gaussians = st.builds(GaussianRational, rationals, rationals)


@given(gaussians, gaussians)
def test_gaussian_multiplication_matches_complex(x, y):
    z = x * y
    assert z.to_complex() == pytest.approx(x.to_complex() * y.to_complex(), abs=1e-9)
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


@given(gaussians)
def test_gaussian_abs2_is_norm(x):
    assert x.abs2() == x.re * x.re + x.im * x.im
    assert (x * x.conjugate()).re == x.abs2()
    assert (x * x.conjugate()).im == 0


def test_gaussian_of_coercions():
    assert GaussianRational.of(2) == GaussianRational(Fraction(2))
    assert GaussianRational.of((1, 2)) == GaussianRational(
        Fraction(1), Fraction(2)
    )
    assert GaussianRational.of(1 + 1j) == GaussianRational(
        Fraction(1), Fraction(1)
    )
    assert not QQ_ZERO
    assert QQ_ONE and QQ_I


def test_function_table_validation():
    with pytest.raises(ValueError):
        LocallyConstantFunction(F2, 1, {F2.word("a"): 1})  # missing cells
    with pytest.raises(ValueError):
        LocallyConstantFunction(
            F2, 0, {F2.word("a"): 1}
        )  # key depth mismatch


def test_indicator_partition_of_unity():
    total = LocallyConstantFunction.constant(F2, 0)
    for w in F2.sphere(2):
        total = total + LocallyConstantFunction.indicator(F2, w)
    assert total == LocallyConstantFunction.constant(F2, 1)


def test_algebra_operations_exact():
    ia = LocallyConstantFunction.indicator(F2, F2.word("a"))
    ib = LocallyConstantFunction.indicator(F2, F2.word("b"))
    assert ia * ia == ia  # indicators are idempotent
    assert ia * ib == LocallyConstantFunction.constant(F2, 0)
    combo = 2 * ia - ib + QQ_I.re  # scalar Fraction(0) no-op add
    assert combo.eval(F2.word("a")) == GaussianRational(Fraction(2))
    assert combo.eval(F2.word("b")) == GaussianRational(Fraction(-1))
    assert (QQ_I * ia).conjugate() == -QQ_I * ia


def test_eval_refinement_consistency():
    ia = LocallyConstantFunction.indicator(F2, F2.word("a"))
    fine = ia.refine(3)
    for w in F2.sphere(3):
        assert fine.eval(w) == ia.eval(w)
    with pytest.raises(ValueError):
        ia.eval(IDENTITY)  # too coarse to determine the value
    with pytest.raises(ValueError):
        fine.refine(1)


def test_integral_and_l2_norm():
    ia = LocallyConstantFunction.indicator(F2, F2.word("a"))
    assert ia.integral() == GaussianRational(Fraction(1, 4))
    assert ia.l2_norm_sq() == Fraction(1, 4)
    one = LocallyConstantFunction.constant(F2, 1)
    assert one.l2_norm_sq() == 1
    assert ia.sup_norm_sq() == 1


def test_translate_matches_pointwise_action():
    # (g.phi)(xi) = phi(g^-1 xi) checked on eventually periodic points
    points = [
        BoundaryPoint(IDENTITY, F2.word("a")),
        BoundaryPoint(IDENTITY, F2.word("ba")),
        BoundaryPoint(F2.word("Ab"), F2.word("a")),
        BoundaryPoint(F2.word("b"), F2.word("ab")),
    ]
    ia = LocallyConstantFunction.indicator(F2, F2.word("ab"))
    for g in F2.ball(3):
        shifted = translate(g, ia)
        for xi in points:
            assert shifted.eval(xi) == ia.eval(
                boundary_action(g.inverse(), xi)
            )


def test_translate_is_action_and_isometry():
    ia = LocallyConstantFunction.indicator(F2, F2.word("a"))
    g, h = F2.word("ab"), F2.word("bA")
    assert translate(g, translate(h, ia)) == translate(g * h, ia)
    assert translate(IDENTITY, ia) is ia
    # mu is not invariant, so L2 norms move; sup norm is preserved
    assert translate(g, ia).sup_norm_sq() == ia.sup_norm_sq()


def test_translate_is_algebra_automorphism():
    ia = LocallyConstantFunction.indicator(F2, F2.word("a"))
    ib = LocallyConstantFunction.indicator(F2, F2.word("b"))
    g = F2.word("aB")
    assert translate(g, ia * ib) == translate(g, ia) * translate(g, ib)
    assert translate(g, ia + ib) == translate(g, ia) + translate(g, ib)
    assert translate(g, ia.conjugate()) == translate(g, ia).conjugate()


def test_random_unit_function_exact_norm():
    rng = random.Random(3)
    for depth in (1, 2):
        for _ in range(10):
            phi = random_unit_function(F2, depth, rng)
            assert phi.l2_norm_sq() == 1
            assert phi.depth == depth


def test_json_round_trip():
    rng = random.Random(5)
    phi = random_unit_function(F2, 2, rng)
    text = json.dumps(phi.to_json_obj(), indent=2)
    back = LocallyConstantFunction.from_json_obj(json.loads(text), F2)
    assert back == phi
    assert back.values == phi.values


def test_cross_group_operations_rejected():
    ia2 = LocallyConstantFunction.indicator(F2, F2.word("a"))
    F3 = FreeGroup(3)
    ia3 = LocallyConstantFunction.indicator(F3, F3.word("a"))
    with pytest.raises(ValueError):
        ia2 + ia3
