"""Gaussian-rational scalars and locally constant boundary functions."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeboundary import (
    BoundaryPoint,
    BudgetError,
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
    depth_mass,
    expectation,
    mul,
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


def _cells(depth):
    return {
        w: GaussianRational(Fraction(i, 7), Fraction(-i, 5)) for i, w in enumerate(F2.sphere(depth))
    }


# the cells a, A, b of F2 and one more key
_THREE = {Word((0,)): 1, Word((1,)): 1, Word((2,)): 1}


@pytest.mark.parametrize(
    "depth, values, match",
    [
        (-1, {IDENTITY: 1}, "depth must be nonnegative"),
        (2, _cells(1), "4 values given, the depth-2 partition has 12 cells"),
        (1, {**_THREE, Word((4,)): 1}, "letter 4 outside alphabet"),
        (1, {**_THREE, F2.word("ab"): 1}, "does not have depth 1"),
    ],
)
def test_public_constructor_checks_the_depth_and_every_key(depth, values, match):
    with pytest.raises(ValueError, match=match):
        LocallyConstantFunction(F2, depth, values)


def test_unchecked_tables_are_the_checked_ones():
    # translate, refine and the algebra skip the constructor's checks: each
    # table they build must pass them and come in canonical key order
    phi, psi = LocallyConstantFunction(F2, 2, _cells(2)), LocallyConstantFunction(F2, 1, _cells(1))
    built = [
        translate(F2.word("aB"), phi), phi.refine(4), phi + psi, -phi, phi * psi,
        phi * GaussianRational(Fraction(2), Fraction(3)), phi.conjugate(),
        LocallyConstantFunction.indicator(F2, F2.word("aB")),
        random_unit_function(F2, 2, random.Random(1)),
    ]
    for f in built:
        checked = LocallyConstantFunction(f.group, f.depth, f.values)
        assert list(f.values.items()) == list(checked.values.items())
        assert all(type(v) is GaussianRational for v in f.values.values())
        den, cells = f.numerators
        assert den > 0 and list(cells) == list(F2.iter_sphere_letters(f.depth))


@pytest.mark.parametrize("letters", [(5,), (0, 5), (-1,)])
def test_indicator_rejects_letters_outside_the_alphabet(letters):
    with pytest.raises(ValueError, match="outside alphabet"):
        LocallyConstantFunction.indicator(F2, Word(letters))
    with pytest.raises(ValueError, match="outside alphabet"):
        LocallyConstantFunction.indicator(F2, Cylinder(Word(letters)))


def test_indicator_charges_its_sphere_against_the_budget():
    with pytest.raises(BudgetError):
        LocallyConstantFunction.indicator(F2, Word((0,) * 20))


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
    assert expectation(ia, IDENTITY) == GaussianRational(Fraction(1, 4))  # the integral
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


def test_functions_over_different_groups_are_unequal():
    # equal values on different boundaries: == is False, not an error, while
    # the algebra still rejects the pair
    F3 = FreeGroup(3)
    one2, one3 = LocallyConstantFunction.constant(F2, 1), LocallyConstantFunction.constant(F3, 1)
    assert not one2 == one3 and one2 != one3 and not one3 == one2
    assert one2 == LocallyConstantFunction.constant(F2, 1)
    for op in ("__add__", "__sub__", "__mul__"):
        with pytest.raises(ValueError, match="different groups"):
            getattr(one2, op)(one3)


# The Fraction formulas that the integer routes replaced, kept here as
# oracles: Sum |v|^2 mu cell by cell, and the unit function built from
# Fraction draws and Fraction masses.


def _l2_norm_sq_oracle(phi):
    m = depth_mass(phi.depth, phi.group)
    return sum((v.abs2() * m for v in phi.values.values()), Fraction(0))


def _random_unit_function_oracle(group, depth, rng):
    cells = group.sphere(depth)
    masses = [depth_mass(depth, group)] * len(cells)
    while True:
        direction = [
            GaussianRational(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            )
            for _ in cells
        ]
        q = sum((d.abs2() * m for d, m in zip(direction, masses)), Fraction(0))
        if q == 0:
            continue
        b = sum((d.re * m for d, m in zip(direction, masses)), Fraction(0))
        t = Fraction(-2) * b / q
        if t == 0:
            continue
        return {str(w): str(QQ_ONE + direction[i] * t) for i, w in enumerate(cells)}


def _random_function(group, depth, rng, zero_share):
    """Random Gaussian-rational values, about ``zero_share`` of them 0."""
    return LocallyConstantFunction(group, depth, {
        w: 0 if rng.random() < zero_share else GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
        )
        for w in group.sphere(depth)
    })


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_l2_norm_sq_equals_the_fraction_sum(n, depth):
    group, rng = FreeGroup(n), random.Random(f"{n}:{depth}")
    for zero_share in (0.0, 0.5, 1.0):
        for _ in range(4):
            phi = _random_function(group, depth, rng, zero_share)
            assert phi.l2_norm_sq() == _l2_norm_sq_oracle(phi)


@pytest.mark.parametrize("n", [2, 3])
def test_l2_distance_sq_equals_the_norm_of_the_difference(n):
    # ||f - g||^2 against the direct sum of |f(u) - g(u)|^2 mu([u]) over the
    # cells u of the finer depth
    group, rng = FreeGroup(n), random.Random(n)
    for k in range(4):
        for l in range(4):
            f = _random_function(group, k, rng, 0.3)
            g = _random_function(group, l, rng, 0.3)
            d = max(k, l)
            expected = sum(
                ((f.eval(u) - g.eval(u)).abs2() * depth_mass(d, group) for u in group.sphere(d)),
                Fraction(0),
            )
            assert (f - g).l2_norm_sq() == expected == (g - f).l2_norm_sq()
            assert (f - f).l2_norm_sq() == 0


def test_l2_distance_sq_rejects_another_group():
    with pytest.raises(ValueError, match="different groups"):
        LocallyConstantFunction.constant(F2, 1) - LocallyConstantFunction.constant(FreeGroup(3), 1)


@pytest.mark.parametrize("depth", [1, 2])
def test_random_unit_function_matches_the_fraction_formula(depth):
    # same values from the same draws, compared as strings; the generators
    # must also be left in the same state
    for seed in range(50):
        new_rng, old_rng = random.Random(seed), random.Random(seed)
        phi = random_unit_function(F2, depth, new_rng)
        assert {str(w): str(v) for w, v in phi.values.items()} == _random_unit_function_oracle(
            F2, depth, old_rng
        )
        assert new_rng.random() == old_rng.random()


# parts over denominators that share factors, so that D_f D_g is not
# lcm(D_f, D_g) and a scale taken from the wrong one shows
_SHARED = (1, 4, 6, 9)
_shared_parts = st.builds(Fraction, st.integers(-9, 9), st.sampled_from(_SHARED))


@st.composite
def _shared_tables(draw, group):
    depth = draw(st.integers(0, 3))
    parts = st.lists(_shared_parts, min_size=2, max_size=2)
    cells = draw(st.lists(parts, min_size=group.sphere_count(depth),
                          max_size=group.sphere_count(depth)))
    values = {w: GaussianRational(re, im) for w, (re, im) in zip(group.sphere(depth), cells)}
    return LocallyConstantFunction(group, depth, values)


@st.composite
def _algebra_cases(draw):
    group = draw(st.sampled_from((F2, FreeGroup(3))))
    f, g = draw(_shared_tables(group)), draw(_shared_tables(group))
    z = GaussianRational(draw(_shared_parts), draw(_shared_parts))
    h = draw(st.sampled_from(group.ball(2)))
    return group, f, g, z, h


def _table(phi):
    return list(phi.values.items())


@settings(max_examples=60, deadline=None)
@given(_algebra_cases())
def test_the_integer_algebra_is_the_gaussian_rational_one(case):
    # every operation on the numerators against Gaussian-rational arithmetic
    # on the values of its operands, cell by cell at the finer depth
    group, f, g, z, h = case
    d = max(f.depth, g.depth)
    cells = group.sphere(d)
    assert _table(f + g) == [(u, f.eval(u) + g.eval(u)) for u in cells]
    assert _table(f - g) == [(u, f.eval(u) - g.eval(u)) for u in cells]
    assert _table(f * g) == [(u, f.eval(u) * g.eval(u)) for u in cells]
    assert _table(z * f) == _table(f * z) == [(u, z * v) for u, v in f.values.items()]
    assert _table(f.conjugate()) == [(u, v.conjugate()) for u, v in f.values.items()]
    assert _table(f.refine(f.depth + 1)) == [
        (u, f.eval(u)) for u in group.sphere(f.depth + 1)
    ]
    assert _table(translate(h, f)) == [
        (u, f.eval(mul(h.inverse(), u))) for u in group.sphere(f.depth + len(h))
    ]
    # sums stay over the lcm of the operands' denominators, products over
    # their product
    (df, _), (dg, _) = f.numerators, g.numerators
    assert ((f + g).numerators[0], (f * g).numerators[0]) == (math.lcm(df, dg), df * dg)
    # equality across depths and scales
    assert (f == g) == all(f.eval(u) == g.eval(u) for u in cells)
    assert f == f.refine(d + 1) == (f + g) - g == f * 6 * Fraction(1, 6)
    assert (f == f + LocallyConstantFunction.indicator(group, cells[-1]) * z) == (not z)
