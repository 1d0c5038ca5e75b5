"""Boundary measure, preimage decomposition, and visual metric.

The preimage oracle enumerates deep cylinders directly: a depth-d cylinder
[u] (d > |g| + depth(c)) maps into c iff the reduced product g.u starts
with c's prefix, which needs no case analysis at that depth.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from treeboundary import (
    BoundaryPoint,
    Cylinder,
    CylinderMeasure,
    FreeGroup,
    IDENTITY,
    VisualStructure,
    Word,
    boundary_action,
    comparability_constants,
    cylinder_measure,
    depth_mass,
    mul,
    preimage_cylinder,
    pushforward,
    pushforward_mass,
    visual_distance,
    weak_distance_to_delta,
)
from treeboundary.boundary import mass_sum

F2 = FreeGroup(2)
F3 = FreeGroup(3)


def oracle_preimage_mass(g, c, group):
    """Sum depth-d masses of all [u] with g.u in c, d past all cancellation."""
    d = len(g) + c.depth + 1
    total = Fraction(0)
    for u in group.iter_sphere(d):
        image = mul(g, u)
        if image.letters[: c.depth] == c.prefix.letters:
            total += depth_mass(d, group)
    return total


def test_preimage_matches_deep_enumeration_exhaustive():
    # every g in B_3, every cylinder of depth <= 2, exact equality
    cylinders = [Cylinder(w) for k in range(3) for w in F2.sphere(k)]
    for g in F2.ball(3):
        for c in cylinders:
            parts = preimage_cylinder(g, c, F2)
            for x, y in itertools.combinations(parts, 2):
                assert x.disjoint(y), f"overlap in preimage of {c} under {g}"
            mass = sum(
                (cylinder_measure(d, F2) for d in parts), Fraction(0)
            )
            oracle = oracle_preimage_mass(g, c, F2)
            assert mass == oracle
            assert pushforward_mass(g, c, F2) == oracle


def test_preimage_matches_deep_enumeration_rank3_sample():
    rng = random.Random(11)
    ball = F3.ball(2)
    cylinders = [Cylinder(w) for k in range(3) for w in F3.sphere(k)]
    for _ in range(60):
        g, c = rng.choice(ball), rng.choice(cylinders)
        mass = sum(
            (cylinder_measure(d, F3) for d in preimage_cylinder(g, c, F3)),
            Fraction(0),
        )
        oracle = oracle_preimage_mass(g, c, F3)
        assert mass == oracle
        assert pushforward_mass(g, c, F3) == oracle


def test_pushforward_is_probability_and_additive():
    for g in F2.ball(2):
        m = pushforward(g, 2, F2)
        assert sum(m.table.values()) == 1
        # additivity: coarser mass equals the sum over children
        for w in F2.sphere(1):
            children = [
                u for u in F2.sphere(2) if u.letters[:1] == w.letters
            ]
            assert pushforward(g, 1, F2).table[w] == sum(
                (m.table[u] for u in children), Fraction(0)
            )


def test_pushforward_composes():
    # mu{xi : gh.xi in [w]} = sum over the g-preimage cover of h-masses
    g, h = F2.word("ab"), F2.word("bA")
    gh = mul(g, h)
    for w in F2.sphere(1):
        direct = pushforward_mass(gh, Cylinder(w), F2)
        composed = sum(
            (
                pushforward_mass(h, c, F2)
                for c in preimage_cylinder(g, Cylinder(w), F2)
            ),
            Fraction(0),
        )
        assert direct == composed


def test_identity_pushforward_is_uniform():
    m = pushforward(IDENTITY, 2, F2)
    assert set(m.table.values()) == {depth_mass(2, F2)}


def test_measure_values_pinned():
    assert cylinder_measure(Cylinder(F2.word("a")), F2) == Fraction(1, 4)
    assert cylinder_measure(Cylinder(F2.word("ab")), F2) == Fraction(1, 12)
    assert cylinder_measure(Cylinder(F3.word("a")), F3) == Fraction(1, 6)
    assert cylinder_measure(Cylinder(IDENTITY), F2) == 1


def test_comparability_constants_bounded_by_measure_ratio():
    # min ratio = 3^-|g| and max ratio = 3^|g| for the tree measure
    for g in F2.ball(3):
        lo, hi = comparability_constants(g, 2, F2)
        assert lo >= Fraction(1, 3) ** len(g)
        assert hi <= Fraction(3) ** len(g)
        if g.is_identity:
            assert lo == hi == 1


def test_boundary_action_is_group_action():
    omega = BoundaryPoint(IDENTITY, F2.word("ab"))
    for g in F2.ball(2):
        for h in F2.ball(2):
            lhs = boundary_action(mul(g, h), omega)
            rhs = boundary_action(g, boundary_action(h, omega))
            assert lhs == rhs


def test_boundary_point_canonical_head():
    # head absorbing whole period copies collapses to the canonical form
    x = BoundaryPoint(F2.word("abab"), F2.word("ab"))
    y = BoundaryPoint(IDENTITY, F2.word("ab"))
    assert x == y
    assert x.prefix(5) == F2.word("ababa")


def test_boundary_point_rejects_cancelling_junctions():
    with pytest.raises(ValueError):
        BoundaryPoint(F2.word("a"), F2.word("Ab"))
    with pytest.raises(ValueError):
        BoundaryPoint(IDENTITY, Word(()))


def test_visual_distance_ultrametric_on_points():
    vs = VisualStructure(F2, math.log(3))
    pts = [
        BoundaryPoint(IDENTITY, F2.word("a")),
        BoundaryPoint(IDENTITY, F2.word("b")),
        BoundaryPoint(F2.word("a"), F2.word("b")),
        BoundaryPoint(F2.word("ab"), F2.word("a")),
        BoundaryPoint(IDENTITY, F2.word("ab")),
    ]
    for x, y, z in itertools.product(pts, repeat=3):
        dxy = visual_distance(x, y, vs)
        assert dxy <= max(
            visual_distance(x, z, vs), visual_distance(z, y, vs)
        ) + 1e-15
        assert dxy == visual_distance(y, x, vs)
    assert visual_distance(pts[0], pts[0], vs) == 0.0


def test_visual_distance_cylinder_rules():
    vs = VisualStructure(F2, 1.0)
    a, b = Cylinder(F2.word("a")), Cylinder(F2.word("b"))
    ab = Cylinder(F2.word("ab"))
    assert visual_distance(a, b, vs) == 1.0  # disjoint at the root
    with pytest.raises(ValueError):
        visual_distance(a, ab, vs)  # nested cylinders
    pt = BoundaryPoint(IDENTITY, F2.word("a"))
    with pytest.raises(ValueError):
        visual_distance(pt, a, vs)  # point inside the cylinder
    assert visual_distance(pt, b, vs) == 1.0


def test_weak_distance_exact_geometric_decay():
    omega = BoundaryPoint(IDENTITY, F2.word("a"))
    g = IDENTITY
    for m in range(1, 8):
        g = mul(g, F2.word("a"))
        d = weak_distance_to_delta(g, omega, 1, F2)
        assert d == 2 * Fraction(1, 4) * Fraction(1, 3) ** (m - 1)


def test_weak_distance_equals_the_depth_k_table_sum():
    # the oracle: sum |g_*mu([w]) - delta_omega([w])| over the whole depth-k
    # table of the pushforward, for omega = g x^inf (which follows g) and
    # omega = b^inf
    rng = random.Random(5)
    cases = 0
    for group in (F2, F3):
        for depth in range(1, 7 if group is F2 else 5):
            for g in rng.sample(group.ball(4), 3):
                x = next(x for x in range(2 * group.n) if not g.letters or x != g.letters[-1] ^ 1)
                for omega in (BoundaryPoint(g, Word((x,))), BoundaryPoint(IDENTITY, Word((2,)))):
                    target = omega.prefix(depth)
                    table = pushforward(g, depth, group).table
                    want = sum((abs(m - (w == target)) for w, m in table.items()), Fraction(0))
                    assert weak_distance_to_delta(g, omega, depth, group) == want
                    cases += 1
    assert cases == 60


def test_weak_distance_depth_validation():
    omega = BoundaryPoint(IDENTITY, F2.word("a"))
    with pytest.raises(ValueError):
        weak_distance_to_delta(F2.word("a"), omega, 0, F2)


def test_cylinder_measure_validates_table():
    table = {w: depth_mass(1, F2) for w in F2.sphere(1)}
    bad = dict(table)
    bad[F2.word("a")] = Fraction(1, 2)
    with pytest.raises(ValueError):
        CylinderMeasure(F2, 1, bad)  # masses no longer sum to 1
    with pytest.raises(ValueError):
        CylinderMeasure(F2, 1, {F2.word("a"): Fraction(1)})  # wrong size
    negative = {F2.word("a"): Fraction(3, 2), F2.word("A"): Fraction(-1, 2),
                F2.word("b"): Fraction(0), F2.word("B"): 0}
    with pytest.raises(ValueError, match="negative mass at"):
        CylinderMeasure(F2, 1, negative)  # sums to 1, one mass below 0


def test_mass_sum_is_the_exact_sum_over_the_lcm():
    rng = random.Random(3)
    for size in range(6):
        masses = [Fraction(rng.randint(-20, 20), rng.randint(1, 30)) for _ in range(size)]
        total, den = mass_sum(masses)
        assert Fraction(total, den) == sum(masses, Fraction(0))
        assert den == math.lcm(*(m.denominator for m in masses))
    assert mass_sum([Fraction(1, 4), 3, Fraction(-1, 6)]) == (37, 12)


def test_disjoint_means_neither_prefix_extends_the_other():
    words = F2.ball(3)
    for u in words:
        for v in words:
            p, q = u.letters, v.letters
            extends = q[: len(p)] == p or p[: len(q)] == q
            assert Cylinder(u).disjoint(Cylinder(v)) == (not extends)


def test_depth_partition_sums_to_one():
    for group in (F2, F3):
        for k in range(4):
            assert group.sphere_count(k) * depth_mass(k, group) == 1
