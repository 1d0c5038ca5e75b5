"""Word arithmetic, enumeration, and tree geometry.

The reduction oracle here is an independent quadratic re-scan, not the
stack algorithm from the library, so the two can disagree if either is
wrong.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeboundary import (
    BudgetError,
    FreeGroup,
    IDENTITY,
    Word,
    gromov_product,
    mul,
    reduce_letters,
    word_from_str,
    word_to_str,
)

F2 = FreeGroup(2)
F3 = FreeGroup(3)


def rescan_reduce(letters):
    """Reduce by repeated full scans until a fixed point (oracle)."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(out):
            if out[i] == out[i + 1] ^ 1:
                del out[i : i + 2]
                changed = True
                i = max(i - 1, 0)
            else:
                i += 1
    return tuple(out)


letters_f2 = st.lists(st.integers(0, 3), max_size=40)
words_f2 = letters_f2.map(reduce_letters)


@given(letters_f2)
def test_reduce_matches_rescan_oracle(raw):
    assert reduce_letters(raw).letters == rescan_reduce(raw)


@given(letters_f2, letters_f2)
def test_mul_is_reduction_of_concatenation(xs, ys):
    g, h = reduce_letters(xs), reduce_letters(ys)
    assert mul(g, h).letters == rescan_reduce(list(g.letters) + list(h.letters))


@given(words_f2)
def test_inverse_cancels(g):
    assert mul(g, g.inverse()) == IDENTITY
    assert mul(g.inverse(), g) == IDENTITY
    assert g.inverse().inverse() == g


@given(words_f2, words_f2, words_f2)
def test_associativity(g, h, k):
    assert mul(mul(g, h), k) == mul(g, mul(h, k))


@given(words_f2, words_f2)
def test_length_is_word_metric(g, h):
    # d(g, h) = |g^-1 h| satisfies the triangle inequality through e.
    d = len(mul(g.inverse(), h))
    assert d <= len(g) + len(h)
    assert d >= abs(len(g) - len(h))


@given(words_f2)
def test_serialization_round_trip(g):
    assert word_from_str(word_to_str(g), 2) == g


def test_word_rejects_unreduced():
    with pytest.raises(ValueError):
        Word((0, 1))


def test_parser_rejects_bad_input():
    with pytest.raises(ValueError):
        word_from_str("a!b")
    with pytest.raises(ValueError):
        word_from_str("ac", 2)  # c needs rank >= 3
    assert word_from_str("1") == IDENTITY
    assert word_from_str("") == IDENTITY
    assert word_from_str("aA") == IDENTITY  # parser reduces


def test_identity_string_round_trip():
    assert word_to_str(IDENTITY) == "1"
    assert str(F2.word("abA")) == "abA"


def test_rank_bounds():
    with pytest.raises(ValueError):
        FreeGroup(1)
    with pytest.raises(ValueError):
        FreeGroup(27)
    FreeGroup(26)  # boundary value accepted


def test_ball_matches_closed_form_small_ranks():
    for group in (F2, F3):
        for R in range(0, 6):
            ball = list(group.iter_ball(R))
            assert len(ball) == group.growth_count(R)
            assert len(set(ball)) == len(ball)
            assert ball == sorted(ball)  # length-then-lex order


def test_sphere_letters_with_prefix_are_the_extensions():
    # oracle: filter the whole sphere by its prefix
    for group in (F2, F3):
        for m in range(0, 4):
            sphere = list(group.iter_sphere_letters(m))
            for k in range(0, m + 2):
                for prefix in group.iter_sphere_letters(k):
                    want = [u for u in sphere if u[:k] == prefix]
                    assert list(group.iter_sphere_letters(m, prefix)) == want
    assert list(F2.iter_sphere_letters(2, (0,))) == [(0, 0), (0, 2), (0, 3)]


@pytest.mark.parametrize("group", [F2, F3], ids=["F2", "F3"])
def test_prefix_classes_partition_the_sphere(group):
    for k in range(4):
        for m in range(6):
            classes = list(group.prefix_classes(m, k))
            prefixes = [prefix for prefix, _, _ in classes]
            assert prefixes == sorted(prefixes)
            assert all(len(prefix) == min(m, k) for prefix in prefixes)
            assert sum(size for _, _, size in classes) == group.sphere_count(m)
            for prefix, member, size in classes:
                assert member == reduce_letters(member.letters)
                assert len(member) == m
                assert member.letters[: len(prefix)] == prefix
                assert size == len(list(group.iter_sphere_letters(m, prefix)))
            expanded = [u for p in prefixes for u in group.iter_sphere_letters(m, p)]
            assert list(map(Word, expanded)) == list(group.iter_sphere(m))


@pytest.mark.parametrize("group", [F2, F3], ids=["F2", "F3"])
def test_product_runs_partition_the_cells_by_their_key(group):
    # oracle: mul(h, c) for every depth-(k + |h|) cell c under the prefix;
    # at that depth the key of every cell is fixed.  The walk depth is kept
    # to 6 on F2 and 5 on F3, at most 972 and 3750 cells
    rng = random.Random(group.n)
    hs = list(group.iter_ball(4 if group.n == 2 else 2))
    if group.n == 3:
        hs += [h for length in (3, 4) for h in rng.sample(group.sphere(length), 8)]
    for h in hs:
        for k in range(min(4, (6 if group.n == 2 else 5) - len(h) + 1)):
            m = k + len(h)
            cells = list(group.iter_sphere_letters(m))
            some = rng.choice(cells)[: rng.randint(min(m, 1), m)]
            prefixes = [(), h.inverse().letters[: m - 1], some]
            for prefix in prefixes:
                runs = group.product_runs(h, k, prefix)
                expanded = [c for p, _ in runs for c in group.iter_sphere_letters(m, p)]
                assert expanded == list(group.iter_sphere_letters(m, prefix))
                for p, key in runs:
                    assert p[: len(prefix)] == prefix and len(p) <= m
                    size = len(list(group.iter_sphere_letters(m, p)))
                    assert group.run_sizes(m)[len(p)] == size
                    for c in group.iter_sphere_letters(m, p):
                        assert key == mul(h, Word(c)).letters[:k], (h, k, c)


@pytest.mark.parametrize("group", [F2, F3], ids=["F2", "F3"])
def test_lex_rank_is_the_position_in_the_sphere(group):
    for m in range(4):
        ranks = [group.lex_rank(p) for p in group.iter_sphere_letters(m)]
        assert ranks == list(range(group.sphere_count(m)))


def test_budget_check_never_builds_a_count_far_past_the_budget():
    # |B_R| |S_m| on the edge of the budget keeps its exact count
    edge = F2.growth_count(3) * F2.sphere_count(2)
    FreeGroup(2, edge).check_budget(R=3, m=2)
    with pytest.raises(BudgetError) as err:
        FreeGroup(2, edge - 1).check_budget(R=3, m=2)
    assert err.value.requested == F2.growth_count(3) * F2.sphere_count(2)
    # a count past 2^1024 with b = budget.bit_length() = 24: exact count up
    # to the cutoff R + m = 1024, a power of two past it
    with pytest.raises(BudgetError) as err:
        FreeGroup(2, 10**7).check_budget(R=1000, m=23)
    assert err.value.requested == F2.growth_count(1000) * F2.sphere_count(23)
    with pytest.raises(BudgetError) as err:
        FreeGroup(2, 10**7).check_budget(R=10**100, m=1)
    assert err.value.requested == 2**1024
    assert "more than 2^1024 elements" in str(err.value)
    with pytest.raises(ValueError):
        FreeGroup(2, 10**7).check_budget(m=-1)


def test_sphere_budget_enforced():
    with pytest.raises(BudgetError) as err:
        FreeGroup(2, budget=100).sphere(10)
    assert err.value.requested == F2.sphere_count(10)
    assert err.value.budget == 100


def test_ball_budget_enforced():
    with pytest.raises(BudgetError):
        FreeGroup(2, budget=1000).ball(10)


def test_gromov_product_is_common_prefix_exhaustive_b3():
    ball = list(F2.iter_ball(3))
    for g in ball:
        for h in ball:
            t = 0
            for x, y in zip(g.letters, h.letters):
                if x != y:
                    break
                t += 1
            assert gromov_product(g, h) == t


def test_zero_hyperbolic_exhaustive_b3():
    # (g,h) >= min((g,k), (k,h)) with delta = 0 on a tree.
    ball = list(F2.iter_ball(3))
    for g, h, k in itertools.product(ball, repeat=3):
        assert gromov_product(g, h) >= min(
            gromov_product(g, k), gromov_product(k, h)
        )


def test_zero_hyperbolic_seeded_sample_b5():
    rng = random.Random(7)
    ball = list(F2.iter_ball(5))
    for _ in range(4000):
        g, h, k = rng.choice(ball), rng.choice(ball), rng.choice(ball)
        assert gromov_product(g, h) >= min(
            gromov_product(g, k), gromov_product(k, h)
        )


@settings(max_examples=300)
@given(words_f2, words_f2)
def test_gromov_product_symmetric_and_bounded(g, h):
    p = gromov_product(g, h)
    assert p == gromov_product(h, g)
    assert 0 <= p <= min(len(g), len(h))


def test_word_ordering_is_length_then_lex():
    a, b, A = F2.word("a"), F2.word("b"), F2.word("A")
    assert IDENTITY < a < A < b
    assert b < F2.word("aa")
