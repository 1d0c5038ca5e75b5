"""The invariant suite: registry, determinism, tolerance scaling."""

import math
import re
from fractions import Fraction

import pytest

from treeboundary import operators, verify
from treeboundary.deviation import ProfileClass
from treeboundary import (
    BudgetError,
    FreeGroup,
    VerifyContext,
    VisualStructure,
    Word,
    check_names,
    gromov_product,
    run_all,
    word_to_str,
)

F2 = FreeGroup(2)


def make_ctx(**overrides):
    base = dict(
        group=F2,
        vs=VisualStructure(F2, math.log(3)),
        radius=2,
        seed=0,
        tol_scale=1.0,
    )
    base.update(overrides)
    return VerifyContext(**base)


@pytest.fixture(scope="module")
def serial_results():
    return run_all(make_ctx())


def test_all_checks_pass(serial_results):
    failed = [r.name for r in serial_results if not r.ok]
    assert failed == []
    assert len(serial_results) == len(check_names())


def test_registry_names_are_stable(serial_results):
    assert [r.name for r in serial_results] == check_names()
    assert "operator-pi-identity" in check_names()
    assert "chern-consistency" in check_names()


def test_runs_are_deterministic(serial_results):
    again = run_all(make_ctx())
    assert [(r.name, r.ok, r.detail) for r in again] == [
        (r.name, r.ok, r.detail) for r in serial_results
    ]


def test_tol_scale_zero_fails_float_checks():
    results = run_all(make_ctx(tol_scale=0.0))
    by_name = {r.name: r for r in results}
    # checks whose residual is rounding noise must fail at zero tolerance
    assert not by_name["operator-pi-identity"].ok
    assert not by_name["compression-identity"].ok
    assert not by_name["chern-consistency"].ok
    # exact rational checks ignore the scale
    assert by_name["measure-partition"].ok
    assert by_name["preimage-decomposition"].ok
    assert by_name["furstenberg-rate"].ok
    assert by_name["deviation-identity"].ok


def test_details_are_reproducible_text(serial_results):
    for r in serial_results:
        assert r.detail  # never empty
        for banned in ("time", "elapsed", "seconds"):
            assert banned not in r.detail.lower()


def test_growth_charges_its_largest_balls_before_enumerating(monkeypatch):
    # |B_10| is 118,097 for F2 and 14,648,437 for F3, past the default
    # budget: the check must say so before it enumerates any ball
    def ball(self, R):
        raise AssertionError(f"enumerated B_{R} of F{self.n}")

    monkeypatch.setattr(FreeGroup, "ball", ball)
    with pytest.raises(BudgetError, match="enumeration of 14648437 elements exceeds budget 10000000"):
        verify._growth(make_ctx(radius=10))


def test_hyperbolicity_names_the_first_failing_triple(monkeypatch):
    # teeth: one Gromov product made too small breaks 0-hyperbolicity; the
    # matrix check must fail at the triple the plain triple loop finds first
    ball = F2.ball(2)
    x0, y0 = F2.word("ab"), F2.word("a")

    def broken(g, h):
        return 0 if (g, h) == (x0, y0) else gromov_product(g, h)

    def broken_inverse(ginv, h):
        return broken(Word(ginv).inverse(), Word(h))

    first = next(
        (x, y, z)
        for x in ball
        for y in ball
        for z in ball
        if broken(x, y) < min(broken(x, z), broken(y, z))
    )
    monkeypatch.setattr(verify, "gromov_inverse", broken_inverse)
    ok, detail = verify._hyperbolicity(make_ctx())
    assert not ok
    assert detail == f"0-hyperbolicity fails at ({first[0]}, {first[1]}, {first[2]})"


@pytest.mark.parametrize("n", range(2, 9))
def test_summability_witness_holds_at_every_rank(n):
    # the witness sigma^2(1_[a])(e) = (2n-1)/(4n^2) is no weaker than the
    # former constant 0.1 for n <= 4
    group = FreeGroup(n)
    witness = Fraction(2 * n - 1, 4 * n * n)
    assert n > 4 or witness > Fraction(1, 10)
    vs = VisualStructure(group, math.log(2 * n - 1))
    ok, detail = verify._summability(make_ctx(group=group, vs=vs))
    assert ok, detail
    assert f">= {witness} " in detail


def test_summability_witness_has_teeth(monkeypatch):
    # a profile with every sigma^2 halved dips below the witness
    compute = verify.DeviationProfile.compute

    def halved(phi, radius, **kwargs):
        profile = compute(phi, radius, **kwargs)
        profile.spheres = [
            [
                ProfileClass(c.length, c.prefix, c.expectation, c.deviation_sq / 2, c.multiplicity)
                for c in sphere
            ]
            for sphere in profile.spheres
        ]
        return profile

    monkeypatch.setattr(verify.DeviationProfile, "compute", halved)
    ok, detail = verify._summability(make_ctx())
    assert not ok
    assert detail == "p=2 sphere sum 3/32 below the divergence witness 3/16"


@pytest.mark.parametrize("factor", [1 + 1e-6, 1 + 1e-6j], ids=["scaled", "imaginary"])
def test_operator_pi_identity_fails_on_a_bent_fiber_unit(monkeypatch, factor):
    # the rank-one identities of P read v itself: a v off the unit sphere,
    # or off the reals, must fail them
    assert verify._pi_identity(make_ctx())[0]
    unit = operators.fiber_unit
    monkeypatch.setattr(
        operators, "fiber_unit", lambda trunc: [(end, x * factor) for end, x in unit(trunc)]
    )
    ok, detail = verify._pi_identity(make_ctx())
    assert not ok
    assert detail in ("P is not idempotent", "P is not self-adjoint") or detail.startswith("rank of P")


def test_operator_pi_identity_checks_self_adjointness(monkeypatch):
    # v with v.v = 1 but complex cells x e^(+-i t): P is idempotent, not
    # self-adjoint
    def unit(trunc):
        t = 1e-3
        x = math.sqrt(1 / (trunc.dim_fiber * math.cos(2 * t)))
        phase = complex(math.cos(t), math.sin(t))
        return [(trunc.dim_fiber // 2, x * phase), (trunc.dim_fiber, x * phase.conjugate())]

    monkeypatch.setattr(operators, "fiber_unit", unit)
    v = unit(operators.Truncation(F2, 2, 3))
    assert abs(operators.run_dot(v, v) - 1) < 1e-15
    assert verify._pi_identity(make_ctx()) == (False, "P is not self-adjoint")


def test_commutator_spectrum_fails_on_a_moved_fiber_cell(monkeypatch):
    # the first cell of the identity's block moved by 1e-8 moves sigma there
    # by about 1.4e-9, past the tolerance 1e-9
    assert verify._commutator(make_ctx())[0]
    runs = operators.fiber_runs

    def moved(phi, h, trunc):
        out = runs(phi, h, trunc)
        if not h.is_identity:
            return out
        end, x = out[0]
        return [(1, x + 1e-8)] + ([(end, x)] if end > 1 else []) + out[1:]

    monkeypatch.setattr(operators, "fiber_runs", moved)
    ok, detail = verify._commutator(make_ctx())
    assert not ok
    assert detail.startswith("singular values off the deviation table by ")


# Teeth of the measure checks and the homotopy check: each test breaks one
# route and the check must fail.


def _broken_preimage(monkeypatch, g0, w0, change):
    real = verify.cylinder_image
    case = (g0.inverse().letters, w0.letters)

    def broken(ginv, w, group):
        pieces = real(ginv, w, group)
        return change(pieces) if (ginv, w) == case else pieces

    monkeypatch.setattr(verify, "cylinder_image", broken)


@pytest.mark.parametrize("g, w", [("ab", "a"), ("ab", "ab"), ("b", "a"), ("aB", "Ba")])
def test_preimage_decomposition_fails_on_a_dropped_piece(monkeypatch, g, w):
    _broken_preimage(monkeypatch, F2.word(g), F2.word(w), lambda pieces: pieces[:-1])
    assert verify._preimage(make_ctx()) == (False, f"mass mismatch for g={g}, w={w}")


@pytest.mark.parametrize("g, w", [("ab", "a"), ("b", "a")])
def test_preimage_decomposition_fails_on_a_duplicated_piece(monkeypatch, g, w):
    _broken_preimage(monkeypatch, F2.word(g), F2.word(w), lambda pieces: pieces + pieces[-1:])
    assert verify._preimage(make_ctx()) == (False, f"overlap in preimage of [{w}] under {g}")


def test_preimage_decomposition_fails_on_an_overlap_of_equal_mass(monkeypatch):
    # in F3 the preimage of [a] under ab is the complement of [BA]: the
    # letters other than B, then BA's siblings Ba, BB, Bc, BC.  Trading
    # [Bc] for the five depth-3 cylinders under [Ba], appended at the end
    # of the list, keeps the mass, so only the disjointness test can fail
    F3 = FreeGroup(3)
    g0, w0 = F3.word("ab"), F3.word("a")
    pieces = verify.cylinder_image(g0.inverse().letters, w0.letters, F3)
    assert [word_to_str(p) for p in pieces] == ["a", "A", "b", "c", "C", "Ba", "BB", "Bc", "BC"]

    def overlapping(pieces):
        under = list(F3.iter_sphere_letters(3, F3.word("Ba").letters))
        return [p for p in pieces if p != F3.word("Bc").letters] + under

    _broken_preimage(monkeypatch, g0, w0, overlapping)
    assert verify._preimage(make_ctx(group=F3, vs=VisualStructure(F3))) == (
        False, "overlap in preimage of [a] under ab"
    )


def test_preimage_decomposition_fails_on_a_perturbed_pushforward_weight(monkeypatch):
    # c_1 for |g| = 2, |w| = 1, one more: the first case of that shape,
    # g = aa with w = a, has the wrong closed-form mass
    real = verify.pushforward_weights

    def perturbed(length, depth, group):
        total, weights = real(length, depth, group)
        if (length, depth) == (2, 1):
            weights = (weights[0], weights[1] + 1)
        return total, weights

    monkeypatch.setattr(verify, "pushforward_weights", perturbed)
    assert verify._preimage(make_ctx()) == (False, "mass mismatch for g=aa, w=a")


def test_deviation_identity_fails_on_a_perturbed_walk_count(monkeypatch):
    # one more cell for the key a in the pair-sum walk of g = ab: the pair
    # sum of the first indicator 1_[a] grows by the cells of value 0
    real = FreeGroup.key_counts
    g0 = F2.word("ab")

    def perturbed(self, h, k):
        counts = real(self, h, k)
        return {**counts, (0,): counts[(0,)] + 1} if h == g0 else counts

    monkeypatch.setattr(FreeGroup, "key_counts", perturbed)
    assert verify._deviation_identity(make_ctx()) == (False, "pair-sum identity fails at g=ab")


def test_measure_partition_fails_on_a_scaled_depth(monkeypatch):
    real = verify.cylinder_measure
    monkeypatch.setattr(
        verify, "cylinder_measure", lambda c, group: real(c, group) * (3 if c.depth == 3 else 1)
    )
    assert verify._measure(make_ctx()) == (False, "depth-3 masses sum to 3")


def test_measure_partition_fails_on_mass_moved_between_parents(monkeypatch):
    # [aaa] doubled and [bbb] emptied: depth 3 still sums to 1, the
    # children of [aa] do not
    real = verify.cylinder_measure
    moved = {F2.word("aaa"): 2, F2.word("bbb"): 0}
    monkeypatch.setattr(
        verify, "cylinder_measure", lambda c, group: real(c, group) * moved.get(c.prefix, 1)
    )
    assert verify._measure(make_ctx()) == (False, "children of [aa] do not partition it")


def test_measure_partition_fails_on_a_perturbed_pushforward_mass(monkeypatch):
    # one integer weight of g = aB, at its cell Ba, one more: the table of
    # aB sums to 109/108 and the check says so as CylinderMeasure does
    real = verify.pushforward_table
    g0, w0 = F2.word("aB"), F2.word("Ba")
    position = F2.sphere(2).index(w0)

    def perturbed(g, depth, group):
        total, weights = real(g, depth, group)
        if g == g0:
            weights = weights[:position] + [weights[position] + 1] + weights[position + 1 :]
        return total, weights

    monkeypatch.setattr(verify, "pushforward_table", perturbed)
    assert real(g0, 2, F2)[0] == 108
    with pytest.raises(ValueError, match=r"^masses sum to 109/108, not 1$"):
        verify._measure(make_ctx())


def test_homotopy_inequality_fails_off_the_unit_sphere(monkeypatch):
    real = verify.random_unit_function
    monkeypatch.setattr(
        verify,
        "random_unit_function",
        lambda group, depth, rng: real(group, depth, rng) * Fraction(1000001, 1000000),
    )
    results = {r.name: r for r in run_all(make_ctx())}
    assert not results["homotopy-inequality"].ok
    assert results["homotopy-inequality"].detail == (
        "raised ValueError: eta must satisfy ||eta||_{L2(mu)} = 1 exactly"
    )


@pytest.mark.parametrize(
    "check, message",
    [
        (verify._hyperbolicity, "7317025 Gromov pairs exceed budget 7000000"),
        (verify._measure, "7314320 (g, w) cases exceed budget 7000000"),
        (verify._preimage, "7314320 (g, w) cases exceed budget 7000000"),
    ],
)
def test_costly_checks_charge_the_budget_before_enumerating(monkeypatch, check, message):
    # at n = 26, the largest rank, |B_2|^2 = 2705^2 Gromov pairs and
    # |B_2| (|S_1| + |S_2|) = 2705 * 2704 cases fit the default budget 10^7
    class Enumerated(Exception):
        pass

    def enumerate_words(self, radius, *args, **kwargs):
        raise Enumerated

    # every enumerator the checks call, on words or on letter tuples
    for name in ("ball", "sphere", "iter_ball", "iter_sphere", "iter_sphere_letters"):
        monkeypatch.setattr(FreeGroup, name, enumerate_words)
    group = FreeGroup(26)
    ctx = make_ctx(group=group, vs=VisualStructure(group))
    with pytest.raises(Enumerated):
        check(ctx)
    group = FreeGroup(26, 7_000_000)
    with pytest.raises(BudgetError, match=f"^{re.escape(message)}$"):
        check(make_ctx(group=group, vs=VisualStructure(group)))
