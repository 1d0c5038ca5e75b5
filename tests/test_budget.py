"""One budget per run, held by the group: every charge reads
``FreeGroup.budget``, and no other library function takes a budget."""

import ast
from pathlib import Path

import pytest

from treeboundary import (
    BudgetError,
    FreeGroup,
    LocallyConstantFunction,
    Word,
    deviation_sq,
    deviation_sq_pairsum,
    translate,
)
from treeboundary.boundary import pushforward_table

SRC = Path(__file__).resolve().parents[1] / "src" / "treeboundary"


def _depth2(group):
    """A depth-2 function over ``group`` with a distinct value per cell."""
    return LocallyConstantFunction(group, 2, {w: i for i, w in enumerate(group.iter_sphere(2))})


# each routine charges the depth-3 sphere, |S_3| = 36 cells of F2
CHARGES = {
    "translate": lambda G: translate(Word((0,)), _depth2(G)),
    "refine": lambda G: _depth2(G).refine(3),
    "pushforward_table": lambda G: pushforward_table(G.word("ab"), 3, G),
    "key_counts": lambda G: G.key_counts(G.word("ab"), 1),
}


@pytest.mark.parametrize("name", sorted(CHARGES))
def test_each_charge_reads_the_groups_budget(name):
    with pytest.raises(BudgetError, match="^enumeration of 36 elements exceeds budget 35$") as err:
        CHARGES[name](FreeGroup(2, budget=35))
    assert (err.value.requested, err.value.budget) == (36, 35)
    CHARGES[name](FreeGroup(2, budget=36))


def test_key_counts_lifts_past_the_default_budget():
    # |S_16| = 4 x 3^15 cells is past 10^7, but the walk covers the 3 cells
    # of the cancellation cylinder: a larger budget lets the pair sum run
    h = FreeGroup(2).word("ab" * 7 + "a")
    with pytest.raises(BudgetError, match="exceeds budget 10000000$"):
        FreeGroup(2).key_counts(h, 1)
    lifted = FreeGroup(2, budget=10**8)
    assert sum(lifted.key_counts(h, 1).values()) == lifted.sphere_count(16)
    phi = LocallyConstantFunction.indicator(lifted, Word((0,)))
    assert deviation_sq_pairsum(phi, h) == deviation_sq(phi, h)


def test_groups_of_one_rank_are_equal_whatever_their_budgets():
    small, default = FreeGroup(2, budget=5), FreeGroup(2)
    assert small == default and hash(small) == hash(default)
    assert small != FreeGroup(3, budget=5)


def test_algebra_keeps_the_left_operands_group():
    small, default = FreeGroup(2, budget=5), FreeGroup(2)
    phi = LocallyConstantFunction.indicator(small, Word((0,)))
    psi = LocallyConstantFunction.indicator(default, Word((2,)))
    for result in (phi * psi, phi + psi):
        assert result.group is small and result.group.budget == 5
    for result in (psi * phi, psi + phi):
        assert result.group is default and result.group.budget == 10**7


def _scopes(tree):
    """(qualified name of the enclosing function or class, node) for every
    node, "" at module level."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            yield inner, child
            yield from walk(child, inner)

    yield from walk(tree, "")


def test_only_the_group_takes_a_budget():
    # the policy lives in one class: one settable budget, read by every charge
    takers, namers = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for scope, node in _scopes(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                if any(p is not None and p.arg == "budget" for p in params):
                    takers.add(f"{path.name}:{scope}")
            named = (
                isinstance(node, ast.Name) and node.id == "DEFAULT_BUDGET"
                or isinstance(node, ast.alias) and node.name == "DEFAULT_BUDGET"
            )
            if named:
                namers.add(path.name)
    assert takers == {"words.py:FreeGroup.__init__"}
    assert namers == {"words.py", "cli.py", "__init__.py"}
    # the CLI reads the default only as the default of --budget
    tree = ast.parse((SRC / "cli.py").read_text())
    uses = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "DEFAULT_BUDGET"]
    common = [
        n for n in tree.body
        if isinstance(n, ast.Assign) and [t.id for t in n.targets] == ["_COMMON"]
    ]
    assert len(uses) == 1 and uses[0] in set(ast.walk(common[0]))


def test_the_cli_charges_only_its_own_loops_and_writers():
    # every other charge sits in the library routine that does the work:
    # the truncation, the profile, the cocycle value and the group sum
    charges = {"check_budget", "check_class_budget", "charge"}
    callers = {
        scope
        for scope, node in _scopes(ast.parse((SRC / "cli.py").read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in charges
    }
    assert callers == {"_cmd_growth", "_cmd_deviation", "_check_powers"}
    # one rule per unit: a class is always charged with its sphere radius
    assert [path.name for path in SRC.glob("*.py") if "by_length" in path.read_text()] == []
