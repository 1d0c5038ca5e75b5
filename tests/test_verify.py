"""The invariant suite: registry, determinism, tolerance scaling."""

import math

import pytest

from treeboundary import (
    DEFAULT_BUDGET,
    FreeGroup,
    VerifyContext,
    VisualStructure,
    check_names,
    run_all,
)

F2 = FreeGroup(2)


def make_ctx(**overrides):
    base = dict(
        group=F2,
        vs=VisualStructure(F2, math.log(3)),
        radius=2,
        seed=0,
        tol_scale=1.0,
        budget=DEFAULT_BUDGET,
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
