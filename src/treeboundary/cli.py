"""Batch command-line front end.

Subcommands: deviation, summability, spectrum, chern, furstenberg, growth,
verify-all.  Each writes ``<subcommand>.json`` and ``<subcommand>.csv`` into
the output directory and prints the paths; there is no interactive mode.

Exit codes: 0 success, 1 invariant violation, 2 usage or input error,
3 budget exceeded.

Reports are deterministic: fixed key order, floats rendered as 17
significant digits (lossless binary64 round-trip), rationals as "p/q".
Settings resolve as flag > config file (--config, JSON object keyed by the
long option names) > environment (TREEBOUNDARY_BUDGET, budget only) >
built-in default.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

from .boundary import BoundaryPoint, VisualStructure, weak_distance_to_delta
from .chern import CocycleInput, cocycle_value, trace_oracle_report
from .deviation import DeviationProfile
from .functions import LocallyConstantFunction
from .operators import (
    OPERATOR_BUDGET,
    Truncation,
    commutator_singular_values,
    match_deviation_table,
    verify_pi_identity,
)
from .summability import (
    decay_exponent_fit,
    dplus_surrogate_check,
    hausdorff_dimension,
    lp_report,
    summability_threshold,
)
from .verify import VerifyContext, run_all
from .words import DEFAULT_BUDGET, BudgetError, FreeGroup, IDENTITY, Word, mul, word_to_str

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

ENV_BUDGET = "TREEBOUNDARY_BUDGET"


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _complex_obj(z: complex) -> dict[str, str]:
    return {"re": _fmt(z.real), "im": _fmt(z.imag)}


def _stringify(obj: Any) -> Any:
    """Recursively render floats as 17-digit strings for stable JSON."""
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, dict):
        return {k: _stringify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stringify(v) for v in obj]
    return obj


def _write_json(path: Path, obj: Any) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    with path.open("w", newline="") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {path}")


# ----------------------------------------------------------------------
# config resolution

# config keys that name files; every other key except "p" holds a scalar
_CONFIG_PATHS = ("out", "phi", "input")


def _finite_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _load_config(args: argparse.Namespace) -> dict[str, Any]:
    if getattr(args, "config", None) is None:
        return {}
    try:
        obj = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"bad config file {args.config}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError("config file must hold a JSON object")
    for key, value in obj.items():
        if key == "p":
            ok = isinstance(value, list) and all(map(_finite_number, value))
        elif key in _CONFIG_PATHS:
            ok = isinstance(value, str)
        else:
            ok = value is None or isinstance(value, str) or _finite_number(value)
        if not ok:
            raise ValueError(f"config key {key!r} has a malformed value {value!r}")
    return obj


def _setting(args: argparse.Namespace, config: dict, key: str, default: Any) -> Any:
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key)
    if value is None:
        value = default
    return value


def _integer(value: Any, name: str, minimum: int | None = None) -> int:
    """``value`` as an int; a non-integral value, or one below ``minimum``,
    is a usage error."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        number = int(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be an integer, got {value!r}") from exc
    if minimum is not None and number < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {number}")
    return number


def _int_setting(
    args: argparse.Namespace,
    config: dict,
    key: str,
    default: int | None,
    minimum: int | None = None,
) -> int | None:
    value = _setting(args, config, key, default)
    return None if value is None else _integer(value, key, minimum)


def _budget(args: argparse.Namespace, config: dict) -> tuple[int, bool]:
    """Resolved enumeration budget and whether it was set explicitly."""
    value = getattr(args, "budget", None)
    if value is None:
        value = config.get("budget")
    name = "budget"
    if value is None:
        value, name = os.environ.get(ENV_BUDGET), ENV_BUDGET
    if value is None:
        return DEFAULT_BUDGET, False
    return _integer(value, name, 1), True


def _out_dir(args: argparse.Namespace, config: dict) -> Path:
    out = Path(_setting(args, config, "out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _group(args: argparse.Namespace, config: dict, fallback: int = 2) -> FreeGroup:
    return FreeGroup(_int_setting(args, config, "rank", fallback))


def _visual(args: argparse.Namespace, config: dict, group: FreeGroup) -> VisualStructure:
    eps = _setting(args, config, "epsilon", None)
    if eps is None:
        eps = math.log(2 * group.n - 1)
    return VisualStructure(group, float(eps))


# what a malformed value table raises: a missing key, a non-pair value, a
# zero denominator ("1/0")
_TABLE_ERRORS = (KeyError, TypeError, IndexError, ZeroDivisionError)


def _load_function_file(
    path: str, group: FreeGroup | None, rank_flag: int | None
) -> tuple[LocallyConstantFunction, FreeGroup, str]:
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"bad function file {path}: {exc}") from exc
    if not isinstance(obj, dict) or "values" not in obj:
        raise ValueError(
            f"function file {path} must hold an object with a 'values' table"
        )
    if group is None:
        rank = rank_flag if rank_flag is not None else obj.get("rank", 2)
        group = FreeGroup(_integer(rank, "rank"))
    try:
        phi = LocallyConstantFunction.from_json_obj(obj, group)
    except _TABLE_ERRORS as exc:
        raise ValueError(f"bad function file {path}: {exc}") from exc
    return phi, group, Path(path).stem


# ----------------------------------------------------------------------
# subcommands

def _cmd_growth(args: argparse.Namespace) -> int:
    config = _load_config(args)
    group = _group(args, config)
    radius = _int_setting(args, config, "radius", 3, 0)
    budget, _ = _budget(args, config)
    out = _out_dir(args, config)
    rows = []
    for r in range(radius + 1):
        closed = group.growth_count(r)
        enumerated = len(group.ball(r, budget=budget))
        rows.append((r, closed, enumerated))
    obj = {
        "rank": group.n,
        "radius": radius,
        "rows": [
            {"R": r, "closed_form": c, "enumerated": e} for r, c, e in rows
        ],
    }
    _write_json(out / "growth.json", obj)
    _write_csv(out / "growth.csv", ["R", "closed_form", "enumerated"], rows)
    bad = [r for r, c, e in rows if c != e]
    if bad:
        print(f"count mismatch at R={bad}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_deviation(args: argparse.Namespace) -> int:
    config = _load_config(args)
    rank = _setting(args, config, "rank", None)
    phi_path = _setting(args, config, "phi", None)
    if phi_path is None:
        raise ValueError("deviation needs --phi FILE")
    phi, group, label = _load_function_file(phi_path, None, rank)
    radius = _int_setting(args, config, "radius", 4, 0)
    budget, _ = _budget(args, config)
    out = _out_dir(args, config)
    profile = DeviationProfile.compute(phi, radius, label=label, budget=budget)
    obj = profile.to_json_obj()
    obj["rank"] = group.n
    _write_json(out / "deviation.json", obj)
    with (out / "deviation.csv").open("w", newline="") as fp:
        profile.write_csv(fp)
    print(f"wrote {out / 'deviation.csv'}")
    return EXIT_OK


def _cmd_summability(args: argparse.Namespace) -> int:
    config = _load_config(args)
    group = _group(args, config)
    vs = _visual(args, config, group)
    radius = _int_setting(args, config, "radius", 5, 0)
    ps = _setting(args, config, "p", None) or [2.0, 3.0]
    budget, _ = _budget(args, config)
    out = _out_dir(args, config)
    phi_path = _setting(args, config, "phi", None)
    if phi_path is None:
        phi = LocallyConstantFunction.indicator(group, Word((0,)))
        label = "indicator_a"
    else:
        phi, group, label = _load_function_file(phi_path, group, None)
    profile = DeviationProfile.compute(phi, radius, label=label, budget=budget)
    reports = [lp_report(profile, float(p), vs) for p in ps]
    surrogate = dplus_surrogate_check(group, vs, radius)
    obj = {
        "rank": group.n,
        "epsilon": _fmt(vs.epsilon),
        "phi": label,
        "radius": radius,
        "dimension": _fmt(hausdorff_dimension(vs)),
        "threshold": _fmt(summability_threshold(vs)),
        "decay_exponent_fit": _fmt(decay_exponent_fit(profile)),
        "sorted_decay": _stringify(
            {
                "C": surrogate.C,
                "dimension": surrogate.dimension,
                "max_ratio": surrogate.max_ratio,
                "ok": surrogate.ok,
            }
        ),
        "reports": [_stringify(r.to_json_obj()) for r in reports],
    }
    _write_json(out / "summability.json", obj)
    rows = []
    for report in reports:
        for m, s in enumerate(report.sphere_sums):
            prev = report.sphere_sums[m - 1] if m else 0.0
            ratio = _fmt(s / prev) if m and prev > 0 and s > 0 else ""
            rows.append((_fmt(report.p), m, _fmt(s), ratio, report.verdict))
    _write_csv(
        out / "summability.csv",
        ["p", "m", "sphere_sum", "ratio", "verdict"],
        rows,
    )
    return EXIT_OK


def _cmd_spectrum(args: argparse.Namespace) -> int:
    config = _load_config(args)
    rank = _setting(args, config, "rank", None)
    phi_path = _setting(args, config, "phi", None)
    if phi_path is None:
        group = FreeGroup(_integer(rank if rank is not None else 2, "rank"))
        phi = LocallyConstantFunction.indicator(group, Word((0,)))
        label = "indicator_a"
    else:
        phi, group, label = _load_function_file(phi_path, None, rank)
    vs = _visual(args, config, group)
    radius = _int_setting(args, config, "radius", 1, 0)
    level = _int_setting(args, config, "m", phi.depth + radius, 1)
    budget, explicit = _budget(args, config)
    dense_budget = budget if explicit else OPERATOR_BUDGET
    ps = _setting(args, config, "p", None) or [2.0, 3.0]
    out = _out_dir(args, config)

    trunc = Truncation(vs, radius, level)
    trunc.check_dense_budget(dense_budget)
    report = verify_pi_identity(phi, trunc)
    values = commutator_singular_values(phi, trunc)
    match = match_deviation_table(phi, trunc, values)
    nonzero = match.nonzero
    schatten = []
    for p in ps:
        p = float(p)
        norm = sum(v**p for v in nonzero) ** (1.0 / p) if nonzero else 0.0
        schatten.append(
            {
                "p": _fmt(p),
                "schatten_norm": _fmt(norm),
                "completion_norm": _fmt(phi.sup_norm() + norm),
            }
        )
    obj = {
        "rank": group.n,
        "phi": label,
        "R": radius,
        "m": level,
        "epsilon": _fmt(vs.epsilon),
        "dim": trunc.dim,
        "pi_identity_error": _fmt(report.pi_error),
        "compression_error": _fmt(report.compression_error),
        "deviation_match_error": _fmt(match.error),
        "singular_values": [_fmt(v) for v in values],
        "schatten": schatten,
    }
    _write_json(out / "spectrum.json", obj)
    _write_csv(
        out / "spectrum.csv",
        ["index", "singular_value"],
        [(i, _fmt(v)) for i, v in enumerate(values)],
    )
    return EXIT_OK


def _cmd_chern(args: argparse.Namespace) -> int:
    config = _load_config(args)
    input_path = _setting(args, config, "input", None)
    if input_path is None:
        raise ValueError("chern needs --input terms.json")
    try:
        obj = json.loads(Path(input_path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"bad terms file {input_path}: {exc}") from exc
    if not isinstance(obj, dict) or not obj.get("terms"):
        raise ValueError(
            f"terms file {input_path} must hold an object with a 'terms' list"
        )
    rank = _setting(args, config, "rank", None)
    if rank is None:
        rank = obj.get("rank", 2)
    group = FreeGroup(_integer(rank, "rank"))
    degree = _setting(args, config, "degree", None)
    if degree is None:
        degree = obj.get("degree", len(obj.get("terms", [])) - 1)
    radius = _int_setting(args, config, "radius", 4, 0)
    budget, _ = _budget(args, config)
    out = _out_dir(args, config)

    terms = []
    for entry in obj["terms"]:
        try:
            phi = LocallyConstantFunction.from_json_obj(entry["phi"], group)
        except _TABLE_ERRORS as exc:
            raise ValueError(f"bad term in {input_path}: {exc}") from exc
        terms.append((phi, group.word(entry.get("g", "1"))))
    inp = CocycleInput(_integer(degree, "degree", 1), terms)
    value = cocycle_value(inp, radius, budget=budget)
    report = {
        "rank": group.n,
        "degree": inp.degree,
        "radius": radius,
        "group_product": word_to_str(inp.group_product),
        "value": _complex_obj(value.value),
        "tail_bound": _fmt(value.tail_bound),
        "certified": value.certified,
        "partial_exact": {
            "re": _frac(value.exact_partial.re),
            "im": _frac(value.exact_partial.im),
        },
        "spheres": [
            {"m": m, "abs": _fmt(s), "bound": _fmt(b)}
            for m, (s, b) in enumerate(zip(value.sphere_abs, value.sphere_bounds))
        ],
    }
    oracle_r = _int_setting(args, config, "oracle_R", None, 0)
    oracle_m = _int_setting(args, config, "oracle_m", None, 1)
    if oracle_r is not None and oracle_m is not None:
        vs = _visual(args, config, group)
        trunc = Truncation(vs, oracle_r, oracle_m)
        oracle = trace_oracle_report(inp, trunc)
        gap = abs(oracle.value - value.value)
        allowance = value.tail_bound + oracle.window_correction
        report["oracle"] = {
            "R": oracle_r,
            "m": oracle_m,
            "value": _complex_obj(oracle.value),
            "window_correction": _fmt(oracle.window_correction),
            "chain_exits": oracle.chain_exits,
            "inexact_blocks": oracle.inexact_blocks,
            "gap": _fmt(gap),
            "allowance": _fmt(allowance),
            "consistent": bool(gap <= allowance),
        }
    _write_json(out / "chern.json", report)
    _write_csv(
        out / "chern.csv",
        ["m", "sphere_abs", "sphere_bound"],
        [
            (m, _fmt(s), _fmt(b))
            for m, (s, b) in enumerate(zip(value.sphere_abs, value.sphere_bounds))
        ],
    )
    if "oracle" in report and not report["oracle"]["consistent"]:
        print("trace oracle outside the certified allowance", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_furstenberg(args: argparse.Namespace) -> int:
    config = _load_config(args)
    group = _group(args, config)
    g = group.word(str(_setting(args, config, "g", "a")))
    if g.is_identity:
        raise ValueError("the driving element must not be the identity")
    max_power = _int_setting(args, config, "max_power", 10, 1)
    depth = _int_setting(args, config, "depth", 1, 1)
    budget, _ = _budget(args, config)
    out = _out_dir(args, config)
    omega = BoundaryPoint(IDENTITY, g)
    rows = []
    power = IDENTITY
    for m in range(1, max_power + 1):
        power = mul(power, g)
        d = weak_distance_to_delta(power, omega, depth, group, budget=budget)
        rows.append((m, _frac(d), _fmt(float(d))))
    obj = {
        "rank": group.n,
        "g": word_to_str(g),
        "endpoint": str(omega),
        "depth": depth,
        "rows": [
            {"m": m, "distance": d, "distance_float": f} for m, d, f in rows
        ],
    }
    _write_json(out / "furstenberg.json", obj)
    _write_csv(out / "furstenberg.csv", ["m", "distance", "distance_float"], rows)
    return EXIT_OK


def _cmd_verify_all(args: argparse.Namespace) -> int:
    config = _load_config(args)
    group = _group(args, config)
    vs = _visual(args, config, group)
    radius = _int_setting(args, config, "radius", 2, 0)
    seed = _int_setting(args, config, "seed", 0)
    tol_scale = float(_setting(args, config, "tol_scale", 1.0))
    budget, _ = _budget(args, config)
    out = _out_dir(args, config)
    ctx = VerifyContext(
        group=group,
        vs=vs,
        radius=radius,
        seed=seed,
        tol_scale=tol_scale,
        budget=budget,
    )
    results = run_all(ctx)
    ok = all(r.ok for r in results)
    obj = {
        "rank": group.n,
        "radius": radius,
        "epsilon": _fmt(vs.epsilon),
        "seed": seed,
        "tol_scale": _fmt(tol_scale),
        "ok": ok,
        "checks": [
            {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
        ],
    }
    _write_json(out / "verify-all.json", obj)
    _write_csv(
        out / "verify-all.csv",
        ["name", "ok", "detail"],
        [(r.name, str(r.ok).lower(), r.detail) for r in results],
    )
    passed = sum(1 for r in results if r.ok)
    print(f"verify-all: {passed}/{len(results)} checks passed")
    return EXIT_OK if ok else EXIT_INVARIANT


# ----------------------------------------------------------------------
# parser

def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON settings file; explicit flags win")
    sp.add_argument("--out", help="output directory (default .)")
    sp.add_argument(
        "--budget",
        type=int,
        help=f"enumeration cap (default {DEFAULT_BUDGET}, env {ENV_BUDGET})",
    )


def _add_rank(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--n", "--rank", dest="rank", type=int, help="free group rank (default 2)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeboundary",
        description="Exact boundary dynamics for free groups: reports on "
        "deviation profiles, summability, operator truncations, and cyclic "
        "cocycles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("growth", help="ball sizes, enumerated and closed form")
    _add_rank(sp)
    sp.add_argument("--R", "--radius", dest="radius", type=int)
    _add_common(sp)
    sp.set_defaults(func=_cmd_growth)

    sp = sub.add_parser("deviation", help="expectation/deviation profile over a ball")
    _add_rank(sp)
    sp.add_argument("--phi", help="function JSON file")
    sp.add_argument("--R", "--radius", dest="radius", type=int)
    _add_common(sp)
    sp.set_defaults(func=_cmd_deviation)

    sp = sub.add_parser("summability", help="Schatten sphere sums and verdicts")
    _add_rank(sp)
    sp.add_argument("--phi", help="function JSON file (default indicator [a])")
    sp.add_argument("--R", "--radius", dest="radius", type=int)
    sp.add_argument("--epsilon", type=float, help="visual parameter (default ln(2n-1))")
    sp.add_argument("--p", action="append", type=float, help="exponent, repeatable")
    _add_common(sp)
    sp.set_defaults(func=_cmd_summability)

    sp = sub.add_parser("spectrum", help="truncated operator identities and spectra")
    _add_rank(sp)
    sp.add_argument("--phi", help="function JSON file (default indicator [a])")
    sp.add_argument("--R", "--radius", dest="radius", type=int)
    sp.add_argument("--m", type=int, help="fiber depth (default depth(phi)+R)")
    sp.add_argument("--epsilon", type=float)
    sp.add_argument("--p", action="append", type=float, help="Schatten exponent")
    _add_common(sp)
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("chern", help="cyclic cocycle value with certified tail")
    sp.add_argument("--degree", dest="degree", type=int, help="odd degree")
    _add_rank(sp)
    sp.add_argument("--input", help="terms JSON file")
    sp.add_argument("--radius", "--R", dest="radius", type=int)
    sp.add_argument("--oracle-R", dest="oracle_R", type=int, help="trace oracle ball radius")
    sp.add_argument("--oracle-m", dest="oracle_m", type=int, help="trace oracle fiber depth")
    sp.add_argument("--epsilon", type=float)
    _add_common(sp)
    sp.set_defaults(func=_cmd_chern)

    sp = sub.add_parser("furstenberg", help="weak-* convergence of g^m mu to a point mass")
    _add_rank(sp)
    sp.add_argument("--g", help="driving element (default a)")
    sp.add_argument("--max-power", dest="max_power", type=int)
    sp.add_argument("--depth", type=int, help="cylinder depth for the distance")
    _add_common(sp)
    sp.set_defaults(func=_cmd_furstenberg)

    sp = sub.add_parser("verify-all", help="run the full invariant suite")
    _add_rank(sp)
    sp.add_argument("--R", "--radius", dest="radius", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--tol-scale", dest="tol_scale", type=float)
    sp.add_argument("--epsilon", type=float)
    _add_common(sp)
    sp.set_defaults(func=_cmd_verify_all)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
