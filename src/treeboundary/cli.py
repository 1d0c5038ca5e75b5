"""Batch command-line front end.

Subcommands: deviation, summability, spectrum, chern, furstenberg, growth,
verify-all.  Each writes ``<subcommand>.json`` and ``<subcommand>.csv`` into
the output directory and prints the paths; there is no interactive mode.

Exit codes: 0 success, 1 invariant violation, 2 usage or input error,
3 budget exceeded.

Reports are deterministic: fixed key order, floats rendered as 17
significant digits (lossless binary64 round-trip), rationals as "p/q"; the
one rendering of each is ``functions.float_str`` and ``functions.frac_str``.
``_write_report`` writes the two files of every subcommand but
``deviation``, whose profile renders its own rows.

Input contract: ``SETTINGS`` declares each setting once (flags, kind, help)
and ``COMMANDS`` gives each subcommand's settings and defaults;
``parse_args`` reads the command line, and writes the help, from both.  A
setting resolves as flag > config file (--config, a JSON object keyed by
setting name) > environment (TREEBOUNDARY_BUDGET, budget only) > default,
and every value, whatever its source, passes its kind's check.  Function
and terms files are checked by ``_table`` and ``_cocycle_input``; their
errors name the file.  A subcommand reads all its input and computes its
report before it creates the output directory.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple, Sequence

from .boundary import BoundaryPoint, VisualStructure, pushforward_weights
from .chern import CocycleInput, cocycle_value, trace_identity, trace_oracle_report
from .deviation import DeviationProfile
from .functions import LocallyConstantFunction, float_str, frac_str
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
from .words import DEFAULT_BUDGET, BudgetError, FreeGroup, IDENTITY, Word, word_to_str

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

ENV_BUDGET = "TREEBOUNDARY_BUDGET"


def _complex_obj(z: complex) -> dict[str, str]:
    return {"re": float_str(z.real), "im": float_str(z.imag)}


def _stringify(obj: Any) -> Any:
    """Recursively render floats as 17-digit strings for stable JSON."""
    if isinstance(obj, float):
        return float_str(obj)
    if isinstance(obj, dict):
        return {k: _stringify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stringify(v) for v in obj]
    return obj


def _out_dir(settings: SimpleNamespace) -> Path:
    out = Path(settings.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # --out names a file, or a place that cannot be written
        raise ValueError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _write_report(
    s: SimpleNamespace, name: str, obj: Any, header: Sequence[str], rows: Sequence[Sequence]
) -> None:
    """``<name>.json`` (``obj``, keys sorted) and ``<name>.csv`` (``header``
    and ``rows``) in the output directory."""
    out = _out_dir(s)
    path = out / f"{name}.json"
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    path = out / f"{name}.csv"
    with path.open("w", newline="") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {path}")


# ----------------------------------------------------------------------
# kinds: each takes a value from a flag (a string), a config file or an
# input file, and its name for the error, and returns the checked value

Kind = Callable[[Any, str], Any]


def _integer(minimum: int | None = None) -> Kind:
    """An integer, at least ``minimum`` if given; ``2.0`` and ``"2"`` pass,
    ``2.5`` and booleans do not."""

    def check(value: Any, name: str) -> int:
        try:
            number = int(value)
        except (TypeError, ValueError, OverflowError):  # a list, "2.5", nan, inf
            number = None
        if number is None or type(value) is bool or isinstance(value, float) and number != value:
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if minimum is not None and number < minimum:
            raise ValueError(f"{name} must be at least {minimum}, got {number}")
        return number

    return check


def _finite(minimum: float, maximum: float = math.inf) -> Kind:
    """A finite number from ``minimum`` to ``maximum``, both included."""

    def check(value: Any, name: str) -> float:
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):  # a list, "x", 10**400
            number = math.nan
        if isinstance(value, bool) or not (math.isfinite(number) and minimum <= number <= maximum):
            bound = f">= {minimum}" if maximum == math.inf else f"in [{minimum}, {maximum}]"
            raise ValueError(f"{name} must be a finite number {bound}, got {value!r}")
        return number

    return check


# The bounds of p and epsilon keep every report finite in binary64 for balls
# and spectra of fewer than 2^64 elements and function values below 2^15.
# p >= 1/8: spectrum's (sum of v^p)^(1/p) <= N^(1/p) max v stays below 2^1024
# for N < 2^64 singular values under 2^512.  p <= 64: each power v^p and
# sigma^p, and each sphere sum of them, stays below 2^1024, and an even p
# raises each exact sigma^2 to at most the 32nd power.
P_RANGE = (2.0**-3, 2.0**6)
# epsilon >= 2^-1000: the dimension D = ln(2n-1)/epsilon stays finite.
# epsilon <= 16: the sorted-decay bound C j^(-1/D), with C = (n/(n-1))^(1/D),
# stays a normal number (above 2^-932) for every ball size j < 2^64.
EPSILON_RANGE = (2.0**-1000, 16.0)
_exponent = _finite(*P_RANGE)


def _exponents(value: Any, name: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ValueError(f"{name} must be a non-empty list of numbers, got {value!r}")
    return [_exponent(v, name) for v in value]


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float, str)) and not isinstance(value, bool)


def _text(value: Any, name: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


class Setting(NamedTuple):
    flags: tuple[str, ...]
    kind: Kind
    help: str


SETTINGS = {
    "rank": Setting(("--n", "--rank"), _integer(2), "free group rank"),
    "phi": Setting(("--phi",), _text, "function JSON file"),
    "input": Setting(("--input",), _text, "terms JSON file"),
    "degree": Setting(("--degree",), _integer(1), "odd cocycle degree"),
    "radius": Setting(("--R", "--radius"), _integer(0), "ball radius"),
    "m": Setting(("--m",), _integer(1), "fiber depth (default depth(phi)+R)"),
    "oracle_R": Setting(("--oracle-R",), _integer(0), "trace oracle ball radius"),
    "oracle_m": Setting(("--oracle-m",), _integer(1), "trace oracle fiber depth"),
    "epsilon": Setting(
        ("--epsilon",), _finite(*EPSILON_RANGE), "visual parameter, at most 16 (default ln(2n-1))"
    ),
    "p": Setting(("--p",), _exponents, "exponent from 1/8 to 64, repeatable"),
    "g": Setting(("--g",), _text, "driving element"),
    "max_power": Setting(("--max-power",), _integer(1), "largest power of g"),
    "depth": Setting(("--depth",), _integer(1), "cylinder depth for the distance"),
    "seed": Setting(("--seed",), _integer(), "random seed"),
    "tol_scale": Setting(
        ("--tol-scale",), _finite(0), "multiplier of every float tolerance"
    ),
    "out": Setting(("--out",), _text, "output directory"),
    "budget": Setting(("--budget",), _integer(1), f"enumeration cap (env {ENV_BUDGET})"),
}


def _read_json(path: str, what: str) -> dict:
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise ValueError(f"bad {what} file {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{what} file {path} must hold a JSON object")
    return obj


def _read_config(path: str | None, command: str) -> dict[str, Any]:
    """The settings in the config file, each checked by its kind; a key
    that names no setting of ``command`` is an error, as its flag would be;
    a null value is no value."""
    if path is None:
        return {}
    config = {}
    for key, value in _read_json(path, "config").items():
        if key not in COMMANDS[command][2]:
            raise ValueError(f"config file {path}: {key!r} is not a setting of {command}")
        if value is not None:
            config[key] = SETTINGS[key].kind(value, f"{key} in config file {path}")
    return config


def _resolve(args: SimpleNamespace) -> SimpleNamespace:
    """Every setting of ``args.command``: flag > config > environment
    (budget only) > default, each value through its setting's kind."""
    config = _read_config(args.config, args.command)
    settings = SimpleNamespace()
    for name, default in COMMANDS[args.command][2].items():
        value = getattr(args, name)
        if value is not None:
            value = SETTINGS[name].kind(value, name)
        elif name in config:
            value = config[name]
        elif name == "budget" and ENV_BUDGET in os.environ:
            value = SETTINGS[name].kind(os.environ[ENV_BUDGET], ENV_BUDGET)
        else:
            value = default
        setattr(settings, name, value)
    return settings


def _file_setting(
    settings: SimpleNamespace, name: str, obj: dict, default: Any, where: str
) -> Any:
    """A setting an input file may also give: flag > config > the file's key
    > ``default``."""
    value = getattr(settings, name)
    if value is None:
        value = SETTINGS[name].kind(obj.get(name, default), f"{name} in {where}")
    return value


def _table(obj: Any, group: FreeGroup, where: str) -> LocallyConstantFunction:
    """The function table ``obj``: "depth" an integer >= 0 and "values" an
    object mapping each depth-cell word to a [re, im] pair of numbers."""
    if not isinstance(obj, dict) or not isinstance(obj.get("values"), dict):
        raise ValueError(f"{where} needs a 'values' object")
    depth = _integer(0)(obj.get("depth"), f"depth in {where}")
    for key, pair in obj["values"].items():
        if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_number, pair))):
            raise ValueError(f"{where}: {key!r} must map to an [re, im] pair, got {pair!r}")
    table = {"depth": depth, "values": obj["values"]}
    try:
        return LocallyConstantFunction.from_json_obj(table, group)
    except (ValueError, ArithmeticError) as exc:  # a bad literal, cell or count; "1/0"; inf
        raise ValueError(f"{where}: {exc}") from exc


def _function(settings: SimpleNamespace) -> tuple[LocallyConstantFunction, str]:
    """The --phi function and its label; without --phi, the indicator of [a]."""
    if settings.phi is None:
        group = FreeGroup(2 if settings.rank is None else settings.rank)
        return LocallyConstantFunction.indicator(group, Word((0,))), "indicator_a"
    where = f"function file {settings.phi}"
    obj = _read_json(settings.phi, "function")
    group = FreeGroup(_file_setting(settings, "rank", obj, 2, where))
    return _table(obj, group, where), Path(settings.phi).stem


def _cocycle_input(settings: SimpleNamespace) -> CocycleInput:
    """The terms file: "terms" a non-empty list of objects, each with a
    function table "phi" and a word string "g" (default "1")."""
    path = settings.input
    if path is None:
        raise ValueError("chern needs --input terms.json")
    where = f"terms file {path}"
    obj = _read_json(path, "terms")
    entries = obj.get("terms")
    if not (isinstance(entries, list) and entries and all(isinstance(e, dict) for e in entries)):
        raise ValueError(f"{where} needs a non-empty 'terms' list of objects")
    group = FreeGroup(_file_setting(settings, "rank", obj, 2, where))
    degree = _file_setting(settings, "degree", obj, len(entries) - 1, where)
    terms = []
    for i, entry in enumerate(entries):
        term = f"term {i} of {where}"
        phi = _table(entry.get("phi"), group, term)
        g = _text(entry.get("g", "1"), f"g in {term}")
        try:
            terms.append((phi, group.word(g)))
        except ValueError as exc:  # a letter outside the alphabet
            raise ValueError(f"{term}: {exc}") from exc
    return CocycleInput(degree, terms)


# ----------------------------------------------------------------------
# subcommands: each takes its resolved settings


def _cmd_growth(s: SimpleNamespace) -> int:
    group = FreeGroup(s.rank)
    group.check_budget(s.budget, R=s.radius)
    # one walk of each sphere's letter tuples, counted; row r enumerates
    # the spheres up to r
    rows = []
    enumerated = 0
    for r in range(s.radius + 1):
        enumerated += sum(1 for _ in group.iter_sphere_letters(r))
        rows.append((r, group.growth_count(r), enumerated))
    obj = {
        "rank": group.n,
        "radius": s.radius,
        "rows": [
            {"R": r, "closed_form": c, "enumerated": e} for r, c, e in rows
        ],
    }
    _write_report(s, "growth", obj, ["R", "closed_form", "enumerated"], rows)
    bad = [r for r, c, e in rows if c != e]
    if bad:
        print(f"count mismatch at R={bad}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_deviation(s: SimpleNamespace) -> int:
    if s.phi is None:
        raise ValueError("deviation needs --phi FILE")
    phi, label = _function(s)
    phi.group.check_budget(s.budget, R=s.radius)  # the writers expand every row of B_R
    profile = DeviationProfile.compute(phi, s.radius, label=label, budget=s.budget)
    out = _out_dir(s)
    with (out / "deviation.json").open("w") as fp:
        profile.write_json(fp, rank=phi.group.n)
    print(f"wrote {out / 'deviation.json'}")
    with (out / "deviation.csv").open("w", newline="") as fp:
        profile.write_csv(fp)
    print(f"wrote {out / 'deviation.csv'}")
    return EXIT_OK


def _cmd_summability(s: SimpleNamespace) -> int:
    phi, label = _function(s)
    group = phi.group
    vs = VisualStructure(group, s.epsilon)
    group.check_class_budget(s.budget, phi.depth, 0, s.radius, by_length=True)
    profile = DeviationProfile.compute(phi, s.radius, label=label, budget=s.budget)
    reports = [lp_report(profile, p, vs) for p in s.p]
    surrogate = dplus_surrogate_check(group, vs, s.radius)
    obj = {
        "rank": group.n,
        "epsilon": float_str(vs.epsilon),
        "phi": label,
        "radius": s.radius,
        "dimension": float_str(hausdorff_dimension(vs)),
        "threshold": float_str(summability_threshold(vs)),
        "decay_exponent_fit": _stringify(decay_exponent_fit(profile)),
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
    rows = []
    for report in reports:
        for m, sphere_sum in enumerate(report.sphere_sums):
            prev = report.sphere_sums[m - 1] if m else 0.0
            ratio = float_str(sphere_sum / prev) if m and prev > 0 and sphere_sum > 0 else ""
            rows.append((float_str(report.p), m, float_str(sphere_sum), ratio, report.verdict))
    _write_report(s, "summability", obj, ["p", "m", "sphere_sum", "ratio", "verdict"], rows)
    return EXIT_OK


def _cmd_spectrum(s: SimpleNamespace) -> int:
    phi, label = _function(s)
    group = phi.group
    vs = VisualStructure(group, s.epsilon)
    level = phi.depth + s.radius if s.m is None else s.m
    trunc = Truncation(group, s.radius, level)
    trunc.check_dense_budget(s.budget)
    report = verify_pi_identity(phi, trunc)
    values = commutator_singular_values(phi, trunc)
    match = match_deviation_table(phi, trunc, values)
    nonzero = match.nonzero
    schatten = []
    for p in s.p:
        norm = sum(v**p for v in nonzero) ** (1.0 / p) if nonzero else 0.0
        schatten.append(
            {
                "p": float_str(p),
                "schatten_norm": float_str(norm),
                "completion_norm": float_str(phi.sup_norm() + norm),
            }
        )
    obj = {
        "rank": group.n,
        "phi": label,
        "R": s.radius,
        "m": level,
        "epsilon": float_str(vs.epsilon),
        "dim": trunc.dim,
        "pi_identity_error": float_str(report.pi_error),
        "compression_error": float_str(report.compression_error),
        "deviation_match_error": float_str(match.error),
        "singular_values": [float_str(v) for v in values],
        "schatten": schatten,
    }
    rows = [(i, float_str(v)) for i, v in enumerate(values)]
    _write_report(s, "spectrum", obj, ["index", "singular_value"], rows)
    return EXIT_OK


def _cmd_chern(s: SimpleNamespace) -> int:
    inp = _cocycle_input(s)
    group = inp.group
    trunc = identity = None
    if (s.oracle_R is None) != (s.oracle_m is None):
        missing = "--oracle-m" if s.oracle_m is None else "--oracle-R"
        raise ValueError(f"the trace oracle needs --oracle-R and --oracle-m; {missing} is missing")
    if s.oracle_R is not None:
        trunc = Truncation(group, s.oracle_R, s.oracle_m)
        # the contract's caps on the truncation B_R x S_m; the oracle itself
        # walks only the staying h and one cylinder per fiber shape
        group.check_budget(s.budget, R=s.oracle_R)
        group.check_budget(s.budget, m=s.oracle_m)
    value = cocycle_value(inp, s.radius, budget=s.budget)
    total = value.total
    spheres = [(m, float_str(math.sqrt(float(z.abs2())))) for m, z in enumerate(value.spheres)]
    report = {
        "rank": group.n,
        "degree": inp.degree,
        "radius": s.radius,
        "group_product": word_to_str(inp.group_product),
        "value": _complex_obj(value.value),
        "partial_exact": {
            "re": frac_str(value.exact_partial.re),
            "im": frac_str(value.exact_partial.im),
        },
        "total_exact": {"re": frac_str(total.re), "im": frac_str(total.im)},
        "total": _complex_obj(total.to_complex()),
        "spheres": [{"m": m, "abs": a} for m, a in spheres],
    }
    if trunc is not None:
        oracle = trace_oracle_report(inp, trunc)
        identity = trace_identity(inp, trunc, value, oracle)
        if not identity.compared:  # an empty comparison holds nothing
            why = (
                "the terms' group product is not 1" if inp.group_product != IDENTITY
                else "no h keeps its chain in B_R on exact fiber blocks"
            )
            raise ValueError(
                f"the trace oracle at --oracle-R {s.oracle_R} --oracle-m {s.oracle_m} "
                f"compares no h: {why}"
            )
        report["oracle"] = {
            "R": s.oracle_R,
            "m": s.oracle_m,
            "value": _complex_obj(oracle.value),
            "chain_exits": oracle.chain_exits,
            "inexact_blocks": oracle.inexact_blocks,
            "gap": float_str(abs(oracle.value - value.value)),
            "identity_h": identity.compared,
            "identity_gap": float_str(identity.gap),
            "identity_tolerance": float_str(identity.tolerance),
            "consistent": identity.holds,
        }
    _write_report(s, "chern", report, ["m", "sphere_abs"], spheres)
    if identity is not None and not identity.holds:
        gap, tol = float_str(identity.gap), float_str(identity.tolerance)
        print(f"trace oracle off the cocycle summand at some h by {gap} > {tol}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _check_powers(group: FreeGroup, length: int, s: SimpleNamespace) -> None:
    """Decide from the settings alone whether ``furstenberg``'s distances can be
    written out.

    The distance at power m is a fraction over the pushforward denominator
    2n (2n-1)^(m|g| + k - 1), |g^m| = m|g| for the cyclically reduced g, and
    its "p/q" string must stay within Python's int-to-str digit limit, which
    versions before 3.10.7 do not have.  The depth's sphere budget is
    checked first, so a huge ``--depth`` is named as such.
    """
    group.check_budget(s.budget, m=s.depth)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    exponent = s.max_power * length + s.depth - 1
    if limit and exponent > (limit - math.log10(2 * group.n)) / math.log10(2 * group.n - 1):
        raise BudgetError(
            exponent,
            limit,
            f"--max-power: the distances at the largest power need more than {limit} "
            "digits, past Python's int-to-str digit limit",
        )


def _cmd_furstenberg(s: SimpleNamespace) -> int:
    group = FreeGroup(s.rank)
    g = group.word(s.g)
    if g.is_identity:
        raise ValueError("the driving element must not be the identity")
    omega = BoundaryPoint(IDENTITY, g)  # checks that g is cyclically reduced
    _check_powers(group, len(g), s)
    rows = []
    for m in range(1, s.max_power + 1):
        # g^m is the prefix of omega = g^inf of length m|g|, so it shares
        # min(m|g|, depth) letters with prefix_depth(omega); no power is built
        total, weights = pushforward_weights(m * len(g), s.depth, group)
        d = 2 * (1 - Fraction(weights[min(m * len(g), s.depth)], total))
        rows.append((m, frac_str(d), float_str(d)))
    obj = {
        "rank": group.n,
        "g": word_to_str(g),
        "endpoint": str(omega),
        "depth": s.depth,
        "rows": [
            {"m": m, "distance": d, "distance_float": f} for m, d, f in rows
        ],
    }
    _write_report(s, "furstenberg", obj, ["m", "distance", "distance_float"], rows)
    return EXIT_OK


def _cmd_verify_all(s: SimpleNamespace) -> int:
    group = FreeGroup(s.rank)
    vs = VisualStructure(group, s.epsilon)
    ctx = VerifyContext(
        group=group,
        vs=vs,
        radius=s.radius,
        seed=s.seed,
        tol_scale=s.tol_scale,
        budget=s.budget,
    )
    results = run_all(ctx)
    ok = all(r.ok for r in results)
    obj = {
        "rank": group.n,
        "radius": s.radius,
        "epsilon": float_str(vs.epsilon),
        "seed": s.seed,
        "tol_scale": float_str(s.tol_scale),
        "ok": ok,
        "checks": [
            {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
        ],
    }
    rows = [(r.name, str(r.ok).lower(), r.detail) for r in results]
    _write_report(s, "verify-all", obj, ["name", "ok", "detail"], rows)
    passed = sum(1 for r in results if r.ok)
    print(f"verify-all: {passed}/{len(results)} checks passed")
    return EXIT_OK if ok else EXIT_INVARIANT


# ----------------------------------------------------------------------
# parser

# subcommand -> (runner, help, {setting: default}); a default of None means
# unset, or worked out by the subcommand from its other inputs
_COMMON = {"out": ".", "budget": DEFAULT_BUDGET}
COMMANDS = {
    "growth": (
        _cmd_growth, "ball sizes, enumerated and closed form", dict(_COMMON, rank=2, radius=3)
    ),
    "deviation": (
        _cmd_deviation,
        "expectation/deviation profile over a ball",
        dict(_COMMON, rank=None, phi=None, radius=4),
    ),
    "summability": (
        _cmd_summability,
        "Schatten sphere sums, exact even-p totals, convergence",
        dict(_COMMON, rank=None, phi=None, radius=5, epsilon=None, p=[2.0, 3.0]),
    ),
    "spectrum": (
        _cmd_spectrum,
        "truncated operator identities and spectra",
        dict(_COMMON, budget=OPERATOR_BUDGET, rank=None, phi=None, radius=1, m=None,
             epsilon=None, p=[2.0, 3.0]),
    ),
    "chern": (
        _cmd_chern,
        "cyclic cocycle value, exact over the whole group",
        dict(_COMMON, degree=None, rank=None, input=None, radius=4, oracle_R=None,
             oracle_m=None),
    ),
    "furstenberg": (
        _cmd_furstenberg,
        "weak-* convergence of g^m mu to a point mass",
        dict(_COMMON, rank=2, g="a", max_power=10, depth=1),
    ),
    "verify-all": (
        _cmd_verify_all,
        "run the full invariant suite",
        dict(_COMMON, rank=2, radius=2, seed=0, tol_scale=1.0, epsilon=None),
    ),
}


_DESCRIPTION = (
    "Exact boundary dynamics for free groups: reports on deviation profiles, "
    "summability, operator truncations, and cyclic cocycles."
)
_HELP = ("-h", "--help")


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: treeboundary [-h] {{{','.join(COMMANDS)}}} ..."
    flags = [f"[{SETTINGS[name].flags[0]} {name.upper()}]" for name in COMMANDS[command][2]]
    return f"usage: treeboundary {command} [-h] {' '.join(flags)} [--config CONFIG]"


def _help(command: str | None) -> str:
    """The usage line, then each subcommand with its help text, or each flag
    of ``command`` with its help text and default."""
    if command is None:
        lines = [_DESCRIPTION, "", "subcommands:"]
        lines += [f"  {name:<23} {text}" for name, (_, text, _) in COMMANDS.items()]
        lines += ["", "treeboundary <subcommand> --help lists the subcommand's flags."]
    else:
        _, about, defaults = COMMANDS[command]
        lines = [about, "", "flags:"]
        for name, default in defaults.items():
            flags, _, text = SETTINGS[name]
            if default is not None:
                text = f"{text} (default {default})"
            lines.append(f"  {', '.join(flags) + ' ' + name.upper():<23} {text}")
        lines.append(f"  {'--config CONFIG':<23} JSON settings file; explicit flags win")
        lines.append(f"  {', '.join(_HELP):<23} show this help and exit")
    return "\n".join([_usage(command), "", *lines])


def _usage_error(command: str | None, message: str) -> ValueError:
    # a malformed command line is a usage error like any other bad input
    print(_usage(command), file=sys.stderr)
    return ValueError(message)


def _is_value(arg: str) -> bool:
    """Whether ``arg`` can be a flag's value: it does not start with "-",
    or it is a number (``--seed -3``)."""
    if not arg.startswith("-"):
        return True
    try:
        float(arg)
    except ValueError:
        return False
    return True


def parse_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """The subcommand, ``--config`` and each setting of the subcommand as
    given on the command line: a string, a list of strings for ``--p``, or
    None when absent.  Prints the help and returns None for -h/--help.

    A flag is one of the setting's flags in ``SETTINGS`` or a unique prefix
    of one, its value the next argument or the text after its first "=";
    ``--p`` appends, any other flag's last value wins.
    """
    command = argv[0] if argv else None
    if command in _HELP:
        print(_help(None))
        return None
    if command not in COMMANDS:
        problem = f"invalid subcommand {command!r}" if command else "a subcommand is required"
        raise _usage_error(None, f"{problem} (choose from {', '.join(COMMANDS)})")
    defaults = COMMANDS[command][2]
    flags = {flag: name for name in defaults for flag in SETTINGS[name].flags}
    flags.update({"--config": "config", **dict.fromkeys(_HELP, "help")})
    args = SimpleNamespace(command=command, config=None, **dict.fromkeys(defaults))
    rest = iter(argv[1:])
    for arg in rest:
        flag, eq, value = arg.partition("=")
        if flag in flags:
            matches = [flag]
        elif flag.startswith("--") and len(flag) > 2:  # a prefix of long flags
            matches = [f for f in flags if f.startswith(flag)]
        else:
            matches = []
        if not matches:
            raise _usage_error(command, f"unrecognized argument: {arg}")
        if len(matches) > 1:
            raise _usage_error(command, f"ambiguous flag: {flag} could match {', '.join(matches)}")
        name = flags[matches[0]]
        if name == "help":
            print(_help(command))
            return None
        if not eq:
            value = next(rest, None)
            if value is None or not _is_value(value):
                raise _usage_error(command, f"flag {matches[0]} expects one value")
        if name == "p":
            value = (args.p or []) + [value]
        setattr(args, name, value)
    return args


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:  # the help was printed
            return EXIT_OK
        return COMMANDS[args.command][0](_resolve(args))
    except BudgetError as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:  # an exact value beyond binary64, from a function value
        print(f"error: a value is too large for the report's float fields: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
