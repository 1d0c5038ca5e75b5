"""Spans around the public functions of each treeboundary layer.

The wrappers are installed from outside the library.  The modules bind names
with ``from .x import y``, so a wrapper replaces every module attribute (and
class attribute) that holds the wrapped function, not only the one in its
defining module.  ``mul`` and ``Word.__post_init__`` run a million times or
more per report and are not wrapped: their cost shows in the self time of
their callers.  Generator methods get one span per ``next()``.

Spans stay in memory as four parallel arrays (name, parent, start, end) and
are written out when the report ends.  A span's self time is its duration
minus the durations of its child spans.  Every span nests inside the root
span around ``cli.main``, so the self times of all spans of a report add up
to its traced wall time.

A span's name is ``<layer>.<function>``; the layer is the module that
defines the function.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import defaultdict

import numpy as np

import treeboundary

# importlib, because the package binds the function ``deviation`` over the
# submodule of the same name
_LAYER_MODULES = tuple(
    importlib.import_module(f"treeboundary.{name}")
    for name in ("words", "boundary", "functions", "deviation", "summability",
                 "operators", "svd", "chern", "verify", "cli")
)
words, boundary, functions, deviation, summability, operators, svd, chern, verify, cli = _LAYER_MODULES

EXPECTATION_SPANS = ("deviation.expectation", "deviation._expectation_abs_sq")
DENSE_SPANS = tuple(
    f"operators.{name}"
    for name in (
        "projection_P",
        "rep_function",
        "rep_group",
        "rep_crossed",
        "homotopy_projection",
        "homotopy_projection_check",
        "verify_pi_identity",
        "verify_compression_identity",
        "conditional_lower_bound_check",
    )
)
# counters that keep a maximum; every other counter is a sum
MAX_COUNTERS = ("words.budget_frac", "operators.dense_dim_max", "svd.cols_max")


class Tracer:
    """Span arrays and work counters of one report process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: defaultdict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, hook=None):
        """``fn`` recording one span per call; ``hook(counters, args, kwargs,
        result)`` runs inside the span after a successful call."""
        ix = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counters, clock = self.stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(ix)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(counters, args, kwargs, result)
                return result
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    def wrap_generator(self, fn, name: str, counter: str | None = None):
        """Generator function ``fn`` recording one span per ``next()``; with
        ``counter``, also counting the items it yields."""
        ix = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counters, clock = self.stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                sid = len(names)
                names.append(ix)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(sid)
                starts.append(clock())
                try:
                    item = next(inner)
                    if counter is not None:
                        counters[counter] += 1
                except StopIteration:
                    return
                finally:
                    ends[sid] = clock()
                    stack.pop()
                yield item

        return traced

    def count(self, fn, hook):
        """``fn`` with a counting hook and no span."""
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(counters, args, kwargs, result)
            return result

        return counted

    def save(self, path) -> None:
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )



# ----------------------------------------------------------------------
# counting hooks: hook(counters, args, kwargs, result)


def _arg(args, kwargs, index: int, name: str, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _set_max(counters, key: str, value: float) -> None:
    counters[key] = max(counters[key], value)


def _budget(counters, request: int, budget: int) -> None:
    _set_max(counters, "words.budget_frac", request / budget)


def _sphere(counters, args, kwargs, result):
    group, m = args[0], _arg(args, kwargs, 1, "m")
    _budget(counters, group.sphere_count(m), _arg(args, kwargs, 2, "budget", words.DEFAULT_BUDGET))


def _ball(counters, args, kwargs, result):
    group, radius = args[0], _arg(args, kwargs, 1, "R")
    _budget(counters, group.growth_count(radius), _arg(args, kwargs, 2, "budget", words.DEFAULT_BUDGET))


def _profile(counters, args, kwargs, result):
    # args[0] is the class: compute is a classmethod
    phi, radius = _arg(args, kwargs, 1, "phi"), _arg(args, kwargs, 2, "radius")
    counters["deviation.rows"] += len(result.rows)
    _budget(counters, phi.group.growth_count(radius), _arg(args, kwargs, 4, "budget", words.DEFAULT_BUDGET))


def _cells_offered(counters, args, kwargs, result):
    counters["deviation.cells_offered"] += len(_arg(args, kwargs, 0, "phi").values)


def _preimage_cells(counters, args, kwargs, result):
    counters["boundary.preimage_cells"] += len(result)


def _cells_built(counters, args, kwargs, result):
    counters["functions.cells_built"] += len(args[0].values)


def _fiber_block(counters, args, kwargs, result):
    phi, h, trunc = (_arg(args, kwargs, i, k) for i, k in enumerate(("phi", "h", "trunc")))
    if phi.depth + len(h) <= trunc.m:
        counters["operators.fiber_exact"] += 1


def _dense_operator(counters, args, kwargs, result):
    _set_max(counters, "operators.dense_dim_max", result.dim)
    counters["operators.dense_bytes"] += result.dim * result.dim * 16


def _svd_work(counters, args, kwargs, result):
    rows, cols = sorted(np.shape(_arg(args, kwargs, 0, "matrix")), reverse=True)
    _set_max(counters, "svd.cols_max", cols)
    counters["svd.work"] += rows * cols * cols


def _cocycle(counters, args, kwargs, result):
    inp, radius = _arg(args, kwargs, 0, "inp"), _arg(args, kwargs, 1, "radius")
    _budget(counters, inp.group.growth_count(radius), _arg(args, kwargs, 2, "budget", words.DEFAULT_BUDGET))
    if inp.group_product == words.IDENTITY:
        counters["chern.h_terms"] += inp.group.growth_count(radius)


def _oracle(counters, args, kwargs, result):
    inp, trunc = _arg(args, kwargs, 0, "inp"), _arg(args, kwargs, 1, "trunc")
    counters["chern.oracle_h"] += trunc.dim_group
    counters["chern.chain_exits"] += result.chain_exits
    if inp.group_product == words.IDENTITY:
        # a group element whose chain stays in the ball evaluates
        # 2^(degree+1) rank-one chains
        inside = trunc.dim_group - result.chain_exits
        counters["chern.chains"] += inside * 2 ** (inp.degree + 1)


# ----------------------------------------------------------------------
# installation

_FUNCTIONS = {
    boundary: {
        "pushforward_mass": None,
        "pushforward": None,
        "comparability_constants": None,
        "weak_distance_to_delta": None,
    },
    functions: {"translate": None, "random_unit_function": None},
    deviation: {
        "expectation": _cells_offered,
        "_expectation_abs_sq": _cells_offered,
        "deviation_sq": None,
        "deviation_sq_pairsum": None,
        "covariance": None,
    },
    summability: {
        "lp_report": None,
        "decay_exponent_fit": None,
        "dplus_surrogate_check": None,
    },
    operators: {
        "fiber_diagonal": _fiber_block,
        "projection_P": _dense_operator,
        "rep_function": _dense_operator,
        "rep_group": _dense_operator,
        "rep_crossed": _dense_operator,
        "homotopy_projection": _dense_operator,
        "homotopy_projection_check": None,
        "verify_pi_identity": None,
        "verify_compression_identity": None,
        "conditional_lower_bound_check": None,
        "commutator_singular_values": None,
    },
    svd: {"singular_values": _svd_work, "operator_norm": None, "schatten_norm": None},
    chern: {
        "cocycle_value": _cocycle,
        "trace_oracle_report": _oracle,
        "trace_oracle_dense": None,
    },
}
def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _replace_everywhere(original, replacement) -> None:
    """Point every module attribute holding ``original`` at ``replacement``."""
    found = False
    for module in (treeboundary, *_LAYER_MODULES):
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                found = True
    if not found:
        raise RuntimeError(f"{original!r} is bound nowhere")


def run_checks_in_process() -> None:
    """Make ``verify-all`` run its checks in this process, not in a pool."""
    pooled = verify.run_all

    @functools.wraps(pooled)
    def run_all(ctx, workers=1):
        return pooled(ctx, workers=1)

    _replace_everywhere(pooled, run_all)


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of every layer in ``tracer``'s spans."""
    for module, table in _FUNCTIONS.items():
        for attr, hook in table.items():
            original = getattr(module, attr)
            _replace_everywhere(original, tracer.wrap(original, f"{_layer(module)}.{attr}", hook))
    original = boundary.preimage_cylinder
    _replace_everywhere(original, tracer.count(original, _preimage_cells))

    group = words.FreeGroup
    group.iter_sphere = tracer.wrap_generator(group.iter_sphere, "words.iter_sphere", "words.enumerated")
    group.iter_ball = tracer.wrap_generator(group.iter_ball, "words.iter_ball")
    group.sphere = tracer.wrap(group.sphere, "words.sphere", _sphere)
    group.ball = tracer.wrap(group.ball, "words.ball", _ball)

    fn = functions.LocallyConstantFunction
    fn.refine = tracer.wrap(fn.refine, "functions.refine")
    fn.__init__ = tracer.count(fn.__init__, _cells_built)

    profile = deviation.DeviationProfile
    compute = profile.__dict__["compute"].__func__
    profile.compute = classmethod(tracer.wrap(compute, "deviation.compute", _profile))

    verify._REGISTRY[:] = [
        (name, tracer.wrap(check, f"verify.{name}")) for name, check in verify._REGISTRY
    ]
    original = verify.run_all
    _replace_everywhere(original, tracer.wrap(original, "verify.run_all"))

    original = cli.main
    _replace_everywhere(original, tracer.wrap(original, "cli.main"))


# ----------------------------------------------------------------------
# summaries


def summarize(names: list[str], spans) -> dict:
    """Self time and call count per span name, from saved span arrays.

    Also counts the ``pushforward_mass`` calls made directly by an
    expectation, which is how many nonzero cells the expectations visited.
    """
    name, parent = spans["name"], spans["parent"]
    duration = spans["end"] - spans["start"]
    nested = parent >= 0
    children = np.zeros(len(name))
    np.add.at(children, parent[nested], duration[nested])
    self_time = np.bincount(name, weights=duration - children, minlength=len(names))
    calls = np.bincount(name, minlength=len(names))
    ids = {n: i for i, n in enumerate(names)}
    visited = 0
    if "boundary.pushforward_mass" in ids:
        under = nested & (name == ids["boundary.pushforward_mass"])
        caller = name[parent[under]]
        visited = int(sum(np.count_nonzero(caller == ids[n]) for n in EXPECTATION_SPANS if n in ids))
    return {
        "self_s": {n: float(self_time[i]) for i, n in enumerate(names)},
        "calls": {n: int(calls[i]) for i, n in enumerate(names)},
        "nonzero_cells_visited": visited,
    }


VERIFY_CHECKS = (
    "growth-closed-form",
    "hyperbolicity",
    "measure-partition",
    "preimage-decomposition",
    "deviation-identity",
    "deviation-envelope",
    "furstenberg-rate",
    "dimension-formula",
    "summability-witness",
    "operator-pi-identity",
    "commutator-spectrum",
    "homotopy-inequality",
    "compression-identity",
    "conditional-lower-bound",
    "chern-consistency",
)

# (name, unit, better) of every per-layer metric, in output order
PER_LAYER = (
    ("words.enum_s", "s", "lower"),
    ("words.enumerated", "count", "lower"),
    ("words.budget_frac", "ratio", "lower"),
    ("boundary.self_s", "s", "lower"),
    ("boundary.pushforward_s", "s", "lower"),
    ("boundary.pushforward_calls", "count", "lower"),
    ("boundary.preimage_cells", "count", "lower"),
    ("functions.self_s", "s", "lower"),
    ("functions.translate_s", "s", "lower"),
    ("functions.refine_s", "s", "lower"),
    ("functions.cells_built", "count", "lower"),
    ("deviation.self_s", "s", "lower"),
    ("deviation.profile_s", "s", "lower"),
    ("deviation.rows", "count", "lower"),
    ("deviation.expectation_s", "s", "lower"),
    ("deviation.expectation_calls", "count", "lower"),
    ("deviation.nonzero_cell_frac", "ratio", "lower"),
    ("deviation.covariance_s", "s", "lower"),
    ("deviation.covariance_calls", "count", "lower"),
    ("summability.lp_report_s", "s", "lower"),
    ("summability.self_s", "s", "lower"),
    ("summability.reports", "count", "lower"),
    ("operators.self_s", "s", "lower"),
    ("operators.fiber_diagonal_s", "s", "lower"),
    ("operators.fiber_blocks", "count", "lower"),
    ("operators.fiber_exact_frac", "ratio", "higher"),
    ("operators.dense_s", "s", "lower"),
    ("operators.dense_dim_max", "count", "lower"),
    ("operators.dense_bytes", "B", "lower"),
    ("svd.s", "s", "lower"),
    ("svd.calls", "count", "lower"),
    ("svd.cols_max", "count", "lower"),
    ("svd.work", "count", "lower"),
    ("chern.self_s", "s", "lower"),
    ("chern.cocycle_s", "s", "lower"),
    ("chern.h_terms", "count", "lower"),
    ("chern.oracle_s", "s", "lower"),
    ("chern.chains", "count", "lower"),
    ("chern.chain_exit_frac", "ratio", "lower"),
    ("verify.self_s", "s", "lower"),
    *((f"verify.{name}_s", "s", "lower") for name in VERIFY_CHECKS),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unaccounted_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
)


def merge(total: dict, part: dict) -> None:
    """Add one report's summary and counters into ``total``."""
    for key in ("self_s", "calls", "counters"):
        bucket = total.setdefault(key, defaultdict(float))
        for name, value in part[key].items():
            if name in MAX_COUNTERS:
                bucket[name] = max(bucket[name], value)
            else:
                bucket[name] += value
    for key in ("wall_s", "nonzero_cells_visited", "bytes_written"):
        total[key] = total.get(key, 0) + part[key]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(total: dict) -> dict[str, float]:
    """Per-layer metric values from the merged summaries of a traced pass."""
    self_s, calls, counters = total["self_s"], total["calls"], total["counters"]

    def layer(prefix: str) -> float:
        return sum(v for n, v in self_s.items() if n.startswith(prefix + "."))

    def own(*names: str) -> float:
        return sum(self_s.get(n, 0.0) for n in names)

    values = {
        "words.enum_s": layer("words"),
        "words.enumerated": counters["words.enumerated"],
        "words.budget_frac": counters["words.budget_frac"],
        "boundary.self_s": layer("boundary"),
        "boundary.pushforward_s": own("boundary.pushforward_mass"),
        "boundary.pushforward_calls": calls["boundary.pushforward_mass"],
        "boundary.preimage_cells": counters["boundary.preimage_cells"],
        "functions.self_s": layer("functions"),
        "functions.translate_s": own("functions.translate"),
        "functions.refine_s": own("functions.refine"),
        "functions.cells_built": counters["functions.cells_built"],
        "deviation.self_s": layer("deviation"),
        "deviation.profile_s": own("deviation.compute"),
        "deviation.rows": counters["deviation.rows"],
        "deviation.expectation_s": own(*EXPECTATION_SPANS),
        "deviation.expectation_calls": sum(calls[n] for n in EXPECTATION_SPANS),
        "deviation.nonzero_cell_frac": _ratio(
            total["nonzero_cells_visited"], counters["deviation.cells_offered"]
        ),
        "deviation.covariance_s": own("deviation.covariance"),
        "deviation.covariance_calls": calls["deviation.covariance"],
        "summability.lp_report_s": own("summability.lp_report"),
        "summability.self_s": layer("summability"),
        "summability.reports": calls["summability.lp_report"],
        "operators.self_s": layer("operators"),
        "operators.fiber_diagonal_s": own("operators.fiber_diagonal"),
        "operators.fiber_blocks": calls["operators.fiber_diagonal"],
        "operators.fiber_exact_frac": _ratio(
            counters["operators.fiber_exact"], calls["operators.fiber_diagonal"]
        ),
        "operators.dense_s": own(*DENSE_SPANS),
        "operators.dense_dim_max": counters["operators.dense_dim_max"],
        "operators.dense_bytes": counters["operators.dense_bytes"],
        "svd.s": layer("svd"),
        "svd.calls": calls["svd.singular_values"],
        "svd.cols_max": counters["svd.cols_max"],
        "svd.work": counters["svd.work"],
        "chern.self_s": layer("chern"),
        "chern.cocycle_s": own("chern.cocycle_value"),
        "chern.h_terms": counters["chern.h_terms"],
        "chern.oracle_s": own("chern.trace_oracle_report"),
        "chern.chains": counters["chern.chains"],
        "chern.chain_exit_frac": _ratio(counters["chern.chain_exits"], counters["chern.oracle_h"]),
        "verify.self_s": layer("verify"),
        **{f"verify.{name}_s": own(f"verify.{name}") for name in VERIFY_CHECKS},
        "cli.self_s": own("cli.main"),
        "cli.bytes_written": total["bytes_written"],
        "trace.wall_s": total["wall_s"],
        "trace.unaccounted_s": total["wall_s"] - sum(self_s.values()),
        "trace_overhead": _ratio(total["wall_s"], total["untraced_wall_s"]),
    }
    assert list(values) == [name for name, _, _ in PER_LAYER]
    return values
