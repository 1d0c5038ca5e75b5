"""Benchmark of the treeboundary batch reports.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it works on the checkout that holds this file.  It
writes seeded input files, then runs the workload's reports one after
another, each as ``treeboundary.cli.main`` in a fresh interpreter (one
client, closed loop), and checks every report outside the timed region.

With ``--trace 0`` it repeats the workload for about ``--seconds`` seconds
and prints the end-to-end metrics: the time of the workload's reports, the
set-up time of a report process and the peak RSS of a report process, each
the median over the repetitions.  The two times are speed-adjusted: a fixed
reference loop runs in this process after every process it launches, and
the times are scaled by ``REFERENCE_S`` over the mean reference time (for
the reports, over the passes only), so that the machine's drifting speed
cancels.  With ``--trace 1`` it runs the workload once plainly and once
with spans around every layer, and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Workloads and the reasons for them are recorded in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD = HERE / "child.py"

RUN_LIMIT_S = 170  # every run ends within 180 s
SETUP_PROBES = 5
MIN_PASSES = 2  # a median needs more than one sample
REFERENCE_ITERATIONS = 40_000
REFERENCE_S = 0.2  # the reference loop's time on an idle vCPU of the baseline machine


def reference_s() -> float:
    """Wall time of a fixed loop: how fast the machine runs Python right now.

    The loop does the two kinds of work the reports spend their time on,
    rational sums in dicts and words built and looked up as strings, but
    calls nothing in treeboundary, so no change to the program moves it.
    """
    start = time.perf_counter()
    sums: dict = {}
    words: dict = {}
    for i in range(REFERENCE_ITERATIONS):
        key = (i % 97, "ab"[i % 2] * (i % 5))
        sums[key] = sums.get(key, 0) + Fraction(i % 7 - 3, i % 11 + 1)
        for j in range(3):
            word = "aBbA"[(i + j) % 4] + "ab"[j % 2] * ((i + j) % 7)
            words[word] = words.get(word, 0) + 1
            words.pop(word[:-1], None)
    return time.perf_counter() - start


@dataclass(frozen=True)
class Report:
    """One CLI call; ``{role}`` in an argument stands for an input file."""

    argv: tuple[str, ...]

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def roles(self) -> list[str]:
        return [m for a in self.argv for m in re.findall(r"\{(\w+)\}", a)]

    def option(self, flag: str) -> str:
        return self.argv[self.argv.index(flag) + 1]

    def args(self, paths: dict[str, Path]) -> list[str]:
        return [a.format(**{k: str(v) for k, v in paths.items()}) for a in self.argv]


WORKLOADS = {
    "profile": (
        Report(("deviation", "--phi", "{phi_f2}", "--R", "7")),
        Report(("summability", "--phi", "{phi_f2}", "--R", "7", "--p", "2", "--p", "3")),
        Report(("deviation", "--phi", "{phi_f3}", "--R", "5")),
    ),
    "operators": (Report(("spectrum", "--phi", "{phi_spectrum}", "--R", "2", "--m", "3")),),
    "cocycle": (
        Report(("chern", "--input", "{terms}", "--radius", "4", "--oracle-R", "5", "--oracle-m", "5")),
    ),
    "verify": (Report(("verify-all", "--n", "2", "--R", "2")),),
}
SUBCOMMAND_METRICS = {
    "deviation": "deviation_s",
    "summability": "summability_s",
    "spectrum": "spectrum_s",
    "chern": "chern_s",
    "verify-all": "verify_all_s",
}
END_TO_END = (
    ("reports_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Pass:
    """One run of a workload's reports."""

    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    subcommand_s: dict[str, float] = field(default_factory=dict)
    results: list[dict] = field(default_factory=list)


class Runner:
    def __init__(self, workload: str, seed: int, work: Path):
        import inputs

        self.reports = WORKLOADS[workload]
        self.work = work
        self.paths = inputs.write_inputs(work / "inputs", seed)
        self.rng = random.Random(f"{seed}:check")
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.launches = 0
        self.checked: dict[int, bytes] = {}
        self.references: list[float] = []  # reference loop times, one after each launch
        if not any(r.command == "verify-all" for r in self.reports):
            # so that the reference loop measures the vCPU the reports run
            # on; verify-all's pool keeps every vCPU
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def launch(self, argv: list[str], roles: list[str], mode: str, in_process_checks: bool) -> dict:
        """Run child.py once; its result, with ``setup_s`` or ``error`` added."""
        self.launches += 1
        base = self.work / f"r{self.launches}"
        out = base.with_suffix(".out")
        out.mkdir()
        spec = {
            "argv": argv,
            "inputs": [str(self.paths[r]) for r in roles],
            "out": str(out),
            "result": str(base.with_suffix(".json")),
            "mode": mode,
            "in_process_checks": in_process_checks,
        }
        spec_path = base.with_suffix(".spec.json")
        spec_path.write_text(json.dumps(spec))
        launched = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(spec_path)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"error": "timed out", "out": out}
        except BaseException:  # SIGTERM or Ctrl-C: take the report's process group down too
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        result_path = Path(spec["result"])
        if not result_path.exists():
            tail = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
            return {"error": f"exit {proc.returncode}: {tail[0]}", "out": out}
        result = json.loads(result_path.read_text())
        result.update(setup_s=result["ready"] - launched, out=out, spans=base.with_suffix(".npz"))
        return result

    def launch_timed(self, *launch_args) -> dict:
        """Launch once, then run the reference loop once."""
        result = self.launch(*launch_args)
        self.references.append(reference_s())
        return result

    def speed_scale(self, first: int = 0) -> float:
        """The factor that turns times measured after reference run
        ``first`` into times on a machine that runs the reference loop in
        ``REFERENCE_S``."""
        return REFERENCE_S / statistics.mean(self.references[first:])

    def probe_setup(self) -> list[float]:
        """Set-up times of processes that only import the CLI and read inputs."""
        roles = sorted({r for report in self.reports for r in report.roles})
        self.launch([], roles, "probe", False)  # compiles bytecode; not timed
        self.references.append(reference_s())
        probes = [self.launch_timed([], roles, "probe", False) for _ in range(SETUP_PROBES)]
        return [p["setup_s"] for p in probes if "setup_s" in p]

    def run_pass(self, mode: str = "plain", in_process_checks: bool = False) -> Pass:
        done = Pass()
        earlier: dict[tuple[str, str], dict] = {}
        for index, report in enumerate(self.reports):
            done.attempted += 1
            result = self.launch_timed(report.args(self.paths), report.roles, mode, in_process_checks)
            problem = result.get("error") or self.check(index, report, result, earlier)
            if problem:
                done.failures.append(problem)
                continue
            done.wall_s += result["wall_s"]
            done.peak_rss_mb = max(done.peak_rss_mb, result["peak_rss_mb"])
            done.setups.append(result["setup_s"])
            metric = SUBCOMMAND_METRICS[report.command]
            done.subcommand_s[metric] = done.subcommand_s.get(metric, 0.0) + result["wall_s"]
            done.results.append(result)
        return done

    def check(self, index: int, report: Report, result: dict, earlier: dict) -> str | None:
        """None if the report is right, else what is wrong with it.

        Reports are byte-stable, so a report identical to one that passed
        the checks at the same position of an earlier pass passes too.
        """
        if result["code"] != 0:
            return f"{report.command}: exit code {result['code']}"
        try:
            text = (result["out"] / f"{report.command}.json").read_bytes()
            obj = json.loads(text)
            earlier[(report.command, report.roles[0] if report.roles else "")] = obj
            if self.checked.get(index) == text:
                return None
            problem = self.check_report(report, obj, earlier)
        except Exception as exc:  # a report the checker cannot read is wrong
            problem = f"{report.command}: unreadable report ({type(exc).__name__}: {exc})"
        if problem is None:
            self.checked[index] = text
        return problem

    def check_report(self, report: Report, obj: dict, earlier: dict) -> str | None:
        import checks

        if report.command == "deviation":
            phi = checks.load_function(self.paths[report.roles[0]])
            sample = checks.sample_rows(len(obj["rows"]), self.rng)
            return checks.check_deviation(obj, phi, int(report.option("--R")), sample)
        if report.command == "summability":
            deviation = earlier.get(("deviation", report.roles[0]))
            if deviation is None or deviation["radius"] != int(report.option("--R")):
                return "summability: no deviation report of the same function and radius"
            return checks.check_summability(obj, deviation)
        if report.command == "spectrum":
            return checks.check_spectrum(obj)
        if report.command == "chern":
            return checks.check_chern(obj)
        return checks.check_verify(obj)


def timed_run(runner: Runner, seconds: int) -> dict:
    setups = runner.probe_setup()
    first_pass_reference = len(runner.references) - 1  # the one just before the first pass
    passes: list[Pass] = []
    start = time.monotonic()
    while True:
        passes.append(runner.run_pass())
        elapsed = time.monotonic() - start
        per_pass = elapsed / len(passes)
        if time.monotonic() + 2 * per_pass > runner.deadline:
            break
        if len(passes) >= MIN_PASSES and elapsed + per_pass > seconds:
            break
    for p in passes:
        setups += p.setups
    timed = [p for p in passes if not p.failures] or passes
    scale = runner.speed_scale()
    pass_scale = runner.speed_scale(first_pass_reference)
    values = {
        "reports_s": statistics.median(p.wall_s for p in timed) * pass_scale,
        "setup_s": statistics.median(setups) * scale if setups else 0.0,
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in timed),
    }
    for i, p in enumerate(passes):
        parts = ", ".join(f"{k} {v:.3f} s" for k, v in p.subcommand_s.items())
        print(f"pass {i + 1}: {p.wall_s:.3f} s ({parts}); peak RSS {p.peak_rss_mb:.1f} MB", file=sys.stderr)
    refs = " ".join(f"{r:.4f}" for r in runner.references)
    print(f"reference loop: {refs} s; speed scale {scale:.4f}, over the passes {pass_scale:.4f}", file=sys.stderr)
    if setups:
        print(f"set-up wall time, median: {statistics.median(setups):.4f} s", file=sys.stderr)
    return _result(passes, {name: (values[name], unit) for name, unit in END_TO_END})


def traced_run(runner: Runner) -> dict:
    import numpy as np
    import tracing

    in_process = any(r.command == "verify-all" for r in runner.reports)
    plain = runner.run_pass("plain", in_process)
    traced = runner.run_pass("trace", in_process)
    total: dict = {}
    for result in traced.results:
        with np.load(result["spans"]) as spans:
            part = tracing.summarize(result["names"], spans)
        part.update(counters=result["counters"], wall_s=result["wall_s"], bytes_written=result["bytes_written"])
        tracing.merge(total, part)
    values = {}
    if total:
        total["untraced_wall_s"] = plain.wall_s
        values = tracing.layer_metrics(total)
    for metric in SUBCOMMAND_METRICS.values():
        values[metric] = plain.subcommand_s.get(metric, 0.0)
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    units.update((metric, "s") for metric in SUBCOMMAND_METRICS.values())
    return _result([plain, traced], {name: (values.get(name, 0.0), unit) for name, unit in units.items()})


def _result(passes: list[Pass], metrics: dict[str, tuple[float, str]]) -> dict:
    failures = [f for p in passes for f in p.failures]
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {
        "correct": not failures,
        "attempted": sum(p.attempted for p in passes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _terminate(signum: int, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "treeboundary" / "cli.py").is_file():
        print(f"error: no treeboundary sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        runner = Runner(args.workload, args.seed, work)
        result = traced_run(runner) if args.trace else timed_run(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
