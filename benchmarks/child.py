"""One report in a fresh interpreter.

    python3 benchmarks/child.py SPEC.json

SPEC is written by ``run.py``.  It names the CLI arguments, the input files,
the output directory, the result file and the mode: ``probe`` (set-up only),
``plain`` or ``trace``.  The process imports ``treeboundary.cli``, reads the
input files and records the monotonic clock: that instant ends set-up, and
the runner subtracts the instant it launched the process.  It then times
``treeboundary.cli.main`` and writes a result file with the exit code, the
wall time of ``main``, the peak RSS and the bytes written.  A traced report
also saves its spans next to the result.  The process exits with the CLI's
exit code.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    import treeboundary.cli as cli

    for path in spec["inputs"]:
        Path(path).read_bytes()
    result = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    result_path = Path(spec["result"])
    if spec["mode"] == "probe":
        result_path.write_text(json.dumps(result))
        return 0

    tracer = None
    if spec["in_process_checks"] or spec["mode"] == "trace":
        import tracing

        if spec["in_process_checks"]:
            tracing.run_checks_in_process()
        if spec["mode"] == "trace":
            tracer = tracing.Tracer()
            tracing.install(tracer)

    out = Path(spec["out"])
    argv = [*spec["argv"], "--out", str(out)]
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code if isinstance(exc.code, int) else 2
    wall = time.perf_counter() - start

    # RUSAGE_CHILDREN holds the largest pool worker verify-all waited for
    peak_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    result.update(
        code=code,
        wall_s=wall,
        peak_rss_mb=peak_kb / 1024.0,
        bytes_written=sum(p.stat().st_size for p in out.iterdir() if p.is_file()),
    )
    if tracer is not None:
        tracer.save(result_path.with_suffix(".npz"))
        result.update(names=tracer.names, counters=dict(tracer.counters))
    result_path.write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
