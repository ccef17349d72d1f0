"""Regenerate one workload's figure in a fresh interpreter and report its
timings as one JSON line on stdout.

    python3 perfbench/figure.py --workload NAME --seed N --out DIR
                                [--workers N] [--trace-file FILE] [--setup-only]

``setup_s`` is this interpreter's import of ``scatterlab.cli`` plus the
figure's ``figure_configs`` expansion, the cost every ``reproduce-fig``
call pays.  ``wall_s`` runs from the first ``cli.run`` call until the last
artifact is written.  ``setup_calib_s`` is the duration of a fixed
calibration pass like the import's work, timed right after the import;
``calib_s`` and ``calib_after_s`` are the durations of a fixed pass like
the figure's work, timed right before and right after the figure.  They
let run.py express both times in seconds at a fixed machine speed.  With
``--trace-file`` the layer
functions are wrapped (see spans.py) and the recorded spans are written
to that file after the figure is done.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Passes per calibration, of which the median is kept.  Ten passes (about
# 0.2 s) read the machine's speed steadily enough that a figure timed
# between two calibrations varies less from run to run than its raw time.
CALIBRATION_PASSES = 10


def import_pass() -> float:
    """Seconds for a fixed mix of interpreter loop and numpy work on a
    100,000-element array (~20 ms).  Of the passes tried, its speed
    followed the import's best."""
    import numpy as np  # not at the top: setup_s must include numpy's import

    t = time.perf_counter()
    x = 0.0
    for i in range(150_000):
        x += (i % 7) * 0.5
    a = np.arange(100_000, dtype=float)
    for _ in range(40):
        a = np.sqrt(a * 1.0000001 + 1.0)
    return time.perf_counter() - t


def figure_pass(matrix, vector) -> float:
    """Seconds for a fixed mix of interpreter loop and sparse complex
    matrix-vector products (~20 ms), the two kinds of work the figures
    spend their time on.  Of the passes tried, its speed followed the
    figures' best."""
    t = time.perf_counter()
    x = 0.0
    for i in range(150_000):
        x += (i % 7) * 0.5
    for _ in range(60):
        matrix @ vector
    return time.perf_counter() - t


def calibrate(one_pass, *args) -> float:
    return statistics.median(one_pass(*args) for _ in range(CALIBRATION_PASSES))


def calibrate_figure() -> float:
    import numpy as np
    import scipy.sparse as sp

    n = 8000
    matrix = sp.diags([0.5 + 0.5j] * 5, [-2, -1, 0, 1, 2], shape=(n, n), format="csr")
    return calibrate(figure_pass, matrix, np.ones(n, dtype=complex))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--trace-file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from scatterlab import cli

    import workloads

    jobs = workloads.jobs_for(workloads.WORKLOADS[args.workload], args.seed)
    setup_s = time.perf_counter() - t0
    setup_calib_s = calibrate(import_pass)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_calib_s": setup_calib_s}))
        return 0
    calib_s = calibrate_figure()

    out = Path(args.out)

    def run_figure():
        for name, cfg in jobs:
            cli.run(cfg, out / name, workers=args.workers)

    def timed(fn) -> float:
        t1 = time.perf_counter()
        fn()
        return time.perf_counter() - t1

    if args.trace_file:
        import spans

        tracer = spans.Tracer()
        with tracer:
            wall_s = timed(tracer.wrap(run_figure, "figure"))
        Path(args.trace_file).write_text(json.dumps(tracer.spans))
    else:
        wall_s = timed(run_figure)

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calib_after_s = calibrate_figure()
    print(json.dumps({
        "setup_s": setup_s, "setup_calib_s": setup_calib_s, "wall_s": wall_s,
        "calib_s": calib_s, "calib_after_s": calib_after_s, "peak_rss_mb": peak_kb / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
