"""Figure-regeneration benchmark for scatterlab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Each workload regenerates one ``reproduce-fig`` target through
``cli.figure_configs`` and ``cli.run`` into a fresh output directory, one
figure at a time (a closed loop with one client), every figure in a fresh
interpreter as a ``scatterlab reproduce-fig`` call would be.  The written
artifacts are checked after each figure, outside the timed region; a
figure whose check fails counts as a failed operation.

``--trace 0`` repeats the figure until ``--seconds`` seconds have passed and
reports the end-to-end metrics as medians over the figures.  ``--trace 1``
alternates untraced figures and figures with spans around every layer
function for about ``--seconds`` seconds, and reports the per-layer
metrics and the tracing overhead as medians.
``--smoke`` runs every workload once, untraced, at seed 0.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy
import scipy

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIGURE = HERE / "figure.py"
OUT_BASE = ROOT / ".bench_out"

# Every run, set-up included, must end well inside three minutes.
RUN_BUDGET_S = 170.0
# Fresh interpreters timed for setup_s on top of the one in every figure.
SETUP_SAMPLES = 3
# The shared machine's core speed drifts by 20-50% over seconds to minutes.
# A calibration pass timed in the same interpreter drifts with it, so
# setup_s and wall_s are reported in seconds on a machine where that pass
# takes exactly this long (see BASELINE.md); the raw medians are printed
# beside them.
CALIBRATION_REF_S = 0.020


class ChildFailed(RuntimeError):
    pass


def _child(args: list[str], deadline: float) -> dict:
    """Run figure.py in a fresh interpreter and return its JSON report.
    The child gets its own process group, so a timeout also stops the
    q-sweep pool workers it started."""
    proc = subprocess.Popen(
        [sys.executable, str(FIGURE), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"figure.py {' '.join(args)} ran past the run budget") from None
    if proc.returncode != 0:
        tail = "\n".join(err.strip().splitlines()[-5:])
        raise ChildFailed(f"figure.py {' '.join(args)} exited {proc.returncode}: {tail}")
    return json.loads(out.strip().splitlines()[-1])


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Runner:
    """One benchmark run: fresh output directories under ``work``, the
    count of attempted and failed figures, and the run's deadline."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = 0
        self.failed = 0

    def setup(self) -> dict:
        return _child(["--workload", self.workload.name, "--setup-only"], self.deadline)

    def figure(self, workers: int | None = None, trace: bool = False) -> dict | None:
        """Regenerate the figure once and check its artifacts.  Returns
        the child's report plus ``artifact_bytes`` (and ``spans`` when
        traced), or None when the figure failed."""
        self.attempted += 1
        out = Path(tempfile.mkdtemp(prefix="fig-", dir=self.work))
        args = ["--workload", self.workload.name, "--seed", str(self.seed), "--out", str(out / "fig")]
        if workers is not None:
            args += ["--workers", str(workers)]
        if trace:
            args += ["--trace-file", str(out / "spans.json")]
        try:
            res = _child(args, self.deadline)
            res["artifact_bytes"] = _dir_bytes(out / "fig")
            problems = self.workload.check(out / "fig", workloads.jobs_for(self.workload, self.seed))
            if trace:
                res["spans"] = json.loads((out / "spans.json").read_text())
        except Exception:  # a broken figure is a failed operation, not a crash
            problems = [traceback.format_exc(limit=-3)]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {self.workload.name} seed {self.seed}: {p}", file=sys.stderr)
            return None
        return res


def _median(values):
    return statistics.median(values) if values else 0.0


def _repeat(runner: Runner, seconds: float, body) -> None:
    """Call ``body`` back to back until ``seconds`` have passed, finishing
    the call under way (so at least once, and twice for a figure that
    takes up to ``seconds``), never starting a call the run's deadline
    cannot fit."""
    start = time.monotonic()
    while True:
        t = time.monotonic()
        body()
        now = time.monotonic()
        if now - start >= seconds or now + 2 * (now - t) > runner.deadline:
            return


def _calibrated(reports: list[dict], key: str, passes: tuple[str, ...]) -> float:
    """Median of ``key`` in seconds at the reference calibration speed.  A
    report's speed is the mean of its calibration passes named in
    ``passes``: the import pass for setup_s, the figure passes on both
    sides of the figure for wall_s."""
    return _median([
        r[key] * CALIBRATION_REF_S / statistics.fmean(r[p] for p in passes) for r in reports
    ])


def timed_run(runner: Runner, seconds: float) -> dict:
    """End-to-end metrics: figures back to back for about ``seconds``."""
    setups = [runner.setup() for _ in range(SETUP_SAMPLES)]
    reports = []

    def one():
        res = runner.figure(workers=_workers(runner.workload))
        if res is not None:
            reports.append(res)

    _repeat(runner, seconds, one)
    setups += reports
    print(
        f"  raw setup median {_median([r['setup_s'] for r in setups]):.4f} s, "
        f"raw wall median {_median([r['wall_s'] for r in reports]):.4f} s, "
        f"import pass {1000 * _median([r['setup_calib_s'] for r in setups]):.3f} ms, "
        f"figure pass {1000 * _median([r['calib_s'] for r in reports]):.3f} ms"
    )
    return {
        "wall_s": (_calibrated(reports, "wall_s", ("calib_s", "calib_after_s")), "s"),
        "setup_s": (_calibrated(setups, "setup_s", ("setup_calib_s",)), "s"),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in reports]), "MB"),
        "artifact_mb": (_median([r["artifact_bytes"] / 1e6 for r in reports]), "MB"),
    }


def traced_run(runner: Runner, seconds: float) -> dict:
    """Per-layer metrics: alternating untraced and traced figures for about
    ``seconds``, each metric the median over the traced figures.  The
    q-sweep is traced with one worker, since spans do not cross the fork,
    and that serial run is also the baseline the pooled run is judged
    against."""
    pooled = runner.workload.pooled
    workers = 1 if pooled else None
    untraced, traced = [], []

    def pair():
        for bucket, trace in ((untraced, False), (traced, True)):
            res = runner.figure(workers=workers, trace=trace)
            if res is not None:
                bucket.append(res)

    _repeat(runner, seconds, pair)
    totals = [spans.totals(r["spans"]) for r in traced]
    metrics = {
        name: (_median([fn(t) for t in totals]), unit)
        for name, (unit, fn) in spans.LAYER_METRICS.items()
    }
    untraced_wall = _median([r["wall_s"] for r in untraced])
    if pooled:
        efficiency = points_per_s = 0.0
        pool = runner.figure(workers=_workers(runner.workload))
        if pool is not None and untraced:
            efficiency = untraced_wall / (_workers(runner.workload) * pool["wall_s"])
            points_per_s = _sweep_points(runner) / pool["wall_s"]
        metrics["cli.q_sweep.pool_efficiency"] = (efficiency, "ratio")
        metrics["cli.q_sweep.points_per_s"] = (points_per_s, "1/s")

    walls = [spans.root_time(r["spans"]) for r in traced]
    wall = _median(walls)
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (wall - untraced_wall if traced and untraced else 0.0, "s")
    metrics["calibration.pass_ms"] = (1000 * _median([r["calib_s"] for r in traced]), "ms")
    for module in spans.MODULE_ROOTS:
        share = _median([spans.module_seconds(t)[module] / w for t, w in zip(totals, walls)])
        print(f"  share of traced wall in {module:<9} {share:6.1%}")
    return metrics


def _workers(workload) -> int | None:
    """The q-sweep runs with the CLI default worker count, never more than
    the processors this process may use."""
    return len(os.sched_getaffinity(0)) if workload.pooled else None


def _sweep_points(runner: Runner) -> int:
    (_, cfg), = workloads.jobs_for(runner.workload, runner.seed)
    return sum(1 for q in cfg.sweep.q_values if q != 1.0)


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "start_method": multiprocessing.get_start_method(),
        "commit": _git_commit(),
        "loadavg": list(os.getloadavg()),
    }


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it is one."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _report(attempted: int, failed: int, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload once")
    args = parser.parse_args(argv)

    if not (SRC / "scatterlab" / "cli.py").is_file():
        print(f"scatterlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        names = list(workloads.WORKLOADS)
    elif args.workload in workloads.WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    print(json.dumps({"env": environment()}))
    OUT_BASE.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_BASE))
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            runner = Runner(workloads.WORKLOADS[name], args.seed, work)
            print(f"{name} (figure {runner.workload.figure}, seed {args.seed}):")
            if args.smoke:
                res = runner.figure(workers=_workers(runner.workload))
                if res is not None:
                    metrics[f"{name}.wall_s"] = (res["wall_s"], "s")
            elif args.trace:
                metrics = traced_run(runner, args.seconds)
            else:
                metrics = timed_run(runner, args.seconds)
            attempted += runner.attempted
            failed += runner.failed
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            OUT_BASE.rmdir()
        except OSError:
            pass
    _report(attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
