"""The smoke mode regenerates every workload's figure once, checks it and
prints the result line; without the package sources the benchmark fails
before printing a result."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def test_smoke_runs_every_workload():
    sys.path.insert(0, str(BENCH))
    import workloads

    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] == len(workloads.WORKLOADS)
    assert set(result["metrics"]) == {f"{w}.wall_s" for w in workloads.WORKLOADS}


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig7-scan", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_calibrated_times_scale_to_the_reference_pass():
    sys.path.insert(0, str(BENCH))
    import run

    ref = run.CALIBRATION_REF_S
    reports = [
        {"setup_s": 2.0, "setup_calib_s": 2 * ref},  # machine at half speed: 1.0 s
        {"setup_s": 3.0, "setup_calib_s": ref},
        {"setup_s": 1.0, "setup_calib_s": 0.5 * ref},
    ]
    assert abs(run._calibrated(reports, "setup_s", ("setup_calib_s",)) - 2.0) < 1e-12


def test_calibrated_wall_uses_the_passes_on_both_sides():
    sys.path.insert(0, str(BENCH))
    import run

    ref = run.CALIBRATION_REF_S
    reports = [{"wall_s": 3.0, "calib_s": ref, "calib_after_s": 2 * ref}]  # mean speed 1.5 x slower
    assert abs(run._calibrated(reports, "wall_s", ("calib_s", "calib_after_s")) - 2.0) < 1e-12
