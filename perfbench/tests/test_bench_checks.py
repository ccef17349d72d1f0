"""Each workload check accepts the expected artifacts and rejects a
perturbed one."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import workloads as W  # noqa: E402
from scatterlab import analytic  # noqa: E402
from scatterlab.lattice import center_matrix  # noqa: E402
from scatterlab.steady import resonant_eigenvalues  # noqa: E402


def _write(out: Path, name: str, files, summary: dict) -> None:
    d = out / name
    d.mkdir(parents=True, exist_ok=True)
    for f in files:
        (d / f).write_text("x\n")
    (d / "summary.json").write_text(json.dumps(summary))


def _jobs(name):
    return W.jobs_for(W.WORKLOADS[name], 0)


# --- fig 3a ----------------------------------------------------------------


def _fig3a_summary(p, norm_final=1.0):
    return {"channel_probabilities": list(p), "norm_initial": 1.0, "norm_final": norm_final}


def _fig3a_theory(jobs):
    (_, cfg), = jobs
    n = 2 * cfg.center.cells + 1
    return np.array([analytic.predicted_probabilities(cfg.center.q, l) for l in range(n)])


def test_fig3a_accepts_seed_level_deviation(tmp_path):
    jobs = _jobs("fig3a-dynamics")
    p = _fig3a_theory(jobs)
    p[1] -= 2.6e-4  # the seed commit's worst deviation
    _write(tmp_path, "fig3a", W._DYNAMICS_FILES[:-1], _fig3a_summary(p, 1.0 - 2.2e-10))
    assert W.check_fig3a(tmp_path, jobs) == []


@pytest.mark.parametrize("delta", [1e-3, -1e-3])
def test_fig3a_rejects_probability_off_by_1e_3(tmp_path, delta):
    jobs = _jobs("fig3a-dynamics")
    p = _fig3a_theory(jobs)
    p[1] -= np.sign(delta) * 2.6e-4  # worst case: seed deviation opposing the error
    p[1] += delta
    _write(tmp_path, "fig3a", W._DYNAMICS_FILES[:-1], _fig3a_summary(p))
    assert any("zero-mode law" in s for s in W.check_fig3a(tmp_path, jobs))


def test_fig3a_rejects_norm_drift_and_missing_artifact(tmp_path):
    jobs = _jobs("fig3a-dynamics")
    _write(tmp_path, "fig3a", W._DYNAMICS_FILES[:-1], _fig3a_summary(_fig3a_theory(jobs), 1.0 - 1e-6))
    assert any("norm drift" in s for s in W.check_fig3a(tmp_path, jobs))
    (tmp_path / "fig3a" / "snapshots.csv").unlink()
    assert any("snapshots.csv" in s for s in W.check_fig3a(tmp_path, jobs))


# --- fig 5 -----------------------------------------------------------------


def _fig5_rows(jobs):
    (_, cfg), = jobs
    rows = []
    for q in cfg.sweep.q_values:
        if q == 1.0:
            rows.append({"q": q, "status": "excluded (transition)",
                         "visibility_measured": None, "reflectance_measured": None})
            continue
        vis = analytic.visibility_theory(q) if q < 1 else 0.5
        rows.append({"q": q, "status": "ok", "visibility_measured": vis,
                     "reflectance_measured": analytic.reflection_theory(q)})
    return rows


def _check_fig5(tmp_path, rows):
    _write(tmp_path, "fig5", ("sweep.csv", "sweep.svg"), {"rows": rows})
    return W.check_fig5(tmp_path, _jobs("fig5-sweep"))


def test_fig5_accepts_theory(tmp_path):
    assert _check_fig5(tmp_path, _fig5_rows(_jobs("fig5-sweep"))) == []


@pytest.mark.parametrize(
    "q, key, delta",
    [(0.5, "visibility_measured", 5e-3), (0.3, "reflectance_measured", 1e-3),
     (1.8, "reflectance_measured", -1e-2)],
)
def test_fig5_rejects_perturbed_point(tmp_path, q, key, delta):
    rows = _fig5_rows(_jobs("fig5-sweep"))
    row = next(r for r in rows if r["q"] == q)
    row[key] += delta
    assert any(f"q = {q}" in s for s in _check_fig5(tmp_path, rows))


def test_fig5_rejects_unexcluded_transition(tmp_path):
    rows = _fig5_rows(_jobs("fig5-sweep"))
    next(r for r in rows if r["q"] == 1.0)["status"] = "ok"
    assert any("q = 1" in s for s in _check_fig5(tmp_path, rows))


# --- fig 7 -----------------------------------------------------------------

_SCAN_FILES = ("scan.csv", "resonances.csv", "reflection.svg")


def _fig7_write(tmp_path, jobs, shift=None, drop=None, duplicate=False):
    for name, cfg in jobs:
        hc = center_matrix(cfg.center)
        real, _ = resonant_eigenvalues(hc, cfg.scan.alpha)
        found = [float(g[0]) for g in W.required_resonances(hc, cfg.scan)]
        if name == "fig7b":
            if shift is not None:
                found[3] += shift
            if drop is not None:
                del found[drop]
            if duplicate:
                found.append(found[0] + 1e-12)
        _write(tmp_path, name, _SCAN_FILES, {"resonances": found})


def test_fig7_accepts_eigenvalue_resonances(tmp_path):
    jobs = _jobs("fig7-scan")
    _fig7_write(tmp_path, jobs)
    assert W.check_fig7(tmp_path, jobs) == []


def test_fig7_rejects_resonance_moved_by_1e_6(tmp_path):
    jobs = _jobs("fig7-scan")
    _fig7_write(tmp_path, jobs, shift=1e-6)
    assert any("from every eigenvalue" in s for s in W.check_fig7(tmp_path, jobs))


def test_fig7_rejects_missing_and_duplicate_resonance(tmp_path):
    jobs = _jobs("fig7-scan")
    _fig7_write(tmp_path, jobs, drop=5)
    assert any("no resonance" in s for s in W.check_fig7(tmp_path, jobs))
    _fig7_write(tmp_path, jobs, duplicate=True)
    assert any("two resonances" in s for s in W.check_fig7(tmp_path, jobs))


def test_fig7_near_degenerate_pair_needs_one_resonance():
    """The v=2 edge pair is split by 6e-6, far below the 1e-3 step, so
    the scan only has to find one of the two."""
    (_, cfg), = [j for j in _jobs("fig7-scan") if j[0] == "fig7b"]
    groups = W.required_resonances(center_matrix(cfg.center), cfg.scan)
    pairs = [g for g in groups if len(g) > 1]
    assert len(pairs) == 1 and np.all(np.abs(pairs[0]) < 1e-5)


# --- fig 6a ----------------------------------------------------------------


def _fig6a(tmp_path, delta):
    jobs = _jobs("fig6a-gainloss")
    ref = json.loads(W.REFERENCE_FIG6A.read_text())["channel_probabilities"]
    p = list(ref)
    p[2] += delta
    _write(tmp_path, "fig6a", W._DYNAMICS_FILES[:-1], {"channel_probabilities": p})
    return W.check_fig6a(tmp_path, jobs)


def test_fig6a_accepts_reference(tmp_path):
    assert _fig6a(tmp_path, 0.0) == []


def test_fig6a_rejects_probability_off_by_1e_3(tmp_path):
    assert any("seed-commit values" in s for s in _fig6a(tmp_path, 1e-3))


def test_seed_zero_is_the_paper_configuration():
    from scatterlab import cli

    for w in W.WORKLOADS.values():
        assert W.jobs_for(w, 0) == cli.figure_configs(w.figure)
    assert W.jobs_for(W.WORKLOADS["fig6a-gainloss"], 7) == cli.figure_configs("6a")
    assert W.jobs_for(W.WORKLOADS["fig3a-dynamics"], 2) == W.jobs_for(W.WORKLOADS["fig3a-dynamics"], 2)
