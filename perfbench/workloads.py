"""Benchmark workloads: one `reproduce-fig` target each, the seeded
variation of its inputs, and the correctness check of its artifacts.

Every workload expands its figure through ``scatterlab.cli.figure_configs``
exactly as ``scatterlab reproduce-fig`` does.  Seed 0 is the paper's
configuration unchanged; other seeds move inputs that leave the checked
physics alone (the packet centre by up to 6 sites, the fig-7 mu window by
a fraction of its step).  Checks read the written artifacts and compare
them against an independent route wherever the package has one.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE_FIG6A = Path(__file__).resolve().parent / "reference_fig6a.json"

# fig 3a: channel probabilities against the closed-form zero-mode law.  The
# seed commit deviates by at most 2.6e-4, so a probability moved by 1e-3 is
# always caught.
FIG3A_PROB_TOL = 5e-4
# Norm drift of the Hermitian Chebyshev propagator (2.2e-10 at the seed).
FIG3A_NORM_TOL = 1e-8

# fig 5: the closed forms hold on the topological side where the edge state
# is well inside 20 cells (q^40 < 1e-6, i.e. q <= 0.7) and, for total
# reflection, deep on the trivial side (q >= 1.5).  Worst seed-commit
# deviations: visibility 1.1e-3 (q = 0.7), reflectance 1.5e-4 (q = 0.7)
# and 2.0e-3 (q = 1.5).  Points nearer the transition carry finite-size
# corrections the closed forms do not include and are only required to be
# finite.
FIG5_TOPOLOGICAL_Q_MAX = 0.7
FIG5_TRIVIAL_Q_MIN = 1.5
FIG5_VIS_TOL = 2e-3
FIG5_REFL_TOL = 5e-4
FIG5_TRIVIAL_REFL_TOL = 5e-3

# fig 7: refined resonances sit on center eigenvalues to ~1e-12 at the seed.
FIG7_EIGEN_TOL = 1e-9
# A grid step of h guarantees a candidate below |r|^2 = 1e-2 for an
# isolated level whose dip half-width 2|J| sin(k) w exceeds
# (h/2) sqrt(99) < 5h; levels within FIG7_ISOLATION steps of another
# eigenvalue share one dip, so only one of them must be found.
FIG7_WIDTH_STEPS = 5.0
FIG7_ISOLATION_STEPS = 4.0

# fig 6a: no cheap independent route yet, so the channel probabilities are
# compared with values captured at the seed commit.
FIG6A_PROB_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    figure: str
    why: str
    # (jobs, rng) -> jobs with the seeded inputs applied.
    vary: Callable
    # (out_dir, jobs) -> list of problems; empty when the artifacts are right.
    check: Callable
    pooled: bool = False


def _shift_packet(jobs, rng: random.Random):
    # Snapshot times are multiples of (|N_c| + 4 sigma + N) / (60 v_g); a
    # shift by a multiple of 3 sites keeps their decimal expansions as long
    # as at seed 0, so every seed writes and formats the same amount of CSV.
    shift = 3 * rng.randint(-2, 2)
    return tuple(
        (name, replace(cfg, packet=replace(cfg.packet, center_site=cfg.packet.center_site + shift)))
        for name, cfg in jobs
    )


def _shift_window(jobs, rng: random.Random):
    frac = rng.random()
    out = []
    for name, cfg in jobs:
        s = cfg.scan
        d = frac * s.step
        out.append((name, replace(cfg, scan=replace(s, mu_min=s.mu_min + d, mu_max=s.mu_max + d))))
    return tuple(out)


def _fixed(jobs, rng: random.Random):
    return jobs


def _summary(out_dir: Path, name: str) -> dict:
    return json.loads((Path(out_dir) / name / "summary.json").read_text())


def _missing(out_dir: Path, name: str, files: tuple[str, ...]) -> list[str]:
    problems = []
    for f in files:
        p = Path(out_dir) / name / f
        if not p.is_file() or p.stat().st_size == 0:
            problems.append(f"{name}: artifact {f} missing or empty")
    return problems


_DYNAMICS_FILES = (
    "channels.csv", "trajectory.csv", "snapshots.csv", "trajectory.svg",
    "final_state.svg", "summary.json",
)


def check_fig3a(out_dir, jobs) -> list[str]:
    from scatterlab import analytic

    (name, cfg), = jobs
    problems = _missing(out_dir, name, _DYNAMICS_FILES)
    if problems:
        return problems
    s = _summary(out_dir, name)
    p = np.asarray(s["channel_probabilities"], dtype=float)
    theory = np.array([analytic.predicted_probabilities(cfg.center.q, l) for l in range(len(p))])
    dev = float(np.max(np.abs(p - theory)))
    if not dev <= FIG3A_PROB_TOL:
        problems.append(f"{name}: channel probabilities off the zero-mode law by {dev:.3e}")
    drift = abs(s["norm_final"] - s["norm_initial"])
    if not drift <= FIG3A_NORM_TOL:
        problems.append(f"{name}: norm drift {drift:.3e} above {FIG3A_NORM_TOL}")
    return problems


def check_fig5(out_dir, jobs) -> list[str]:
    from scatterlab import analytic

    (name, cfg), = jobs
    problems = _missing(out_dir, name, ("sweep.csv", "sweep.svg", "summary.json"))
    if problems:
        return problems
    rows = _summary(out_dir, name)["rows"]
    if [r["q"] for r in rows] != list(cfg.sweep.q_values):
        return [f"{name}: sweep rows do not match the requested q values"]
    for r in rows:
        q = r["q"]
        if q == 1.0:
            if r["status"] == "ok":
                problems.append(f"{name}: transition point q = 1 was not excluded")
            continue
        vis, refl = r["visibility_measured"], r["reflectance_measured"]
        if r["status"] != "ok" or vis is None or refl is None or not np.isfinite([vis, refl]).all():
            problems.append(f"{name}: q = {q} has no finite measurement")
            continue
        if q <= FIG5_TOPOLOGICAL_Q_MAX:
            dv = abs(vis - analytic.visibility_theory(q))
            dr = abs(refl - analytic.reflection_theory(q))
            if not dv <= FIG5_VIS_TOL:
                problems.append(f"{name}: q = {q} visibility off theory by {dv:.3e}")
            if not dr <= FIG5_REFL_TOL:
                problems.append(f"{name}: q = {q} reflectance off theory by {dr:.3e}")
        elif q >= FIG5_TRIVIAL_Q_MIN:
            dr = abs(refl - analytic.reflection_theory(q))
            if not dr <= FIG5_TRIVIAL_REFL_TOL:
                problems.append(f"{name}: q = {q} reflectance off total reflection by {dr:.3e}")
    return problems


def required_resonances(center: np.ndarray, scan) -> list[np.ndarray]:
    """Groups of real eigenvalues of which the scan must find at least one
    each: levels bright enough for the grid to guarantee a candidate,
    grouped with every eigenvalue closer than the isolation distance."""
    from scatterlab.steady import resonant_eigenvalues

    real, weights = resonant_eigenvalues(center, scan.alpha)
    every = np.linalg.eigvals(center)
    width = 2.0 * abs(scan.J) * abs(np.sin(scan.k)) * weights
    reach = FIG7_ISOLATION_STEPS * scan.step
    groups: dict[tuple, np.ndarray] = {}
    for lam, wid in zip(real, width):
        if wid < FIG7_WIDTH_STEPS * scan.step:
            continue
        if not scan.mu_min + scan.step <= lam <= scan.mu_max - scan.step:
            continue
        group = real[np.abs(real - lam) < reach]
        if np.sum(np.abs(every - lam) < reach) > len(group):
            continue  # shares its dip with a complex level: no guarantee
        groups[tuple(group)] = group
    return list(groups.values())


def check_fig7(out_dir, jobs) -> list[str]:
    from scatterlab.lattice import center_matrix
    from scatterlab.steady import resonant_eigenvalues

    problems = []
    for name, cfg in jobs:
        missing = _missing(out_dir, name, ("scan.csv", "resonances.csv", "reflection.svg", "summary.json"))
        if missing:
            problems.extend(missing)
            continue
        s = _summary(out_dir, name)
        found = np.asarray(s["resonances"], dtype=float)
        hc = center_matrix(cfg.center)
        real, _ = resonant_eigenvalues(hc, cfg.scan.alpha)
        matched = []
        for mu in found:
            d = np.abs(real - mu) if len(real) else np.array([np.inf])
            i = int(np.argmin(d))
            if not d[i] <= FIG7_EIGEN_TOL:
                problems.append(f"{name}: resonance {mu:.12g} is {d[i]:.3e} from every eigenvalue")
            elif i in matched:
                problems.append(f"{name}: two resonances on eigenvalue {real[i]:.12g}")
            else:
                matched.append(i)
        for group in required_resonances(hc, cfg.scan):
            if not np.any(np.abs(found[:, None] - group[None, :]) <= FIG7_EIGEN_TOL):
                problems.append(f"{name}: no resonance for bright eigenvalue(s) {group.tolist()}")
    return problems


def check_fig6a(out_dir, jobs) -> list[str]:
    (name, _), = jobs
    problems = _missing(out_dir, name, _DYNAMICS_FILES)
    if problems:
        return problems
    ref = np.asarray(json.loads(REFERENCE_FIG6A.read_text())["channel_probabilities"])
    p = np.asarray(_summary(out_dir, name)["channel_probabilities"], dtype=float)
    if p.shape != ref.shape:
        return [f"{name}: {len(p)} channels, reference has {len(ref)}"]
    dev = float(np.max(np.abs(p - ref)))
    if not dev <= FIG6A_PROB_TOL:
        problems.append(f"{name}: channel probabilities off the seed-commit values by {dev:.3e}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig3a-dynamics", "3a",
            "Hermitian Chebyshev propagation and 5.8 MB of CSV/SVG output share the time evenly",
            _shift_packet, check_fig3a,
        ),
        Workload(
            "fig6a-gainloss", "6a",
            "the only workload on the non-Hermitian expm_multiply propagator; light output",
            _fixed, check_fig6a,
        ),
        Workload(
            "fig7-scan", "7",
            "the only workload on the steady engine: five mu_scan runs, ~82k dense two-lead solves",
            _shift_window, check_fig7,
        ),
        Workload(
            "fig5-sweep", "5",
            "19 Hermitian dynamics runs through the q-sweep process pool with almost no output",
            _shift_packet, check_fig5, pooled=True,
        ),
    )
}


def jobs_for(workload: Workload, seed: int):
    """The figure's configurations with the seed's input variation applied."""
    from scatterlab import cli

    jobs = cli.figure_configs(workload.figure)
    if seed == 0:
        return jobs
    return workload.vary(jobs, random.Random(seed))
