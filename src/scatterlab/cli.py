"""Command-line interface: config ingestion, experiment orchestration,
and figure-grade artifact emission.

Configurations are single JSON files.  The keys of each section are the
fields of its spec class (``center``: SSHCenter, NonHermitianSSHCenter
or CustomCenter, chosen by its ``type`` "ssh", "nh_ssh" or "custom";
``lead``: LeadSpec; ``packet``: WavePacketSpec; ``propagator``:
PropagatorConfig; ``steady``, ``scan``, ``sweep``: the Section classes
below).  Fields without a default are required, the others take the
field default, and ``k`` also accepts 'pi/2'-style strings.  steady
requires center, lead and steady; dynamics requires center, lead and
packet and allows propagator; mu-scan requires center and scan; q-sweep
requires sweep and allows lead, packet (figure 3's by default) and
propagator.  Any other section is rejected.  Every run is fully
deterministic, so identical configs produce byte-identical CSV
artifacts.  ``--workers`` must be at least 1; q-sweep runs its points in
that many processes (default: the CPU count), capped at the number of
sweep points.  Exit codes: 0 success, 2 configuration error, 3 physics
precondition violated, 4 numerical failure.

    scatterlab <steady|dynamics|mu-scan|q-sweep> --config FILE [--out DIR]
               [--workers N] [--snapshot-stride S]
    scatterlab reproduce-fig {3a|3b|3c|3d|5|6a|6b|6c|6d|7} [--out DIR] ...
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import analytic
from .dynamics import PropagatorConfig, WavePacketSpec, run_experiment, visibility
from .errors import ConfigError, NumericalError, PhysicsError, ScatterlabError
from .lattice import (
    CenterSpec,
    CustomCenter,
    LeadSpec,
    NetworkSpec,
    NonHermitianSSHCenter,
    SSHCenter,
    center_matrix,
    dispersion,
)
from .output import Series, svg_heatmap, svg_line_plot, write_csv, write_summary
from .steady import mu_scan, resonant_eigenvalues, solve_multichannel

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_NUMERICAL = 4

FIGURE_IDS = ("3a", "3b", "3c", "3d", "5", "6a", "6b", "6c", "6d", "7")

_ANGLE_RE = re.compile(r"^\s*(?:(\d+(?:\.\d*)?)\s*\*\s*)?pi\s*(?:/\s*(\d+(?:\.\d*)?))?\s*$")


def _parse_angle(value, where: str) -> float:
    """Accept a plain number or a 'pi', 'pi/2', '2*pi/5' style string."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return _number(value, where)
    if isinstance(value, str):
        m = _ANGLE_RE.match(value)
        if m:
            num = float(m.group(1)) if m.group(1) else 1.0
            den = float(m.group(2)) if m.group(2) else 1.0
            if den == 0:
                raise ConfigError(f"{where}: zero denominator in {value!r}")
            return _number(num * np.pi / den, where)
    raise ConfigError(f"{where}: expected a number or a 'pi/2'-style string, got {value!r}")


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # a JSON integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return number


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _optional_number(value, where: str) -> float | None:
    return None if value is None else _number(value, where)


def _numbers(value, where: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a non-empty list of numbers")
    return tuple(_number(v, where) for v in value)


def _complex(value, where: str) -> complex:
    """A number, or an [re, im] pair of numbers."""
    if not isinstance(value, list):
        return complex(_number(value, where))
    if len(value) != 2:
        raise ConfigError(f"{where}: complex entries are [re, im] pairs")
    return complex(_number(value[0], where), _number(value[1], where))


def _matrix(value, where: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a non-empty list of rows")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise ConfigError(f"{where} row {i} is not a list")
        rows.append([_complex(cell, f"{where}[{i}][{j}]") for j, cell in enumerate(row)])
    # CustomCenter's own shape check, reported as a config error
    try:
        return CustomCenter(np.array(rows, dtype=complex)).matrix
    except (PhysicsError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# Field annotation -> validator turning a JSON value into that type.
_COERCE = {
    float: _number,
    int: _integer,
    float | None: _optional_number,
    tuple[float, ...]: _numbers,
    np.ndarray: _matrix,
}


@dataclass(frozen=True)
class SteadySection:
    k: float
    input_site: int = 1


@dataclass(frozen=True)
class ScanSection:
    mu_min: float
    mu_max: float
    step: float
    alpha: int = 1
    J: float = 1.0
    k: float = np.pi / 2


@dataclass(frozen=True)
class SweepSection:
    q_values: tuple[float, ...]
    w: float = 4.0
    cells: int = 20

    def __post_init__(self) -> None:
        if any(q <= 0 for q in self.q_values):
            raise ConfigError("sweep.q_values must be positive")


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration for one CLI run.  Which sections are
    populated depends on the mode; contradictions are rejected at parse
    time so the physics modules only ever see consistent inputs."""

    mode: str
    center: CenterSpec | None = None
    lead: LeadSpec | None = None
    packet: WavePacketSpec | None = None
    steady: SteadySection | None = None
    scan: ScanSection | None = None
    sweep: SweepSection | None = None
    propagator: PropagatorConfig = PropagatorConfig()


_CENTER_TYPES = {"ssh": SSHCenter, "nh_ssh": NonHermitianSSHCenter, "custom": CustomCenter}

# Spec class of each config section; the center's 'type' picks one
# member of the CenterSpec union.
_SECTION_SPECS = {
    "center": CenterSpec,
    "lead": LeadSpec,
    "packet": WavePacketSpec,
    "steady": SteadySection,
    "scan": ScanSection,
    "sweep": SweepSection,
    "propagator": PropagatorConfig,
}

# Section names each mode requires / tolerates.  Anything else in the file
# is a contradiction and rejected outright.
_MODE_SECTIONS: dict[str, tuple[set[str], set[str]]] = {
    "steady": ({"center", "lead", "steady"}, set()),
    "dynamics": ({"center", "lead", "packet"}, {"propagator"}),
    "mu-scan": ({"center", "scan"}, set()),
    "q-sweep": ({"sweep"}, {"lead", "packet", "propagator"}),
}


def _parse_section(name: str, section):
    """Build config section ``name`` from the fields of its spec class.

    Every key must name a field, a field without a default is required,
    and each value is validated by its field annotation; ``k`` fields also
    accept 'pi/2'-style strings.  The center's ``type`` key picks its class
    from ``_CENTER_TYPES``.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"section '{name}' must be a JSON object, got {type(section).__name__}")
    values = dict(section)
    cls = _SECTION_SPECS[name]
    if cls is CenterSpec:
        if "type" not in values:
            raise ConfigError(f"missing required field 'type' in section '{name}'")
        kind = values.pop("type")
        if kind not in list(_CENTER_TYPES):  # a list: 'type' may be an unhashable JSON value
            *others, last = map(repr, _CENTER_TYPES)
            raise ConfigError(f"center.type must be {', '.join(others)}, or {last}, got {kind!r}")
        cls = _CENTER_TYPES[kind]
    hints = get_type_hints(cls)
    for key in values:
        if key not in hints:
            raise ConfigError(f"unknown key '{key}' in section '{name}'")
    kwargs = {}
    for f in fields(cls):
        if f.name in values:
            coerce = _parse_angle if f.name == "k" else _COERCE[hints[f.name]]
            kwargs[f.name] = coerce(values[f.name], f"{name}.{f.name}")
        elif f.default is MISSING:
            raise ConfigError(f"missing required field '{f.name}' in section '{name}'")
    return cls(**kwargs)


def parse_config(path, mode: str) -> RunConfig:
    """Load and validate a JSON config file for the given mode.

    Unknown keys are rejected with the offending key named; sections that
    contradict the mode (e.g. a packet in a mu-scan) are rejected too.
    """
    if mode not in _MODE_SECTIONS:
        raise ConfigError(f"unknown mode {mode!r}")
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed config {path}: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(data).__name__}")

    declared = data.pop("mode", None)
    if declared is not None and declared != mode:
        raise ConfigError(f"config declares mode {declared!r} but was run as {mode!r}")

    required, optional = _MODE_SECTIONS[mode]
    for name in data:
        if name not in required | optional:
            if name in _SECTION_SPECS:
                raise ConfigError(f"section '{name}' contradicts mode '{mode}'")
            raise ConfigError(f"unknown key '{name}' in config")
    for name in required:
        if name not in data:
            raise ConfigError(f"mode '{mode}' requires a '{name}' section")

    parsed = {name: _parse_section(name, section) for name, section in data.items()}
    return RunConfig(mode=mode, **parsed)


def _fig3_lead() -> LeadSpec:
    return LeadSpec(J=-0.1, mu=0.0, length=200)


def _fig3_packet() -> WavePacketSpec:
    return WavePacketSpec(center_site=-100, sigma=20.0, k=np.pi / 2)


def figure_configs(fig: str) -> tuple[tuple[str, RunConfig], ...]:
    """Expand a figure identifier into named, ready-to-run configurations."""
    if fig in ("3a", "3b", "3c", "3d"):
        v = {"3a": 2.0, "3b": 3.0, "3c": 5.0, "3d": 6.0}[fig]
        cfg = RunConfig(
            mode="dynamics",
            center=SSHCenter(v=v, w=4.0, cells=20),
            lead=_fig3_lead(),
            packet=_fig3_packet(),
        )
        return ((f"fig{fig}", cfg),)
    if fig == "5":
        qs = tuple(round(0.1 * i, 10) for i in range(1, 21))
        cfg = RunConfig(
            mode="q-sweep",
            sweep=SweepSection(q_values=qs, w=4.0, cells=20),
            lead=_fig3_lead(),
            packet=_fig3_packet(),
        )
        return (("fig5", cfg),)
    if fig in ("6a", "6b", "6c", "6d"):
        n = {"6a": 0, "6b": 1, "6c": 2, "6d": 3}[fig]
        level = analytic.nh_spectrum(40.0, 2.0, 10.0, 4).level(n)
        cfg = RunConfig(
            mode="dynamics",
            center=NonHermitianSSHCenter(v=40.0, w=2.0, gamma=10.0, cells=4),
            lead=LeadSpec(J=-0.1, mu=level.real_energy, length=200),
            packet=_fig3_packet(),
        )
        return ((f"fig{fig}", cfg),)
    if fig == "7":
        runs = []
        for panel, v in zip("bcde", (2.0, 3.0, 5.0, 6.0)):
            runs.append(
                (
                    f"fig7{panel}",
                    RunConfig(
                        mode="mu-scan",
                        center=SSHCenter(v=v, w=4.0, cells=20),
                        scan=ScanSection(mu_min=-7.0, mu_max=7.0, step=1e-3),
                    ),
                )
            )
        runs.append(
            (
                "fig7f",
                RunConfig(
                    mode="mu-scan",
                    center=NonHermitianSSHCenter(v=40.0, w=2.0, gamma=10.0, cells=4),
                    scan=ScanSection(mu_min=30.0, mu_max=50.0, step=1e-3),
                ),
            )
        )
        return tuple(runs)
    raise ConfigError(f"unknown figure id {fig!r}; choose from {', '.join(FIGURE_IDS)}")


# ---------------------------------------------------------------------------
# Mode runners


def _center_payload(center: CenterSpec) -> dict:
    kind = next(k for k, cls in _CENTER_TYPES.items() if isinstance(center, cls))
    if isinstance(center, CustomCenter):
        return {"type": kind, "n_sites": center.n_sites}
    return {"type": kind, **asdict(center)}


def _ssh_theory_probabilities(center: CenterSpec, energy: float, n_channels: int) -> np.ndarray:
    """Zero-mode channel-probability overlay where the closed form applies:
    an SSH center probed at zero energy away from the transition."""
    theory = np.full(n_channels + 1, np.nan)
    if isinstance(center, SSHCenter) and abs(energy) < 1e-9 and center.w != 0:
        q = center.q
        if q > 0 and q != 1:
            for l in range(n_channels + 1):
                theory[l] = analytic.predicted_probabilities(q, l)
    return theory


def _nh_theory_profile(center: CenterSpec, mu: float, p: np.ndarray) -> np.ndarray:
    """Sinusoidal per-channel overlay for a gain/loss center probed at one
    of its real levels, rescaled to the measured output maximum."""
    theory = np.full(len(p), np.nan)
    if not isinstance(center, NonHermitianSSHCenter):
        return theory
    spectrum = analytic.nh_spectrum(center.v, center.w, center.gamma, center.cells)
    real = spectrum.real_levels()
    if not real:
        return theory
    nearest = min(real, key=lambda lv: abs(lv.real_energy - mu))
    if abs(nearest.real_energy - mu) > 0.5:
        return theory
    profile = analytic.nh_transmission_profile(nearest, center.cells)
    scale = float(p[1:].max()) if len(p) > 1 else 1.0
    for m in range(1, center.cells + 1):
        theory[2 * m - 1] = profile[m - 1] * scale
        theory[2 * m] = profile[m - 1] * scale
    return theory


def run_dynamics(cfg: RunConfig, out_dir: Path) -> dict:
    net = NetworkSpec(center=cfg.center, lead=cfg.lead)
    record = run_experiment(net, cfg.packet, cfg.propagator)
    p = record.channel_probabilities
    energy = dispersion(cfg.lead.J, cfg.lead.mu, cfg.packet.k)

    theory = _ssh_theory_probabilities(cfg.center, energy, record.registry.n_outputs)
    if np.all(np.isnan(theory)):
        theory = _nh_theory_profile(cfg.center, cfg.lead.mu, p)

    channels = np.arange(len(p))
    write_csv(
        out_dir / "channels.csv",
        ["channel", "probability", "probability_theory"],
        [(int(c), p[c], theory[c]) for c in channels],
    )

    history = record.channel_history()
    n_times, n_channels = history.shape
    write_csv(
        out_dir / "trajectory.csv",
        ["time", "channel", "probability"],
        zip(
            np.repeat(record.times, n_channels).tolist(),
            np.tile(channels, n_times).tolist(),
            history.ravel().tolist(),
        ),
    )

    reg = record.registry
    prob = record.site_probabilities
    regions, chans, offsets = reg.labels()
    ti, si = np.nonzero(prob > 1e-12)
    write_csv(
        out_dir / "snapshots.csv",
        ["time", "region", "channel", "offset", "probability"],
        zip(
            record.times[ti].tolist(),
            regions[si].tolist(),
            chans[si].tolist(),
            offsets[si].tolist(),
            prob[ti, si].tolist(),
        ),
    )

    # Channel x lead-site intensity maps at a few snapshot times.
    n_panels = min(6, len(record.times))
    picks = np.unique(np.linspace(0, len(record.times) - 1, n_panels).astype(int))
    grids = reg.leads(prob)
    panels = [(f"t = {record.times[i]:.6g}", grids[i]) for i in picks]
    svg_heatmap(
        out_dir / "trajectory.svg",
        panels,
        title="wave-packet trajectory",
        xlabel="lead site offset",
        ylabel="channel",
    )

    series = [Series(x=channels, y=p, label="measured", color="#c0392b", markers=True, line=False)]
    if not np.all(np.isnan(theory)):
        series.append(Series(x=channels, y=theory, label="theory", color="black", markers=False))
    svg_line_plot(
        out_dir / "final_state.svg",
        series,
        title="final channel probabilities",
        xlabel="channel",
        ylabel="probability",
    )

    try:
        vis = visibility(p, eta=1)
    except PhysicsError:
        vis = None

    summary = {
        "mode": "dynamics",
        "center": _center_payload(cfg.center),
        "lead": asdict(cfg.lead),
        "packet": asdict(cfg.packet),
        "incident_energy": energy,
        "final_time": record.final_time,
        "channel_probabilities": p,
        "center_probability": record.center_probability,
        "norm_initial": record.norms[0],
        "norm_final": record.norms[-1],
        "visibility_eta1": vis,
        "warnings": list(record.warnings),
    }
    write_summary(out_dir / "summary.json", summary)
    return summary


def run_steady(cfg: RunConfig, out_dir: Path) -> dict:
    sol = solve_multichannel(
        center_matrix(cfg.center),
        J=cfg.lead.J,
        mu=cfg.lead.mu,
        k=cfg.steady.k,
        input_site=cfg.steady.input_site,
    )
    n = len(sol.t)
    theory = _ssh_theory_probabilities(cfg.center, sol.energy, n)
    rows = [(0, sol.r.real, sol.r.imag, sol.reflectance, theory[0])]
    for l in range(1, n + 1):
        amp = sol.t[l - 1]
        rows.append((l, amp.real, amp.imag, abs(amp) ** 2, theory[l]))
    write_csv(
        out_dir / "amplitudes.csv",
        ["channel", "amp_re", "amp_im", "probability", "probability_theory"],
        rows,
    )

    channels = np.arange(n + 1)
    probs = np.concatenate(([sol.reflectance], sol.transmittance))
    series = [Series(x=channels, y=probs, label="measured", color="#c0392b", markers=True, line=False)]
    if not np.all(np.isnan(theory)):
        series.append(Series(x=channels, y=theory, label="theory", color="black"))
    svg_line_plot(
        out_dir / "final_state.svg",
        series,
        title="steady-state channel probabilities",
        xlabel="channel",
        ylabel="probability",
    )

    summary = {
        "mode": "steady",
        "center": _center_payload(cfg.center),
        "lead": {"J": cfg.lead.J, "mu": cfg.lead.mu},
        "k": cfg.steady.k,
        "input_site": cfg.steady.input_site,
        "energy": sol.energy,
        "r": sol.r,
        "reflectance": sol.reflectance,
        "transmittance": sol.transmittance,
        "flux_error": sol.flux_error,
        "warnings": list(sol.warnings),
    }
    write_summary(out_dir / "summary.json", summary)
    return summary


def run_mu_scan(cfg: RunConfig, out_dir: Path) -> dict:
    scan_cfg = cfg.scan
    scan = mu_scan(
        center_matrix(cfg.center),
        alpha=scan_cfg.alpha,
        J=scan_cfg.J,
        k=scan_cfg.k,
        mu_range=(scan_cfg.mu_min, scan_cfg.mu_max),
        resolution=scan_cfg.step,
    )
    write_csv(
        out_dir / "scan.csv",
        ["mu", "reflectance"],
        zip(scan.mu_grid, scan.reflectance),
    )

    eigvals, weights = resonant_eigenvalues(center_matrix(cfg.center), scan_cfg.alpha)
    analytic_levels: list[float] = []
    if isinstance(cfg.center, NonHermitianSSHCenter):
        spectrum = analytic.nh_spectrum(
            cfg.center.v, cfg.center.w, cfg.center.gamma, cfg.center.cells
        )
        for lv in spectrum.real_levels():
            analytic_levels.extend((+lv.real_energy, -lv.real_energy))

    rows = []
    for mu_star, r2 in zip(scan.resonances, scan.resonance_reflectance):
        nearest = float(eigvals[np.argmin(np.abs(eigvals - mu_star))]) if len(eigvals) else np.nan
        if analytic_levels:
            approx = min(analytic_levels, key=lambda e: abs(e - mu_star))
            approx_dist = abs(approx - mu_star)
        else:
            approx, approx_dist = np.nan, np.nan
        rows.append((mu_star, r2, nearest, abs(nearest - mu_star), approx, approx_dist))
    write_csv(
        out_dir / "resonances.csv",
        [
            "mu_star",
            "reflectance_min",
            "nearest_eigenvalue",
            "eigenvalue_distance",
            "analytic_energy",
            "analytic_distance",
        ],
        rows,
    )

    series = [
        Series(x=scan.mu_grid, y=scan.reflectance, label="|r|^2", color="black"),
        Series(
            x=np.asarray(scan.resonances),
            y=np.zeros(len(scan.resonances)),
            label="resonances",
            color="#c0392b",
            markers=True,
            line=False,
        ),
    ]
    if analytic_levels:
        inside = [e for e in analytic_levels if scan_cfg.mu_min <= e <= scan_cfg.mu_max]
        series.append(
            Series(
                x=np.asarray(inside),
                y=np.full(len(inside), 0.04),
                label="analytic levels",
                color="#27ae60",
                markers=True,
                line=False,
            )
        )
    svg_line_plot(
        out_dir / "reflection.svg",
        series,
        title="reflection scan",
        xlabel="mu",
        ylabel="|r|^2",
    )

    summary = {
        "mode": "mu-scan",
        "center": _center_payload(cfg.center),
        "scan": asdict(scan_cfg),
        "resonances": list(scan.resonances),
        "resonance_reflectance": list(scan.resonance_reflectance),
        "dark_states": [f"dark state at mu={mu:.9g}" for mu in scan.dark_states],
        "n_grid_points": int(len(scan.mu_grid)),
    }
    write_summary(out_dir / "summary.json", summary)
    return summary


def _sweep_point(task: tuple) -> np.ndarray:
    """Worker for one q-sweep point; module-level so it pickles."""
    (q, w, cells, lead, packet, prop) = task
    center = SSHCenter(v=q * w, w=w, cells=cells)
    net = NetworkSpec(center=center, lead=lead)
    record = run_experiment(net, packet, prop)
    return record.channel_probabilities


def run_q_sweep(cfg: RunConfig, out_dir: Path, workers: int | None = None) -> dict:
    sweep = cfg.sweep
    lead = cfg.lead if cfg.lead is not None else _fig3_lead()
    packet = cfg.packet if cfg.packet is not None else _fig3_packet()
    workers = workers if workers is not None else (os.cpu_count() or 1)

    tasks = []
    for q in sweep.q_values:
        if q != 1.0:
            tasks.append((q, sweep.w, sweep.cells, lead, packet, cfg.propagator))

    if workers > 1 and len(tasks) > 1:
        # fork starts every worker up front, so ask for no more than there are tasks
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            results = list(pool.map(_sweep_point, tasks))
    else:
        results = [_sweep_point(t) for t in tasks]
    by_q = {task[0]: p for task, p in zip(tasks, results)}

    rows = []
    for q in sweep.q_values:
        if q == 1.0:
            rows.append((q, "excluded (transition)", np.nan, np.nan, np.nan, np.nan))
            continue
        p = by_q[q]
        try:
            vis = visibility(p, eta=1)
        except PhysicsError:
            vis = np.nan
        vis_th = analytic.visibility_theory(q) if q < 1 else np.nan
        rows.append((q, "ok", vis, vis_th, p[0], analytic.reflection_theory(q)))

    columns = (
        "q",
        "status",
        "visibility_measured",
        "visibility_theory",
        "reflectance_measured",
        "reflectance_theory",
    )
    write_csv(out_dir / "sweep.csv", columns, rows)

    arr = np.array(
        [[r[0], r[2], r[3], r[4], r[5]] for r in rows],
        dtype=float,
    )
    svg_line_plot(
        out_dir / "sweep.svg",
        [
            Series(x=arr[:, 0], y=arr[:, 2], label="V(1) theory", color="black"),
            Series(x=arr[:, 0], y=arr[:, 1], label="V(1) measured", color="black",
                   markers=True, line=False),
            Series(x=arr[:, 0], y=arr[:, 4], label="|r|^2 theory", color="#c0392b"),
            Series(x=arr[:, 0], y=arr[:, 3], label="|r|^2 measured", color="#c0392b",
                   markers=True, line=False),
        ],
        title="visibility and reflection vs q",
        xlabel="q",
        ylabel="V, |r|^2",
    )

    summary = {
        "mode": "q-sweep",
        "sweep": asdict(sweep),
        "lead": asdict(lead),
        "packet": asdict(packet),
        "rows": [dict(zip(columns, r)) for r in rows],
    }
    write_summary(out_dir / "summary.json", summary)
    return summary


def run(cfg: RunConfig, out_dir, workers: int | None = None) -> dict:
    """Execute a validated configuration, writing artifacts into out_dir."""
    if workers is not None and workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {workers}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if cfg.mode == "dynamics":
        return run_dynamics(cfg, out_dir)
    if cfg.mode == "steady":
        return run_steady(cfg, out_dir)
    if cfg.mode == "mu-scan":
        return run_mu_scan(cfg, out_dir)
    if cfg.mode == "q-sweep":
        return run_q_sweep(cfg, out_dir, workers=workers)
    raise ConfigError(f"unknown mode {cfg.mode!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="scatterlab",
        description="Multichannel resonant scattering on tight-binding lattices.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in _MODE_SECTIONS:
        p = sub.add_parser(mode, help=f"run a {mode} experiment from a config file")
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", default="scatterlab-out", help="output directory")
        p.add_argument("--workers", type=int, default=None, help="sweep worker count")
        p.add_argument(
            "--snapshot-stride", type=float, default=None, help="time between snapshots"
        )
    p = sub.add_parser("reproduce-fig", help="one-command reproduction of a figure")
    p.add_argument("figure", choices=FIGURE_IDS)
    p.add_argument("--out", default="scatterlab-out")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--snapshot-stride", type=float, default=None)

    args = parser.parse_args(argv)
    try:
        if args.mode == "reproduce-fig":
            jobs = figure_configs(args.figure)
        else:
            jobs = (("", parse_config(args.config, args.mode)),)
        for name, cfg in jobs:
            if args.snapshot_stride is not None:
                cfg = replace(
                    cfg, propagator=replace(cfg.propagator, snapshot_stride=args.snapshot_stride)
                )
            target = Path(args.out) / name if name else Path(args.out)
            run(cfg, target, workers=args.workers)
            print(f"wrote artifacts to {target}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PhysicsError as exc:
        print(f"physics precondition violated: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ScatterlabError as exc:  # pragma: no cover
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
