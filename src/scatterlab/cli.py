"""Command-line interface: config ingestion, experiment orchestration,
and figure-grade artifact emission.

Configurations are single JSON files.  The keys of each section are the
fields of its spec class (``center``: SSHCenter, NonHermitianSSHCenter
or CustomCenter, chosen by its ``type`` "ssh", "nh_ssh" or "custom";
``lead``: LeadSpec; ``packet``: WavePacketSpec; ``propagator``:
PropagatorConfig; ``steady``, ``scan``, ``sweep``: the Section classes
below).  Fields without a default are required, the others take the
field default, and ``k`` also accepts 'pi/2'-style strings, signed or
not ('-3*pi/4').  A mu-scan runs at the lead's band centre
``BAND_CENTRE_K``, where each reflection zero sits on a centre level, so
its ``scan`` section has no settable ``k``; ``summary.json`` still echoes
it with the section.  ``_MODES`` lists the sections each mode requires
and tolerates (q-sweep's lead and packet default to figure 3's, its w
and cells to the SSH chains'); any other section is rejected, as is
``lead.length`` in a steady run, whose leads are semi-infinite.  The time
between stored snapshots of dynamics and q-sweep runs is
``propagator.snapshot_stride``.  ``reproduce-fig`` runs the jobs of one
entry of ``_FIGURES``, built from the paper's inputs, each spelled once:
figures 3a-d and 7b-e share the four SSH chains, figures 6a-d and 7f the
gain/loss chain, and figures 3, 5 and 6 figure 3's lead and packet
(each panel of figure 6 tunes the lead's mu to one real level of the
gain/loss chain).  A steady run solves the multichannel network
``NetworkSpec`` builds, input lead at site 1.  A steady or mu-scan k is
the magnitude of ``lattice.incident_wave_vector``; a ``packet.k`` must
equal it (J sin k < 0), or the run exits 3.  A mu-scan diagonalises
its centre once, in ``run_mu_scan``: those levels give both the
``nearest_eigenvalue`` column and the dark states in ``summary.json``.
Steady and dynamics runs share one theory overlay: the zero-mode law for
an SSH center where ``analytic.zero_mode_probe`` accepts the probe (as do
the q-sweep's theory columns), for a gain/loss center the per-cell
profile of a real level within 0.5 of the incident energy, NaN elsewhere.
Every run is fully deterministic, so identical configs produce
byte-identical CSV artifacts.  A run's warnings (a dynamics run that
ends at t_max or reaches a truncated lead end, each such q-sweep point
under its q, a steady solve's) are recorded by its engine and listed in
``summary.json`` under ``warnings``; ``main`` prints each to stderr as
``warning: ...``, ``run`` prints nothing, and no Python warning is
raised.  ``--workers`` must be at least 1; q-sweep (and figure 5) runs
its points in that many processes (default: the CPU count), capped at
the number of sweep points.  Exit codes: 0 success,
2 configuration error, 3 physics precondition violated, 4 numerical
failure.

    scatterlab <steady|dynamics|mu-scan> --config FILE [--out DIR]
    scatterlab q-sweep --config FILE [--out DIR] [--workers N]
    scatterlab reproduce-fig {3a|3b|3c|3d|5|6a|6b|6c|6d|7} [--out DIR] [--workers N]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from contextlib import suppress
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import analytic
from .dynamics import PropagatorConfig, WavePacketSpec, run_experiment, visibility
from .errors import ConfigError, NumericalError, PhysicsError
from .lattice import (
    BAND_CENTRE_K,
    CenterSpec,
    CustomCenter,
    LeadSpec,
    NetworkSpec,
    NonHermitianSSHCenter,
    SSHCenter,
    center_matrix,
    dispersion,
    incident_wave_vector,
)
from .output import Series, csv_cells, svg_heatmap, svg_line_plot, write_csv, write_summary
from .steady import DARK_OVERLAP2, mu_scan, resonant_eigenvalues, solve_multichannel

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_NUMERICAL = 4

_ANGLE_RE = re.compile(
    r"^\s*(-?)\s*(?:(\d+(?:\.\d*)?)\s*\*\s*)?pi\s*(?:/\s*(\d+(?:\.\d*)?))?\s*$"
)


def _parse_angle(value, where: str) -> float:
    """Accept a plain number or a 'pi', 'pi/2', '2*pi/5' or '-pi/2' style
    string."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return _number(value, where)
    if isinstance(value, str):
        m = _ANGLE_RE.match(value)
        if m:
            sign, num, den = m.groups()
            num = float(sign + (num or "1"))
            den = float(den) if den else 1.0
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


# The paper's inputs, each spelled once; ``figure_configs`` says which
# figures share each.  Figure 3's lead and packet are also the q-sweep's
# defaults, and the SSH chains' w and cells the sweep section's.
_FIG3_LEAD = LeadSpec(J=-0.1, mu=0.0, length=200)
_FIG3_PACKET = WavePacketSpec(center_site=-100, sigma=20.0, k=BAND_CENTRE_K)
_SSH_CHAINS = tuple(SSHCenter(v=v, w=4.0, cells=20) for v in (2.0, 3.0, 5.0, 6.0))
_GAIN_LOSS_CHAIN = NonHermitianSSHCenter(v=40.0, w=2.0, gamma=10.0, cells=4)


@dataclass(frozen=True)
class SteadySection:
    k: float


@dataclass(frozen=True)
class ScanSection:
    """A two-lead mu-scan over [mu_min, mu_max] in steps of ``step``, both
    leads (hopping J) at site ``alpha``.  ``k`` is the band centre, where
    each reflection zero sits on a centre level: no config sets it, but
    ``summary.json`` echoes it."""

    mu_min: float
    mu_max: float
    step: float
    alpha: int = 1
    J: float = 1.0
    k: float = field(default=BAND_CENTRE_K, init=False)


@dataclass(frozen=True)
class SweepSection:
    q_values: tuple[float, ...]
    w: float = _SSH_CHAINS[0].w
    cells: int = _SSH_CHAINS[0].cells

    def __post_init__(self) -> None:
        if any(q <= 0 for q in self.q_values):
            raise ConfigError("sweep.q_values must be positive")
        if not self.w > 0:
            raise ConfigError(f"sweep.w must be positive, got {self.w}")


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

def _parse_section(name: str, section):
    """Build config section ``name`` from the fields of its spec class.

    Every key must name an init field (``ScanSection.k`` is not one), a
    field without a default is required, and each value is validated by
    its field annotation; ``k`` fields also accept 'pi/2'-style strings.
    The center's ``type`` key picks its class from ``_CENTER_TYPES``.
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
    settable = {f.name: f for f in fields(cls) if f.init}
    for key in values:
        if key not in settable:
            raise ConfigError(f"unknown key '{key}' in section '{name}'")
    kwargs = {}
    for f in settable.values():
        if f.name in values:
            coerce = _parse_angle if f.name == "k" else _COERCE[hints[f.name]]
            kwargs[f.name] = coerce(values[f.name], f"{name}.{f.name}")
        elif f.default is MISSING:
            raise ConfigError(f"missing required field '{f.name}' in section '{name}'")
    return cls(**kwargs)


def parse_config(path, mode: str) -> RunConfig:
    """Load and validate a JSON config file for the given mode.

    Unknown keys are rejected with the offending key named; sections that
    contradict the mode (e.g. a packet in a mu-scan) are rejected too, and
    so is a key the mode never reads (``lead.length`` in a steady run).
    """
    required, tolerated, _ = _mode(mode)
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed config {path}: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or an oversized integer
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(data).__name__}")

    declared = data.pop("mode", None)
    if declared is not None and declared != mode:
        raise ConfigError(f"config declares mode {declared!r} but was run as {mode!r}")

    for name in data:
        if name not in required | tolerated:
            if name in _SECTION_SPECS:
                raise ConfigError(f"section '{name}' contradicts mode '{mode}'")
            raise ConfigError(f"unknown key '{name}' in config")
    for name in required:
        if name not in data:
            raise ConfigError(f"mode '{mode}' requires a '{name}' section")

    parsed = {name: _parse_section(name, section) for name, section in data.items()}
    if mode == "steady" and "length" in data["lead"]:
        raise ConfigError("lead.length has no effect in a steady run: its leads are semi-infinite")
    return RunConfig(mode=mode, **parsed)


def _figure_table() -> dict[str, tuple[tuple[str, RunConfig], ...]]:
    """Each figure id's named, ready-to-run configurations, built from the
    paper inputs at the top of this module."""

    def dynamics(fig: str, center: CenterSpec, lead: LeadSpec = _FIG3_LEAD) -> tuple:
        return ((f"fig{fig}", RunConfig("dynamics", center, lead, packet=_FIG3_PACKET)),)

    table = {f"3{panel}": dynamics(f"3{panel}", c) for panel, c in zip("abcd", _SSH_CHAINS)}
    # the sweep's w and cells default to the SSH chains'
    sweep = SweepSection(q_values=tuple(round(0.1 * i, 10) for i in range(1, 21)))
    fig5 = RunConfig("q-sweep", lead=_FIG3_LEAD, packet=_FIG3_PACKET, sweep=sweep)
    table["5"] = (("fig5", fig5),)
    # each panel probes one level of the gain/loss chain
    nh = _GAIN_LOSS_CHAIN
    levels = analytic.nh_spectrum(nh.v, nh.w, nh.gamma, nh.cells)
    for panel, level in zip("abcd", levels):
        table[f"6{panel}"] = dynamics(f"6{panel}", nh, replace(_FIG3_LEAD, mu=level.real_energy))
    scans = [(c, -7.0, 7.0) for c in _SSH_CHAINS] + [(nh, 30.0, 50.0)]
    table["7"] = tuple(
        (f"fig7{panel}", RunConfig("mu-scan", center, scan=ScanSection(lo, hi, step=1e-3)))
        for panel, (center, lo, hi) in zip("bcdef", scans)
    )
    return table


_FIGURES = _figure_table()


def figure_configs(fig: str) -> tuple[tuple[str, RunConfig], ...]:
    """Named, ready-to-run configurations of figure ``fig``.

    Figures 3a-d and 7b-e share the four SSH chains, figures 6a-d and 7f
    the gain/loss chain, and figures 3, 5 and 6 figure 3's lead and packet
    (figure 6 with the lead's mu on one real level of the chain).
    """
    if fig not in _FIGURES:
        raise ConfigError(f"unknown figure id {fig!r}; choose from {', '.join(_FIGURES)}")
    return _FIGURES[fig]


# ---------------------------------------------------------------------------
# Mode runners


def _center_payload(center: CenterSpec) -> dict:
    kind = next(k for k, cls in _CENTER_TYPES.items() if isinstance(center, cls))
    if isinstance(center, CustomCenter):
        return {"type": kind, "n_sites": center.n_sites}
    return {"type": kind, **asdict(center)}


def _nh_theory_levels(center: CenterSpec) -> tuple[analytic.NHLevel, ...]:
    """Real levels of the gain/loss closed form for ``center``; none for
    other centers or where the closed form does not apply."""
    if isinstance(center, NonHermitianSSHCenter):
        with suppress(PhysicsError):
            return analytic.nh_spectrum(center.v, center.w, center.gamma, center.cells)
    return ()


def _theory_overlay(
    center: CenterSpec, energy: float, k: float, J: float, p: np.ndarray
) -> np.ndarray:
    """Closed-form overlay of the channel probabilities ``p`` measured for
    the incident wave ``k`` at ``energy`` on a lead of hopping ``J``; NaN
    wherever no closed form applies.

    An SSH center gets the zero-mode law where ``analytic.zero_mode_probe``
    accepts the probe.  A gain/loss center whose incident energy sits
    within 0.5 of one of its real levels gets that level's per-cell
    profile, scaled to the largest output probability; the two leads of
    cell m, channels 2m-1 and 2m, share its value."""
    theory = np.full(len(p), np.nan)
    with suppress(PhysicsError):
        if isinstance(center, SSHCenter):
            analytic.zero_mode_probe(energy, k, J)
            theory[:] = [analytic.predicted_probabilities(center.q, l) for l in range(len(p))]
        elif real := _nh_theory_levels(center):
            nearest = min(real, key=lambda lv: abs(lv.real_energy - energy))
            if abs(nearest.real_energy - energy) <= 0.5:
                profile = analytic.nh_transmission_profile(nearest, center.cells)
                theory[1:] = np.repeat(profile * p[1:].max(), 2)
    return theory


def _channel_plot(out_dir: Path, p: np.ndarray, theory: np.ndarray, title: str) -> None:
    """final_state.svg: the measured channel probabilities ``p``, with the
    theory overlay unless it is NaN throughout."""
    channels = np.arange(len(p))
    series = [Series(x=channels, y=p, label="measured", color="#c0392b", markers=True)]
    if not np.all(np.isnan(theory)):
        series.append(Series(x=channels, y=theory, label="theory", color="black"))
    svg_line_plot(
        out_dir / "final_state.svg", series, title=title, xlabel="channel", ylabel="probability"
    )


def _snapshot_blocks(net: NetworkSpec, times: np.ndarray, prob: np.ndarray):
    """snapshots.csv as one block per snapshot: the sites above 1e-12 in
    index order.  Each site's ``region,channel,offset`` text is joined
    once per run, from ``NetworkSpec.labels()`` with ``csv_cells`` for the
    integers, and written as one column under that joined key, so a row
    formats one label cell and one probability.  Each time's text is
    formatted once and is its block's constant column."""
    region, channel, offset = net.labels()
    labels = np.array(
        [f"{r},{c},{o}" for r, c, o in zip(region, csv_cells(channel), csv_cells(offset))],
        dtype=object,
    )
    for time, row in zip(csv_cells(times), prob):
        si = np.flatnonzero(row > 1e-12)
        yield {"time": time, "region,channel,offset": labels[si], "probability": row[si]}


def run_dynamics(cfg: RunConfig, out_dir: Path) -> dict:
    net = NetworkSpec(center=cfg.center, lead=cfg.lead)
    record = run_experiment(net, cfg.packet, cfg.propagator)
    p = record.channel_probabilities
    energy = dispersion(cfg.lead.J, cfg.lead.mu, cfg.packet.k)

    theory = _theory_overlay(cfg.center, energy, cfg.packet.k, cfg.lead.J, p)
    channels = np.arange(len(p))
    write_csv(
        out_dir / "channels.csv",
        {"channel": channels, "probability": p, "probability_theory": theory},
    )

    channel_cells = csv_cells(channels)
    write_csv(
        out_dir / "trajectory.csv",
        (
            {"time": time, "channel": channel_cells, "probability": row}
            for time, row in zip(csv_cells(record.times), record.channel_history())
        ),
    )

    prob = record.site_probabilities
    write_csv(out_dir / "snapshots.csv", _snapshot_blocks(net, record.times, prob))

    # Channel x lead-site intensity maps at a few snapshot times.
    n_panels = min(6, len(record.times))
    picks = np.unique(np.linspace(0, len(record.times) - 1, n_panels).astype(int))
    grids = net.leads(prob)
    panels = [(f"t = {record.times[i]:.6g}", grids[i]) for i in picks]
    svg_heatmap(
        out_dir / "trajectory.svg",
        panels,
        title="wave-packet trajectory",
        xlabel="lead site offset",
        ylabel="channel",
    )

    _channel_plot(out_dir, p, theory, "final channel probabilities")

    return {
        "center": _center_payload(cfg.center),
        "lead": asdict(cfg.lead),
        "packet": asdict(cfg.packet),
        "incident_energy": energy,
        "final_time": record.times[-1],
        "channel_probabilities": p,
        "center_probability": record.center_probability,
        "norm_initial": record.norms[0],
        "norm_final": record.norms[-1],
        "visibility_eta1": _or_nan(visibility, p),
        "warnings": list(record.warnings),
    }


def run_steady(cfg: RunConfig, out_dir: Path) -> dict:
    sol = solve_multichannel(
        center_matrix(cfg.center),
        J=cfg.lead.J,
        mu=cfg.lead.mu,
        k=cfg.steady.k,
    )
    probs = np.concatenate(([sol.reflectance], sol.transmittance))
    wave = incident_wave_vector(cfg.lead.J, cfg.steady.k)
    theory = _theory_overlay(cfg.center, sol.energy, wave, cfg.lead.J, probs)
    amps = np.concatenate(([sol.r], sol.t))
    write_csv(
        out_dir / "amplitudes.csv",
        {
            "channel": np.arange(len(probs)),
            "amp_re": amps.real,
            "amp_im": amps.imag,
            "probability": probs,
            "probability_theory": theory,
        },
    )

    _channel_plot(out_dir, probs, theory, "steady-state channel probabilities")

    return {
        "center": _center_payload(cfg.center),
        "lead": {"J": cfg.lead.J, "mu": cfg.lead.mu},
        "k": cfg.steady.k,
        "energy": sol.energy,
        "r": sol.r,
        "reflectance": sol.reflectance,
        "transmittance": sol.transmittance,
        "flux_error": sol.flux_error,
        "warnings": list(sol.warnings),
    }


def run_mu_scan(cfg: RunConfig, out_dir: Path) -> dict:
    scan_cfg = cfg.scan
    hc = center_matrix(cfg.center)
    scan = mu_scan(
        hc,
        alpha=scan_cfg.alpha,
        J=scan_cfg.J,
        mu_range=(scan_cfg.mu_min, scan_cfg.mu_max),
        resolution=scan_cfg.step,
    )
    write_csv(out_dir / "scan.csv", {"mu": scan.mu_grid, "reflectance": scan.reflectance})

    eigvals, weights = resonant_eigenvalues(hc, scan_cfg.alpha)
    in_window = (scan_cfg.mu_min <= eigvals) & (eigvals <= scan_cfg.mu_max)
    dark = eigvals[in_window & (weights < DARK_OVERLAP2)]
    analytic_levels = [
        e for lv in _nh_theory_levels(cfg.center) for e in (lv.real_energy, -lv.real_energy)
    ]

    mu_star = np.array(scan.resonances, dtype=float)
    nearest = _nearest(eigvals, mu_star)
    approx = _nearest(analytic_levels, mu_star)
    write_csv(
        out_dir / "resonances.csv",
        {
            "mu_star": mu_star,
            "reflectance_min": np.array(scan.resonance_reflectance, dtype=float),
            "nearest_eigenvalue": nearest,
            "eigenvalue_distance": np.abs(nearest - mu_star),
            "analytic_energy": approx,
            "analytic_distance": np.abs(approx - mu_star),
        },
    )

    series = [
        Series(x=scan.mu_grid, y=scan.reflectance, label="|r|^2", color="black"),
        Series(
            x=np.asarray(scan.resonances),
            y=np.zeros(len(scan.resonances)),
            label="resonances",
            color="#c0392b",
            markers=True,
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
            )
        )
    svg_line_plot(
        out_dir / "reflection.svg",
        series,
        title="reflection scan",
        xlabel="mu",
        ylabel="|r|^2",
    )

    return {
        "center": _center_payload(cfg.center),
        "scan": asdict(scan_cfg),
        "resonances": list(scan.resonances),
        "resonance_reflectance": list(scan.resonance_reflectance),
        "dark_states": [f"dark state at mu={mu:.9g}" for mu in dark],
        "n_grid_points": int(len(scan.mu_grid)),
    }


def _nearest(levels, x: np.ndarray) -> np.ndarray:
    """The entry of ``levels`` nearest each entry of ``x``, the first of a
    tie; NaN throughout when there are no levels."""
    levels = np.asarray(levels, dtype=float)
    if not levels.size:
        return np.full(x.shape, np.nan)
    return levels[np.argmin(np.abs(levels[:, None] - x), axis=0)]


def _or_nan(law, *args) -> float:
    """``law(*args)``, or NaN where it raises ``PhysicsError``."""
    try:
        return law(*args)
    except PhysicsError:
        return np.nan


def _sweep_point(task: tuple) -> tuple[np.ndarray, tuple[str, ...]]:
    """Worker for one q-sweep point, given ``run_experiment``'s arguments:
    its channel probabilities and run warnings; module-level so it pickles."""
    record = run_experiment(*task)
    return record.channel_probabilities, record.warnings


def run_q_sweep(cfg: RunConfig, out_dir: Path, workers: int | None) -> dict:
    sweep = cfg.sweep
    lead = cfg.lead if cfg.lead is not None else _FIG3_LEAD
    packet = cfg.packet if cfg.packet is not None else _FIG3_PACKET
    workers = workers if workers is not None else (os.cpu_count() or 1)

    points = [q for q in sweep.q_values if q != 1.0]
    tasks = [
        (NetworkSpec(SSHCenter(v=q * sweep.w, w=sweep.w, cells=sweep.cells), lead), packet,
         cfg.propagator)
        for q in points
    ]

    if workers > 1 and len(tasks) > 1:
        # imported here: only a pooled sweep loads the multiprocessing machinery
        from concurrent.futures import ProcessPoolExecutor

        # fork starts every worker up front, so ask for no more than there are tasks
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            results = list(pool.map(_sweep_point, tasks))
    else:
        results = [_sweep_point(t) for t in tasks]

    # off the zero-mode operating point no closed form describes the packet
    on_point = True
    try:
        analytic.zero_mode_probe(dispersion(lead.J, lead.mu, packet.k), packet.k, lead.J)
    except PhysicsError:
        on_point = False

    q = np.array(sweep.q_values)
    vis, vis_th, refl, refl_th = np.full((4, q.size), np.nan)
    for i, point, (p, _) in zip(np.flatnonzero(q != 1.0).tolist(), points, results):
        vis[i], refl[i] = _or_nan(visibility, p), p[0]
        if on_point:
            vis_th[i] = _or_nan(analytic.visibility_theory, point)
            refl_th[i] = analytic.reflection_theory(point)
    table = {
        "q": q,
        "status": np.where(q == 1.0, "excluded (transition)", "ok"),
        "visibility_measured": vis,
        "visibility_theory": vis_th,
        "reflectance_measured": refl,
        "reflectance_theory": refl_th,
    }
    write_csv(out_dir / "sweep.csv", table)

    series = [
        Series(x=q, y=vis_th, label="V(1) theory", color="black"),
        Series(x=q, y=vis, label="V(1) measured", color="black", markers=True),
        Series(x=q, y=refl_th, label="|r|^2 theory", color="#c0392b"),
        Series(x=q, y=refl, label="|r|^2 measured", color="#c0392b", markers=True),
    ]
    svg_line_plot(
        out_dir / "sweep.svg",
        series if on_point else series[1::2],  # no theory curves to draw
        title="visibility and reflection vs q",
        xlabel="q",
        ylabel="V, |r|^2",
    )

    return {
        "sweep": asdict(sweep),
        "lead": asdict(lead),
        "packet": asdict(packet),
        "rows": [dict(zip(table, row)) for row in zip(*table.values())],
        "warnings": [
            f"q={point}: {msg}" for point, (_, notes) in zip(points, results) for msg in notes
        ],
    }


# Each mode's required sections, tolerated sections and runner.  A config
# section outside the first two is a contradiction and rejected outright.
# A runner writes its artifacts and returns the rest of summary.json.
_MODES = {
    "steady": ({"center", "lead", "steady"}, set(), run_steady),
    "dynamics": ({"center", "lead", "packet"}, {"propagator"}, run_dynamics),
    "mu-scan": ({"center", "scan"}, set(), run_mu_scan),
    "q-sweep": ({"sweep"}, {"lead", "packet", "propagator"}, run_q_sweep),
}


def _mode(name: str) -> tuple:
    if name not in _MODES:
        raise ConfigError(f"unknown mode {name!r}")
    return _MODES[name]


def run(cfg: RunConfig, out_dir, workers: int | None = None) -> dict:
    """Execute a validated configuration, writing artifacts and
    summary.json into out_dir.  Only a q-sweep reads ``workers``."""
    if workers is not None and workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {workers}")
    *_, runner = _mode(cfg.mode)
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
    pool_args = (workers,) if runner is run_q_sweep else ()
    summary = {"mode": cfg.mode, **runner(cfg, out_dir, *pool_args)}
    write_summary(out_dir / "summary.json", summary)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="scatterlab",
        description="Multichannel resonant scattering on tight-binding lattices.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    pool = argparse.ArgumentParser(add_help=False)
    pool.add_argument("--workers", type=int, default=None, help="q-sweep worker processes")
    for mode, (*_, runner) in _MODES.items():
        p = sub.add_parser(
            mode,
            parents=[pool] if runner is run_q_sweep else [],
            help=f"run a {mode} experiment from a config file",
        )
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", default="scatterlab-out", help="output directory")
    p = sub.add_parser("reproduce-fig", parents=[pool], help="one-command reproduction of a figure")
    p.add_argument("figure", choices=list(_FIGURES))
    p.add_argument("--out", default="scatterlab-out")

    args = parser.parse_args(argv)
    try:
        if args.mode == "reproduce-fig":
            jobs = figure_configs(args.figure)
        else:
            jobs = (("", parse_config(args.config, args.mode)),)
        for name, cfg in jobs:
            target = Path(args.out) / name if name else Path(args.out)
            summary = run(cfg, target, workers=getattr(args, "workers", None))
            for msg in summary.get("warnings", ()):  # a mu-scan has none
                print(f"warning: {msg}", file=sys.stderr)
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


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
