"""The tracer records every layer boundary, its self times add up to the
traced wall time, and it leaves the package as it found it."""

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import spans  # noqa: E402
from scatterlab import cli, dynamics, steady  # noqa: E402
from scatterlab.cli import RunConfig, ScanSection  # noqa: E402
from scatterlab.dynamics import WavePacketSpec  # noqa: E402
from scatterlab.lattice import LeadSpec, SSHCenter  # noqa: E402


def _small_figure(out: Path):
    """A short dynamics run and a short scan through ``cli.run``."""
    jobs = (
        ("dyn", RunConfig(
            mode="dynamics",
            center=SSHCenter(v=2.0, w=4.0, cells=3),
            lead=LeadSpec(J=-0.1, mu=0.0, length=60),
            packet=WavePacketSpec(center_site=-25, sigma=6.0, k=np.pi / 2),
        )),
        ("scan", RunConfig(
            mode="mu-scan",
            center=SSHCenter(v=2.0, w=4.0, cells=3),
            scan=ScanSection(mu_min=-7.0, mu_max=7.0, step=1e-2),
        )),
    )

    def run_figure():
        for name, cfg in jobs:
            cli.run(cfg, out / name)

    return run_figure


def test_self_times_sum_to_traced_wall(tmp_path):
    tracer = spans.Tracer()
    with tracer:
        tracer.wrap(_small_figure(tmp_path), "figure")()
    totals = spans.totals(tracer.spans)
    wall = spans.root_time(tracer.spans)
    assert [sp[spans.NAME] for sp in tracer.spans if sp[spans.PARENT] < 0] == ["figure"]
    assert abs(sum(t["self_s"] for t in totals.values()) - wall) <= 1e-9 * wall
    assert all(t["self_s"] >= 0 for t in totals.values())

    assert totals["cli.run"]["calls"] == 2
    assert totals["lattice.assemble_network"]["calls"] == 1
    assert totals["dynamics.propagate"]["calls"] >= 1
    assert totals["steady.mu_scan"]["calls"] == 1
    # 1401 grid points plus the golden-section refinements.
    assert totals["steady.two_lead_solve"]["calls"] > 1401
    csv = sum(p.stat().st_size for p in tmp_path.rglob("*.csv"))
    svg = sum(p.stat().st_size for p in tmp_path.rglob("*.svg"))
    metrics = {name: fn(totals) for name, (_, fn) in spans.LAYER_METRICS.items()}
    assert metrics["output.csv_bytes"] == csv
    assert metrics["output.svg_bytes"] == svg
    modules = spans.module_seconds(totals)
    assert sum(modules[m] for m in ("dynamics", "steady", "output")) <= wall


def test_tracer_restores_the_package():
    before = (cli.run, cli.mu_scan, cli.write_csv, dynamics.propagate, steady.two_lead_solve)
    with spans.Tracer():
        assert steady.two_lead_solve is not before[-1]
    assert (cli.run, cli.mu_scan, cli.write_csv, dynamics.propagate, steady.two_lead_solve) == before
