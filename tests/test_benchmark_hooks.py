"""The package functions the benchmark's span tracer wraps.

``perfbench/spans.py`` wraps functions by the module attribute their
caller looks them up through, and its checks count the
``steady.two_lead_solve`` calls of a scan.  These tests fail in the
package's own suite when a source change would break that layout.
"""

import importlib
import importlib.util
from pathlib import Path

import scatterlab as sl
from scatterlab import steady

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _layer_wraps():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYER_WRAPS


def test_every_benchmark_span_wraps_an_existing_function():
    wraps = _layer_wraps()
    assert wraps
    for module_name, attr, span, _ in wraps:
        module = importlib.import_module(f"scatterlab.{module_name}")
        assert callable(getattr(module, attr, None)), f"span {span}: scatterlab.{module_name}.{attr}"


def test_mu_scan_solves_through_the_module_global_once_per_grid_point_and_golden_step(
    monkeypatch,
):
    counts = {"solve": 0, "refine": 0}
    solve, secant_zero = steady.two_lead_solve, steady._secant_zero

    def counted_solve(*args, **kwargs):
        counts["solve"] += 1
        return solve(*args, **kwargs)

    def counted_secant_zero(f, xs, fs):
        def step(x):
            counts["refine"] += 1
            return f(x)

        return secant_zero(step, xs, fs)

    monkeypatch.setattr(steady, "two_lead_solve", counted_solve)
    monkeypatch.setattr(steady, "_secant_zero", counted_secant_zero)
    # the benchmark's own span test scans this centre
    center = sl.center_matrix(sl.SSHCenter(v=2.0, w=4.0, cells=3))
    scan = steady.mu_scan(center, 1, 1.0, (-7.0, 7.0), 1e-2)
    assert scan.mu_grid.size == 1401
    assert scan.resonances and counts["refine"] > 0
    assert counts["solve"] == scan.mu_grid.size + counts["refine"]
