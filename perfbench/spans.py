"""In-memory span recording around the package's layer boundaries, and
the per-layer metrics derived from the recorded spans.

Functions are wrapped under the name their caller looks them up by:
``cli`` imports ``run_experiment``, ``mu_scan`` and the writers into its
own namespace, ``run_experiment`` finds ``propagate`` and
``assemble_network`` in ``dynamics``, and ``mu_scan`` finds
``two_lead_solve`` in ``steady``.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict

# (module, attribute, span name, records the size of the file it writes)
LAYER_WRAPS = (
    ("cli", "run", "cli.run", False),
    ("dynamics", "assemble_network", "lattice.assemble_network", False),
    ("cli", "run_experiment", "dynamics.run_experiment", False),
    ("dynamics", "propagate", "dynamics.propagate", False),
    ("cli", "mu_scan", "steady.mu_scan", False),
    ("steady", "two_lead_solve", "steady.two_lead_solve", False),
    ("cli", "resonant_eigenvalues", "steady.resonant_eigenvalues", False),
    ("cli", "write_csv", "output.write_csv", True),
    ("cli", "svg_heatmap", "output.svg_heatmap", True),
    ("cli", "svg_line_plot", "output.svg_line_plot", True),
    ("cli", "write_summary", "output.write_summary", True),
)

# A span is [name, start, end, parent index (-1 for a root), bytes written].
NAME, START, END, PARENT, BYTES = range(5)


class Tracer:
    """Records one span per wrapped call.  Use as a context manager: the
    wrappers are installed on entry and the originals restored on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, fn, name: str, sized: bool = False):
        """``fn`` recording one span per call; with ``sized``, the span also
        records the size of the file named by the call's first argument."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, 0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = clock()
            if sized:
                spans[idx][BYTES] = os.path.getsize(args[0])
            return result

        return traced

    def __enter__(self):
        for module_name, attr, name, sized in LAYER_WRAPS:
            module = importlib.import_module(f"scatterlab.{module_name}")
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name, sized))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        return False


def totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: total duration ``s``, ``self_s`` (duration minus the
    time covered by child spans), ``calls`` and ``bytes``."""
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp[PARENT] >= 0:
            child_time[sp[PARENT]] += sp[END] - sp[START]
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "bytes": 0}
    )
    for sp, kids in zip(spans, child_time):
        entry = out[sp[NAME]]
        duration = sp[END] - sp[START]
        entry["s"] += duration
        entry["self_s"] += duration - kids
        entry["calls"] += 1
        entry["bytes"] += sp[BYTES]
    return dict(out)


def root_time(spans) -> float:
    return sum(sp[END] - sp[START] for sp in spans if sp[PARENT] < 0)


# Per-layer metrics: name -> (unit, function of the per-name totals).
def _get(t, name, key):
    return t.get(name, {}).get(key, 0)


def _ms_per_stride(t):
    calls = _get(t, "dynamics.propagate", "calls")
    return 1000.0 * _get(t, "dynamics.propagate", "s") / calls if calls else 0.0


LAYER_METRICS = {
    "lattice.assemble_network.s": ("s", lambda t: _get(t, "lattice.assemble_network", "s")),
    "lattice.assemble_network.calls": ("count", lambda t: _get(t, "lattice.assemble_network", "calls")),
    "dynamics.propagate.s": ("s", lambda t: _get(t, "dynamics.propagate", "s")),
    "dynamics.propagate.calls": ("count", lambda t: _get(t, "dynamics.propagate", "calls")),
    "dynamics.propagate.ms_per_stride": ("ms", _ms_per_stride),
    "dynamics.run_experiment.self_s": ("s", lambda t: _get(t, "dynamics.run_experiment", "self_s")),
    "steady.mu_scan.s": ("s", lambda t: _get(t, "steady.mu_scan", "s")),
    "steady.two_lead_solve.s": ("s", lambda t: _get(t, "steady.two_lead_solve", "s")),
    "steady.two_lead_solve.calls": ("count", lambda t: _get(t, "steady.two_lead_solve", "calls")),
    "steady.resonant_eigenvalues.s": ("s", lambda t: _get(t, "steady.resonant_eigenvalues", "s")),
    "output.write_csv.s": ("s", lambda t: _get(t, "output.write_csv", "s")),
    "output.csv_bytes": ("bytes", lambda t: _get(t, "output.write_csv", "bytes")),
    "output.svg.s": (
        "s", lambda t: _get(t, "output.svg_heatmap", "s") + _get(t, "output.svg_line_plot", "s"),
    ),
    "output.svg_bytes": (
        "bytes",
        lambda t: _get(t, "output.svg_heatmap", "bytes") + _get(t, "output.svg_line_plot", "bytes"),
    ),
    "output.write_summary.s": ("s", lambda t: _get(t, "output.write_summary", "s")),
    "cli.run.self_s": ("s", lambda t: _get(t, "cli.run", "self_s")),
}

# Share of the traced wall time spent inside each module's spans, counted
# once per module (a module's spans do not nest inside each other).
MODULE_ROOTS = {
    "lattice": ("lattice.assemble_network",),
    "dynamics": ("dynamics.run_experiment",),
    "steady": ("steady.mu_scan", "steady.resonant_eigenvalues"),
    "output": ("output.write_csv", "output.svg_heatmap", "output.svg_line_plot", "output.write_summary"),
}


def module_seconds(t) -> dict[str, float]:
    """Inclusive seconds per module; ``dynamics`` includes the network
    assembly it triggers, so ``lattice`` is also listed on its own."""
    return {mod: sum(_get(t, n, "s") for n in names) for mod, names in MODULE_ROOTS.items()}
