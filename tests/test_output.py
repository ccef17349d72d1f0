import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from scatterlab.output import (
    _PLOT_SIZE,
    CSV_VERSION_LINE,
    Series,
    _Frame,
    svg_heatmap,
    svg_line_plot,
    write_csv,
    write_summary,
)


def test_csv_versioned_header_and_formatting(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c"], [(1, 0.25, "ok"), (2, float("nan"), None)])
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_VERSION_LINE
    assert lines[1] == "a,b,c"
    assert lines[2] == "1,0.25,ok"
    assert lines[3] == "2,nan,"


def test_csv_deterministic(tmp_path):
    rows = [(i, np.sin(i) * 1e-7) for i in range(50)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, ["i", "x"], rows)
    write_csv(b, ["i", "x"], rows)
    assert a.read_bytes() == b.read_bytes()


def _reference_cell(value) -> str:
    """The per-cell rule write_csv must reproduce byte for byte."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    x = float(value)
    return "nan" if np.isnan(x) else format(x, ".12g")


def _reference_csv(columns, rows) -> str:
    lines = [CSV_VERSION_LINE, ",".join(columns)]
    lines += [",".join(_reference_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _written(columns, rows) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_csv(path, columns, rows)
        with open(path, newline="") as f:
            return f.read()


_EDGE_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, 2.2e-308, 1e16,
                -1e16, 1e-300, 1e300, 0.1, 1 / 3)
_CELLS = st.one_of(
    st.floats(allow_subnormal=True),
    st.sampled_from(_EDGE_FLOATS),
    st.floats(width=64).map(np.float64),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.integers(),
    st.text(alphabet=st.characters(exclude_categories=("Cs",))),
    st.sampled_from(("%", "%d", "100%", "%s%%", "%(x)s", "excluded (transition)")),
    st.none(),
)


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(_CELLS, min_size=n, max_size=n).map(tuple), max_size=12)
))
@example([(0.5, "ok", 0.25, np.int64(3)), (1.0, "excluded (transition)", math.nan, None),
          (1.5, None, np.float64(-0.0), 7)])
def test_csv_matches_per_cell_reference(rows):
    columns = [f"c{i}" for i in range(len(rows[0]) if rows else 1)]
    assert _written(columns, rows) == _reference_csv(columns, rows)


def test_csv_empty_rows_write_the_header_only():
    assert _written(["a", "b"], iter(())) == f"{CSV_VERSION_LINE}\na,b\n"


def test_csv_consumes_a_one_shot_iterator_once():
    rows = zip([1, 2, 3], np.array([0.5, 0.25, np.nan]), ["x", "%y", "z"])
    assert _written(["i", "x", "s"], rows) == (
        f"{CSV_VERSION_LINE}\ni,x,s\n1,0.5,x\n2,0.25,%y\n3,nan,z\n"
    )
    assert next(rows, None) is None


@pytest.mark.parametrize("flag", [True, np.True_, False])
def test_csv_refuses_booleans(tmp_path, flag):
    with pytest.raises(TypeError):
        write_csv(tmp_path / "t.csv", ["i", "flag"], [(1, flag)])


def test_summary_sorted_and_typed(tmp_path):
    path = tmp_path / "s.json"
    write_summary(
        path,
        {"zeta": np.float64(1.5), "alpha": np.arange(3), "amp": 1 + 2j, "n": np.int64(4)},
    )
    text = path.read_text()
    assert text.index('"alpha"') < text.index('"zeta"')
    assert '"re": 1.0' in text and '"im": 2.0' in text
    import json

    payload = json.loads(text)
    assert payload["alpha"] == [0, 1, 2]
    assert payload["n"] == 4


def test_summary_writes_non_finite_floats_as_null(tmp_path):
    path = tmp_path / "s.json"
    write_summary(path, {"a": float("nan"), "b": np.float64(np.inf), "c": [1.0, -np.inf],
                         "z": complex(np.nan, 1.0)})

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    payload = json.loads(path.read_text(), parse_constant=refuse)
    assert payload == {"a": None, "b": None, "c": [1.0, None], "z": {"re": None, "im": 1.0}}


def test_svg_line_plot_deterministic_and_labeled(tmp_path):
    x = np.linspace(0, 1, 20)
    series = [
        Series(x=x, y=x**2, label="measured", color="#c0392b", markers=True, line=False),
        Series(x=x, y=np.where(x < 0.5, x, np.nan), label="theory", color="black"),
    ]
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    svg_line_plot(a, series, title="demo", xlabel="x", ylabel="y")
    svg_line_plot(b, series, title="demo", xlabel="x", ylabel="y")
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("<svg")
    assert "demo" in text and "measured" in text and "theory" in text
    assert "<circle" in text and "<path" in text


_COORDS = st.floats(-1e12, 1e12)


@given(
    values=st.lists(_COORDS, max_size=40),
    bounds=st.lists(_COORDS, min_size=4, max_size=4, unique=True),
)
def test_frame_maps_an_array_bitwise_as_its_elements(values, bounds):
    xlo, xhi, ylo, yhi = bounds
    width, height = _PLOT_SIZE
    fr = _Frame(x0=64, y0=40, w=width - 88, h=height - 96, xlo=xlo, xhi=xhi, ylo=ylo, yhi=yhi)
    arr = np.array(values, dtype=float)
    # a subnormal frame span overflows to inf on every path alike
    with np.errstate(over="ignore"):
        for mapped, scalar in ((fr.px(arr), fr.px), (fr.py(arr), fr.py)):
            got = [v.hex() for v in mapped.tolist()]
            assert got == [float(scalar(v)).hex() for v in arr]  # numpy scalars, as before
            assert got == [float(scalar(v)).hex() for v in values]  # Python floats


def test_svg_heatmap_panels(tmp_path):
    rng = np.random.default_rng(0)
    grid = rng.random((5, 40)) ** 4
    path = tmp_path / "h.svg"
    svg_heatmap(path, [("t = 0", grid), ("t = 1", grid * 0)], title="traj",
                xlabel="site", ylabel="channel")
    text = path.read_text()
    assert text.startswith("<svg")
    assert "t = 0" in text and "t = 1" in text
    with pytest.raises(ValueError):
        svg_heatmap(path, [("a", grid), ("b", grid[:, :10])], title="x",
                    xlabel="x", ylabel="y")
