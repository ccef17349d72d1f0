import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from scatterlab.output import (
    _CSV_BLOCK,
    _PLOT_SIZE,
    CSV_VERSION_LINE,
    Series,
    _colormap,
    _format_rows,
    _Frame,
    _nice_ticks,
    csv_cells,
    svg_heatmap,
    svg_line_plot,
    write_csv,
    write_summary,
)


def test_csv_versioned_header_and_formatting(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, {"a": [1, 2], "b": [0.25, float("nan")], "c": ["ok", ""]})
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_VERSION_LINE
    assert lines[1] == "a,b,c"
    assert lines[2] == "1,0.25,ok"
    assert lines[3] == "2,nan,"


def test_csv_deterministic(tmp_path):
    table = {"i": np.arange(50), "x": np.sin(np.arange(50)) * 1e-7}
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, table)
    write_csv(b, table)
    assert a.read_bytes() == b.read_bytes()


def _reference_cell(value) -> str:
    """The per-cell rule write_csv must reproduce byte for byte."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    x = float(value)
    return "nan" if np.isnan(x) else format(x, ".12g")


def _reference_csv(table) -> str:
    lines = [CSV_VERSION_LINE, ",".join(table)]
    lines += [",".join(map(_reference_cell, row)) for row in zip(*table.values())]
    return "\n".join(lines) + "\n"


def _written(table) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_csv(path, table)
        with open(path, newline="") as f:
            return f.read()


_EDGE_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, 2.2e-308, 1e16,
                -1e16, 1e-300, 1e300, 0.1, 1 / 3)
_INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_FLOATS = st.one_of(st.floats(allow_subnormal=True), st.sampled_from(_EDGE_FLOATS))
# numpy's fixed-width str dtype drops trailing NULs, so none are drawn
_TEXT = st.one_of(
    st.text(alphabet=st.characters(exclude_categories=("Cs",), exclude_characters="\x00")),
    st.sampled_from(("%", "%d", "100%", "%s%%", "%(x)s", "excluded (transition)")),
)


def _column(n: int):
    """One n-row column: int64 or Python ints, float64, or str (a list, or
    an object array like ``NetworkSpec.labels()``'s regions)."""
    size = {"min_size": n, "max_size": n}
    return st.one_of(
        st.lists(_INT64, **size).map(lambda v: np.array(v, dtype=np.int64)),
        st.lists(_INT64, **size),
        st.lists(_FLOATS, **size).map(lambda v: np.array(v, dtype=np.float64)),
        st.lists(_TEXT, **size),
        st.lists(_TEXT, **size).map(lambda v: np.array(v, dtype=object)),
    )


@given(st.tuples(st.integers(1, 4), st.integers(0, 12)).flatmap(
    lambda shape: st.lists(_column(shape[1]), min_size=shape[0], max_size=shape[0])
))
@example([[0.5, 1.0, 1.5], ["ok", "excluded (transition)", "%d"],
          np.array([0.25, math.nan, -0.0]), np.array([3, -(2**63), 7], dtype=np.int64)])
def test_csv_matches_per_cell_reference(columns):
    table = {f"c{i}": column for i, column in enumerate(columns)}
    assert _written(table) == _reference_csv(table)


_SHAPES = st.tuples(st.integers(1, 4), st.integers(0, 12))


@given(_SHAPES.flatmap(
    lambda shape: st.lists(_column(shape[1]), min_size=shape[0], max_size=shape[0])
), st.lists(st.integers(0, 12), max_size=4))
def test_csv_blocks_write_the_table_they_split(columns, cuts):
    # the table streamed as blocks at sorted cuts, empty blocks included,
    # writes the bytes of the whole table
    table = {f"c{i}": column for i, column in enumerate(columns)}
    bounds = [0, *sorted(min(c, len(columns[0])) for c in cuts), len(columns[0])]
    blocks = ({name: column[a:b] for name, column in table.items()}
              for a, b in zip(bounds, bounds[1:]))
    assert _written(blocks) == _written(table)


@given(_SHAPES.flatmap(lambda shape: _column(shape[1])))
@example(np.array([0.0, -0.0, math.nan, 0.0, -0.0]))
@example(np.array([7, -(2**63), 7, 2**63 - 1, 7]))
def test_csv_cells_write_the_bytes_of_their_column(column):
    # integers are formatted once per distinct value; floats never are, so
    # -0.0 and 0.0 keep their own text
    cells = csv_cells(column)
    assert cells.dtype == object
    assert _written({"x": cells}) == _written({"x": column})


def test_csv_block_with_other_columns_is_refused(tmp_path):
    blocks = iter([{"a": [1], "b": [0.5]}, {"b": [0.25], "a": [2]}])
    with pytest.raises(ValueError, match="not the header"):
        write_csv(tmp_path / "t.csv", blocks)


def test_csv_needs_a_block(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="at least one block"):
        write_csv(path, iter([]))
    assert not path.exists()


def test_csv_rows_cross_the_block_boundary_unchanged():
    n = _CSV_BLOCK + 1
    rng = np.random.default_rng(7)
    table = {
        "i": np.arange(n),
        "x": rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
        "region": np.array(["center", "input", "output"], dtype=object)[np.arange(n) % 3],
    }
    assert _written(table) == _reference_csv(table)


@pytest.mark.parametrize("constant", ["", "0.25", "%", "100%", "%d%%", "%(x)s"])
@pytest.mark.parametrize("n", [0, 1, _CSV_BLOCK + 1])
def test_csv_constant_column_is_the_column_it_repeats(constant, n):
    # a str column is written literally in every row of its block, a % in
    # it too, beside numeric columns and across the block boundary; with
    # no rows it writes none
    rng = np.random.default_rng(11)
    columns = {"i": np.arange(n), "x": rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)}
    table = {"t": constant, **columns, "s": constant}
    assert _written(table) == _reference_csv({"t": [constant] * n, **columns, "s": [constant] * n})


def test_csv_blocks_write_their_own_constants():
    blocks = [{"t": "a%", "x": [0.5]}, {"t": "b", "x": []}, {"t": "c", "x": [1.0, -0.0]}]
    assert _written(blocks) == f"{CSV_VERSION_LINE}\nt,x\na%,0.5\nc,1\nc,-0\n"
    # a block of constants alone has no rows
    assert _written({"t": "a", "u": "b"}) == f"{CSV_VERSION_LINE}\nt,u\n"


def test_csv_empty_rows_write_the_header_only():
    table = {"a": [], "b": np.array([], dtype=np.int64), "c": np.array([], dtype=object)}
    assert _written(table) == f"{CSV_VERSION_LINE}\na,b,c\n"


def _per_row(piece, columns, sep=""):
    """The loop that one ``%`` per block replaces: one ``%`` per row."""
    return sep.join(piece % row for row in zip(*columns))


@pytest.mark.parametrize("n", [0, 1, 2, _CSV_BLOCK + 1])
def test_csv_blocks_are_the_per_row_loop(n):
    # NaN, -0.0, int64's ends, a Python int beyond int64 (an object column),
    # and strings holding printf directives, across the block boundary
    cycle = np.arange(n) % 3
    table = {
        "i": np.array([2**63 - 1, -(2**63), 0])[cycle],
        "big": [10**30 + j for j in range(n)],
        "x": np.array([math.nan, -0.0, 1 / 3])[cycle],
        "s": np.array(["center", "100%", "%d%%"], dtype=object)[cycle],
    }
    rows = _per_row("%d,%s,%.12g,%s\n", [np.asarray(c).tolist() for c in table.values()])
    assert _written(table) == f"{CSV_VERSION_LINE}\ni,big,x,s\n" + rows


def test_csv_of_an_empty_table_is_its_version_and_blank_header():
    assert _written({}) == f"{CSV_VERSION_LINE}\n\n"


_SVG_PIECES = [
    ("%.2f,%.2f", " L "),  # a line plot's path data
    ('<rect x="%.2f" y="%.2f" width="1.00" height="2.00" fill="rgb(%d,%d,%d)"/>', "\n"),
]


@pytest.mark.parametrize("piece, sep", _SVG_PIECES, ids=["path", "heatmap-cells"])
@pytest.mark.parametrize("n", [0, 1, 7])
def test_svg_parts_are_the_per_row_loop(piece, sep, n):
    values = [math.nan, -0.0, 1e300, -1e-300, 0.005, 2.675, math.inf]
    k = piece.count("%")
    columns = [(values * 2)[j : j + n] if j < 2 else list(range(j, j + n)) for j in range(k)]
    assert _format_rows(piece, columns, sep) == _per_row(piece, columns, sep)


@pytest.mark.parametrize("flag", [True, np.True_, False])
def test_csv_refuses_booleans(tmp_path, flag):
    path = tmp_path / "t.csv"
    with pytest.raises(TypeError, match="column 'flag' of dtype bool"):
        write_csv(path, {"i": [1], "flag": [flag]})
    assert not path.exists()


@pytest.mark.parametrize("column", [[1 + 2j], np.array([1j, 0j])], ids=["list", "array"])
def test_csv_refuses_complex_columns(tmp_path, column):
    path = tmp_path / "t.csv"
    with pytest.raises(TypeError, match="column 'amp' of dtype complex128"):
        write_csv(path, {"i": np.arange(len(column)), "amp": column})
    assert not path.exists()


def test_csv_refuses_columns_of_unequal_length(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="unequal lengths"):
        write_csv(path, {"i": [1, 2, 3], "x": [0.5, 0.25]})
    assert not path.exists()


def test_nice_ticks_stop_when_the_step_cannot_advance():
    # at 1e17 the float spacing is 16, so the tick step 5 never moves v
    ticks = _nice_ticks(1e17, 1e17 + 16)
    assert 1 <= len(ticks) <= 10
    assert all(math.isfinite(t) and 1e17 <= t <= 1e17 + 16 for t in ticks)


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
        Series(x=x, y=x**2, label="measured", color="#c0392b", markers=True),
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
    # a path for the theory line only, a circle for each measured point
    assert text.count("<path") == 1 and text.count("<circle") == 20


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


def _colormap_loop(v):
    """The per-value colormap the heatmap used before its numpy pass."""
    stops = ((0.0, (0, 0, 4)), (0.25, (87, 16, 110)), (0.5, (188, 55, 84)),
             (0.75, (249, 142, 9)), (1.0, (252, 255, 164)))
    v = min(max(v, 0.0), 1.0)
    for (x0, c0), (x1, c1) in zip(stops, stops[1:]):
        if v <= x1:
            f = (v - x0) / (x1 - x0)
            return tuple(round(a + f * (b - a)) for a, b in zip(c0, c1))


def test_colormap_matches_the_per_value_loop():
    # a fine grid over and beyond [0, 1], every stop and the floats either
    # side of the inner ones; 15 grid values round a half-integer tie
    values = np.concatenate(
        (np.linspace(-0.5, 1.5, 40_001), [0.0, 0.25, 0.5, 0.75, 1.0],
         np.nextafter([0.25, 0.5, 0.75], 0), np.nextafter([0.25, 0.5, 0.75], 1))
    )
    got = [tuple(rgb) for rgb in _colormap(values).tolist()]
    assert got == [_colormap_loop(v) for v in values.tolist()]
    assert tuple(_colormap(0.0).tolist()) == (0, 0, 4)


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
