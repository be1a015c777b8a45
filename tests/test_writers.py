"""The snapshot and series CSV writers against their csv.writer versions, byte for byte.

The references below are the writers as they were before they joined the
rows themselves: every row through csv.writer with "\\n" line endings and each
float through fmt_float.  The fast writers must produce the same bytes, and
what they write must read back exactly.
"""

import csv
import io
import itertools
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from decaylab.field import Grid, ScalarField, _snapshot_header, read_field_csv, write_field_csv
from decaylab.fileio import fmt_float
from decaylab.metrics import NormSeries

# ---------------------------------------------------------------------------
# reference: the csv.writer versions


def ref_write_field_csv(fld, path):
    grid = fld.grid
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_snapshot_header(grid))
    axes = [[(i + 1, fmt_float(x)) for i, x in enumerate(grid.axis_nodes(a))] for a in range(grid.dim)]
    for nodes, value in zip(itertools.product(*axes), fld.values.ravel()):
        writer.writerow([i for i, _ in nodes] + [x for _, x in nodes] + [fmt_float(value)])
    Path(path).write_text(buf.getvalue())


def ref_to_csv_text(series):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t"] + series.labels)
    for i in range(series.n):
        writer.writerow(
            [fmt_float(series.times[i])]
            + [fmt_float(series.columns[lab][i]) for lab in series.labels]
        )
    return buf.getvalue()


# ---------------------------------------------------------------------------
# strategies

EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, -2.5, 3.0, -7.0, 1e16, 1e-5, 0.1]
FINITE = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))
SHAPES = st.one_of(
    st.tuples(st.integers(1, 12)),
    st.tuples(st.integers(1, 9), st.integers(1, 9)),
    st.tuples(st.integers(1, 12), st.just(1)),
    st.tuples(st.just(1), st.integers(1, 12)),
)
LENGTHS = st.floats(1e-3, 1e3, allow_nan=False)


@st.composite
def fields(draw):
    shape = draw(SHAPES)
    lengths = tuple(draw(LENGTHS) for _ in shape)
    size = int(np.prod(shape))
    values = draw(st.lists(FINITE, min_size=size, max_size=size))
    return ScalarField(Grid(shape, lengths), np.reshape(values, shape))


@st.composite
def series(draw):
    # a plain row of labels, or one that csv.writer must quote
    labels = draw(st.sampled_from([["linf", "l1", "l2"], ["gk0_lsigma", "gk0.05_l1"], ['a,b', 'say "x"'], []]))
    times = np.cumsum(draw(st.lists(st.floats(1e-9, 1.0), max_size=25)))
    values = st.one_of(FINITE, st.sampled_from([np.inf, -np.inf, np.nan]))
    columns = {lab: draw(st.lists(values, min_size=times.size, max_size=times.size)) for lab in labels}
    return NormSeries(times, columns)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=300)
@given(fields())
def test_write_field_csv_matches_csv_writer_bytes(fld):
    with tempfile.TemporaryDirectory() as tmp:
        fast, ref = Path(tmp) / "fast.csv", Path(tmp) / "ref.csv"
        write_field_csv(fld, fast)
        ref_write_field_csv(fld, ref)
        assert fast.read_bytes() == ref.read_bytes()
        back = read_field_csv(fast, fld.grid)
    assert np.array_equal(_bits(back.values), _bits(fld.values))


@settings(max_examples=300)
@given(series())
def test_to_csv_text_matches_csv_writer_bytes(s):
    text = s.to_csv_text()
    assert text == ref_to_csv_text(s)
    if not s.labels:
        return  # from_csv needs at least one norm column
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.csv"
        s.write_csv(path)
        assert path.read_text() == text
        back = NormSeries.from_csv(path)
    assert back.labels == s.labels
    assert np.array_equal(_bits(back.times), _bits(s.times))
    for lab in s.labels:
        assert np.array_equal(_bits(back.column(lab)), _bits(s.column(lab)))


def test_the_edge_values_are_written_as_repr(tmp_path):
    grid = Grid((1, 4), (1.0, 2.0))
    write_field_csv(ScalarField(grid, [[-0.0, 5e-324, 1e308, 3.0]]), tmp_path / "snap.csv")
    assert (tmp_path / "snap.csv").read_text().splitlines() == [
        "i,j,x,y,value",
        "1,1,0.5,0.4,-0.0",
        "1,2,0.5,0.8,5e-324",
        "1,3,0.5,1.2000000000000002,1e+308",
        "1,4,0.5,1.6,3.0",
    ]
