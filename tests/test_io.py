"""Deterministic writers: one cached format per row gives the per-cell text."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pcmxbar._io import provenance_lines, write_csv, write_map_csv


def format_value(value, float_fmt: str) -> str:
    """The per-cell formatting that the row formats replace."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return float_fmt % value
    return str(value)


def reference_csv(header, rows, provenance=None, float_fmt="%.10g") -> bytes:
    lines = provenance_lines(provenance)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format_value(v, float_fmt) for v in row))
    return ("\n".join(lines) + "\n").encode()


EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300)
FLOATS = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
CELLS = st.one_of(
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    FLOATS,
    FLOATS.map(np.float64),
    st.none(),
    st.text(st.characters(blacklist_categories=("Cs",))),
)
FLOAT_FMTS = st.sampled_from(("%.10g", "%.6g"))


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.lists(CELLS, max_size=6), max_size=6),
    float_fmt=FLOAT_FMTS,
    provenance=st.none() | st.dictionaries(st.sampled_from(("seed", "cv")), st.integers()),
)
def test_write_csv_matches_per_cell_formatting(tmp_path_factory, rows, float_fmt, provenance):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    header = ("a", "b")
    write_csv(path, header, rows, provenance=provenance, float_fmt=float_fmt)
    assert path.read_bytes() == reference_csv(header, rows, provenance, float_fmt)


@settings(max_examples=100, deadline=None)
@given(matrix=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                         elements=FLOATS))
def test_write_map_csv_matches_per_cell_formatting(tmp_path_factory, matrix):
    path = tmp_path_factory.mktemp("map") / "m.csv"
    write_map_csv(path, matrix, provenance={"epoch": 3})
    header = ["wordline"] + [f"bitline_{b}" for b in range(1, matrix.shape[1] + 1)]
    rows = [[w, *row] for w, row in enumerate(matrix, 1)]
    assert path.read_bytes() == reference_csv(header, rows, {"epoch": 3}, "%.6g")
